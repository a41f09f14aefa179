"""Structure-preserving transforms on plain grammars.

The workhorses here rearrange derivations without ever materializing the
matrix: clockwise rotation, margin extraction, row
linearization of a 2D grammar, and the rebalancing pipeline built on it
(linearize the rows, balance each row, stack the rows).

Rotation rewrites the geometry table's entries into productions.  Margin
extraction and the linearization read their input from the table's int64
view (``GeometryTable.columns``), not from the productions, and walk it
once (``grammar._post_order``).  The linearization runs on numpy arrays, one
round per input depth, which looks its row pairs up in one sorted array of
the pairs made so far, and hands its row symbols on as the fold's flat
form (``balance._Dag``), numbered round by round in order of first
occurrence (equal to a one-call-at-a-time builder's up to renumbering).
``linearize_rows`` joins the start's rows into one row-major string; the
rebalance instead folds the N rows as the roots of one plan
(``balance._fold_1d``), which is the O(g·N) upper-bound route: every row
is a 1D string over at most g·N row symbols in all, balanced to depth
O(log M).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .balance import _Dag, _fold_1d, _keep, _plain, _shallow
from .grammar import (
    GeometryTable,
    Grammar1D,
    Grammar2D,
    GrammarBuilder,
    HConcat,
    ParameterError,
    Terminal,
    VConcat,
    _post_order,
    _table,
    compute_geometry,
)


def rotate_cw(g: Grammar2D) -> Grammar2D:
    """The grammar deriving exp(g) rotated 90 degrees clockwise.

    A rewrite of the geometry table's entries, so ``g`` must be sound and
    hole-free: a concat with its second child beside the first turns
    vertical in the same order (left column into top rows), one with it
    below turns horizontal with operands swapped (top rows into right
    columns).  Symbol count and ids are unchanged.
    """
    geo = compute_geometry(g)
    if any(geo.holes):
        raise ParameterError("rotation is defined for plain grammars only")
    rules = tuple(
        e if e is None else Terminal(e) if e.__class__ is str
        else VConcat(e[0], e[5]) if e[7] > 0 else HConcat(e[5], e[0])
        for e in geo.entries)
    return Grammar2D(rules=rules, start=g.start, labels=g.labels)


def margin_slp(g: Grammar2D, side: str) -> Grammar1D:
    """A 1D grammar for one margin of exp(g) (size never exceeds |g|).

    ``side`` is ``top``/``bottom``/``left``/``right``.  Column margins are
    returned as height-1 strings read top to bottom.  Follows the geometry
    table's int64 view: a concat along the margin's direction joins both
    children's margins, and one across it keeps the first child's (top,
    left) or the second child's (bottom, right), so the output has at most
    one production per reachable input symbol.  A reachable hole raises
    :class:`ParameterError`.
    """
    if side not in ("top", "bottom", "left", "right"):
        raise ParameterError(f"unknown side {side!r}")
    # A horizontal concat runs along a row margin.
    rows, first = side in ("top", "bottom"), side in ("top", "left")
    geo = compute_geometry(g)
    (c1, _, _, c2, _, dy2), _, (p, _, _, _) = geo.columns
    left, right, along = c1.tolist(), c2.tolist(), ((dy2 > 0) == rows).tolist()
    post = _post_order(left, right, [g.start])
    if p[post].any():
        raise ParameterError("margins are defined for plain grammars only")
    b = GrammarBuilder(dedup=True)
    out: dict[int, int] = {}
    for sym in post:
        x = left[sym]
        if x < 0:
            out[sym] = b.terminal(geo.entries[sym])
        elif along[sym]:
            out[sym] = b.h(out[x], out[right[sym]])
        else:
            out[sym] = out[x if first else right[sym]]
    return b.finish(out[g.start])


def linearize_rows(g: Grammar2D, geo: GeometryTable | None = None) -> Grammar1D:
    """A 1D grammar deriving the row-major flattening of exp(g).

    Every reachable symbol gets the array of its row strings, bottom-up: a
    terminal is its own row, a vertical concat lists its top child's rows
    then its bottom child's, and a horizontal concat joins its children's
    rows pairwise.  So only terminals and horizontal concats materialize (at
    most one symbol per row of each input symbol).  The arrays hold as many
    ids in all as the reachable symbols have rows, at most |g|·N, but each is
    dropped once its last parent has read it.  The start symbol's N row
    strings are then joined with a balanced gadget.  The row pairs are
    made on numpy arrays, one round per input depth (``_linearize``), each
    round's new pairs numbered in order of first occurrence, so the grammar
    equals a one-call-at-a-time deduplicating builder's up to renumbering.
    The pairs are distinct, so replaying them into a ``GrammarBuilder``
    gives each its own id; the builder then makes the join and keeps its
    geometry table on the grammar it returns.
    """
    geo = _table(g, geo)
    dag, parts = _linearize(g, geo)
    b = GrammarBuilder()
    for x, y, c in zip(dag.left, dag.right, dag.op):
        if x >= 0:
            b.h(x, y)
        else:
            b.terminal(c)
    return b.finish(b.balanced("H", parts))


#: A row pair is hash-consed on one int64 key, ``left << PAIR_BITS | right``,
#: which is exact while every id is below ``2**PAIR_BITS``; past that the
#: linearization raises ``OverflowError``.
PAIR_BITS = 31


def _room(cols: np.ndarray, rows: int) -> np.ndarray:
    """``cols``, doubled in length until it has ``rows`` rows."""
    while len(cols) < rows:
        cols = np.concatenate((cols, np.empty_like(cols)))
    return cols


def _linearize(g: Grammar2D, geo: GeometryTable) -> tuple[_Dag, list[int]]:
    """The row pairs of ``linearize_rows(g)`` as the ``_Dag`` the fold reads
    (``op`` is a terminal's character or ``"H"``, ``area`` the widths), and
    the start's N row symbols, top to bottom.

    The input symbols go in rounds of equal depth, so each round reads
    only row arrays of earlier rounds.  A round pairs all its horizontal
    concats' rows in one numpy pass: the packed pair keys are uniqued,
    looked up in the sorted pair index by ``searchsorted``, and the unseen
    ones take the next ids in order of first occurrence, with widths and
    depths gathered from their children's; merging them into the index
    copies it once per round.  So the ids go round by round, and the
    ``_Dag`` equals the one a one-call-at-a-time deduplicating builder
    would make only up to renumbering (the fold's output does not read the
    ids).  One ``grammar._post_order`` walk lists the reachable symbols,
    each round in that order, and finds a reachable hole.  The input is
    read from its geometry table's int64 view: a leaf is a terminal, and a
    second child offset by columns (``dy2 > 0``) makes a horizontal
    concat.
    """
    N, M = geo.dims(g.start)
    if N * M > (1 << 62):
        raise OverflowError(f"flattened length {N}*{M} exceeds 2**62")
    (c1, _, _, c2, _, dy2), (H, _, D), (p, _, _, _) = geo.columns
    left, right, across = c1.tolist(), c2.tolist(), (dy2 > 0).tolist()
    post = np.array(_post_order(left, right, [g.start]))
    # A reachable apply reaches its context, so the holes decide.
    if p[post].any():
        raise ParameterError("linearization is defined for plain grammars only")
    inner = post[c1[post] >= 0]
    kids = np.concatenate((c1[inner], c2[inner]))
    parents = np.bincount(kids, minlength=len(left)).tolist()
    # The reachable symbols by depth, each depth in post-order.
    post = post[D[post].argsort(kind="stable")]
    levels = np.split(post, np.flatnonzero(np.diff(D[post])) + 1)
    # Per symbol: left, right, width, depth; n rows in use.
    cols = np.empty((1024, 4), dtype=np.int64)
    n = 0
    # The packed row pairs made so far, sorted, and their symbols, ending in
    # a sentinel; a character -> its terminal.
    pair_keys = np.array([np.iinfo(np.int64).max])
    pair_ids = np.array([-1])
    terms: dict[str, int] = {}
    rows: dict[int, np.ndarray] = {}
    for level in levels:
        level = level.tolist()
        hs = []
        for sym in level:
            x = left[sym]
            if x >= 0:
                if across[sym]:
                    hs.append(sym)
                else:
                    rows[sym] = np.concatenate((rows[x], rows[right[sym]]))
            else:
                char = geo.entries[sym]
                t = terms.get(char)
                if t is None:
                    cols = _room(cols, n + 1)
                    t = terms[char] = n
                    cols[t] = (-1, -1, 1, 1)
                    n += 1
                rows[sym] = np.array([t], dtype=np.int64)
        if hs:
            if n > 1 << PAIR_BITS:
                raise OverflowError(
                    f"{n} symbols overflow the {PAIR_BITS}-bit pair key")
            firsts = np.concatenate([rows[left[z]] for z in hs])
            keys = firsts << PAIR_BITS | np.concatenate([rows[right[z]] for z in hs])
            heights = H[hs]
            starts = heights.cumsum() - heights
            # The distinct keys and where each first occurs: a stable sort
            # keeps equal keys in order.
            by_key = keys.argsort(kind="stable")
            keys = keys[by_key]
            head = np.empty(len(keys), dtype=bool)
            head[0] = True
            np.not_equal(keys[1:], keys[:-1], out=head[1:])
            uniq, first = keys[head], by_key[head]
            # The sentinel key is above every pair, so ``at`` stays in range.
            at = pair_keys.searchsorted(uniq)
            ids = pair_ids[at]
            new = pair_keys[at] != uniq
            fresh = uniq[new]
            k = len(fresh)
            # The unseen pairs take the next ids in order of first occurrence.
            made = first[new].argsort()
            ids[np.flatnonzero(new)[made]] = np.arange(n, n + k)
            # Merge the fresh pairs in: one copy of the index.
            dest = at[new] + np.arange(k)
            rest = np.ones(len(pair_keys) + k, dtype=bool)
            rest[dest] = False
            merged_keys, merged_ids = np.empty((2, len(rest)), dtype=np.int64)
            merged_keys[dest], merged_ids[dest] = fresh, ids[new]
            merged_keys[rest], merged_ids[rest] = pair_keys, pair_ids
            pair_keys, pair_ids = merged_keys, merged_ids
            cols = _room(cols, n + k)
            fresh = fresh[made]
            fl, fr = fresh >> PAIR_BITS, fresh & ((1 << PAIR_BITS) - 1)
            block = cols[n:n + k]
            block[:, 0], block[:, 1] = fl, fr
            block[:, 2] = cols[fl, 2] + cols[fr, 2]
            block[:, 3] = np.maximum(cols[fl, 3], cols[fr, 3]) + 1
            n += k
            flat = np.empty(len(keys), dtype=np.int64)
            flat[by_key] = ids[head.cumsum() - 1]
            for z, i, h in zip(hs, starts.tolist(), heights.tolist()):
                rows[z] = flat[i:i + h]
        # Drop a child's array once its last parent has read it, so the live
        # arrays stay near the output's size (a tall vertical chain would
        # otherwise hold N(N+1)/2 ids).
        for sym in level:
            if left[sym] >= 0:
                for c in (left[sym], right[sym]):
                    parents[c] -= 1
                    if not parents[c]:
                        del rows[c]

    cols = cols[:n]
    keep = _keep(cols[:, 3], cols[:, 2]).tolist()
    left, right, widths, _ = cols.T.tolist()
    op = ["H"] * n
    for c, t in terms.items():
        op[t] = c
    return _Dag(left, right, op, widths, keep), rows[g.start].tolist()


@dataclass(frozen=True)
class RebalanceStats:
    """Measured sizes around the 2D rebalancing pipeline."""

    rows: int
    cols: int
    input_size: int
    input_depth: int
    output_size: int
    output_depth: int


def rebalance_plain_2d(
    g: Grammar2D, geo: GeometryTable | None = None
) -> tuple[Grammar2D, RebalanceStats]:
    """Equivalent plain grammar of depth at most min(the input's depth,
    O(log area)) for a wide input.

    An input already shallow for its size, depth ≤ ⌈log2 area⌉ +
    ``KEEP_SLACK``, comes back as it is.  Any other goes through the
    pipeline: linearize the rows, fold all N row symbols in one 1D plan
    (each row that already passes the keep test is copied), and stack the
    balanced rows with a balanced vertical gadget.  If the pipeline's output
    is deeper than the input, or as deep and larger, the input comes back
    instead.  Requires N ≤ M — rotate first otherwise, or the size bound
    degrades.  Grammars with holes are ground-ified (contexts inlined) up
    front, and it is the inlined grammar that comes back in their place.
    """
    g, geo = _plain(g, geo)
    N, M = geo.dims(g.start)
    if N > M:
        raise ParameterError(
            f"input is {N}x{M}; rebalancing expects N ≤ M (rotate_cw first)"
        )
    size, depth = g.size, geo.depths[g.start]
    unchanged = g, RebalanceStats(N, M, size, depth, size, depth)
    if _shallow(depth, N * M):
        return unchanged
    b, rows = _fold_1d(*_linearize(g, geo))
    root = b.balanced("V", rows)
    out_depth = b.depth(root)
    if out_depth <= depth:
        out = b.finish(root)
        if out_depth < depth or out.size <= size:
            return out, RebalanceStats(N, M, size, depth, out.size, out_depth)
    return unchanged
