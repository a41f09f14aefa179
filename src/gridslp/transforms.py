"""Structure-preserving transforms on plain grammars.

The workhorses here rearrange derivations without ever materializing the
matrix: clockwise rotation by production rewriting, margin extraction, row
linearization of a 2D grammar, and the rebalancing pipeline built on it
(linearize the rows, balance each row, stack the rows).

The linearization runs on numpy arrays, one round per input depth, which
looks its row pairs up in one sorted array of the pairs made so far, and
hands its row symbols on as the fold's flat form (``balance._Dag``), in the
ids a deduplicating builder would have given them.  ``linearize_rows``
joins the start's rows into one row-major string; the rebalance instead
folds the N rows as the roots of one plan (``balance._fold_1d``), which is
the O(g·N) upper-bound route: every row is a 1D string over at most g·N
row symbols in all, balanced to depth O(log M).
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
    VConcat,
    compute_geometry,
    reachable_topo,
)


def rotate_cw(g: Grammar2D) -> Grammar2D:
    """The grammar deriving exp(g) rotated 90 degrees clockwise.

    Purely a production rewrite: horizontal concats become vertical ones in
    the same order (left column turns into top rows), vertical concats become
    horizontal ones with operands swapped (top rows turn into right columns).
    Symbol count and ids are unchanged.
    """
    new_rules = []
    for r in g.rules:
        if r is None or r.kind == "term":
            new_rules.append(r)
        elif r.kind == "h":
            new_rules.append(VConcat(r.left, r.right))
        elif r.kind == "v":
            new_rules.append(HConcat(r.bottom, r.top))
        else:
            raise ParameterError("rotation is defined for plain grammars only")
    return Grammar2D(rules=tuple(new_rules), start=g.start, labels=g.labels)


def margin_slp(g: Grammar2D, side: str) -> Grammar1D:
    """A 1D grammar for one margin of exp(g) (size never exceeds |g|).

    ``side`` is ``top``/``bottom``/``left``/``right``.  Column margins are
    returned as height-1 strings read top to bottom.  Each production either
    survives with both children (when the margin crosses it) or collapses to
    the single child that contains the margin, so the output has at most one
    production per reachable input symbol.
    """
    if side not in ("top", "bottom", "left", "right"):
        raise ParameterError(f"unknown side {side!r}")
    rules = g.rules
    b = GrammarBuilder(dedup=True)
    out: dict[int, int] = {}
    for sym in reachable_topo(rules, g.start):
        r = rules[sym]
        if r.kind == "term":
            out[sym] = b.terminal(r.char)
        elif r.kind == "h":
            if side == "left":
                out[sym] = out[r.left]
            elif side == "right":
                out[sym] = out[r.right]
            else:
                out[sym] = b.h(out[r.left], out[r.right])
        elif r.kind == "v":
            if side == "top":
                out[sym] = out[r.top]
            elif side == "bottom":
                out[sym] = out[r.bottom]
            else:
                out[sym] = b.h(out[r.top], out[r.bottom])
        else:
            raise ParameterError("margins are defined for plain grammars only")
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
    made on numpy arrays, one round per input depth (``_linearize``), in
    the ids a deduplicating ``GrammarBuilder`` would give them, so replaying
    them into one gives each its own id; the builder then makes the join
    and keeps its geometry table on the grammar it returns.
    """
    if geo is None:
        geo = compute_geometry(g)
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


def _check_pair_bits(n: int) -> None:
    """Ids below ``n`` fit the packed pair key, or ``OverflowError``."""
    if n > 1 << PAIR_BITS:
        raise OverflowError(f"{n} symbols overflow the {PAIR_BITS}-bit pair key")


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
    ones become symbols whose widths and depths are gathered from their
    children's; merging them into the index copies it once per round.
    Each symbol also keeps the first moment the one-call-at-a-time builder
    would have asked for it (terminals and row pairs counted in
    ``reachable_topo`` order), and sorting by that moment gives the
    builder's ids.
    """
    N, M = geo.dims(g.start)
    if N * M > (1 << 62):
        raise OverflowError(f"flattened length {N}*{M} exceeds 2**62")
    rules, D = g.rules, geo.depths
    order = reachable_topo(rules, g.start)
    kids: dict[int, tuple[int, int]] = {}
    parents = dict.fromkeys(order, 0)
    levels: dict[int, list[int]] = {}
    # The builder's first h (or terminal) call for each input symbol.
    when: dict[int, int] = {}
    calls = 0
    for sym in order:
        r = rules[sym]
        when[sym] = calls
        if r.kind == "h" or r.kind == "v":
            kids[sym] = xy = (r.left, r.right) if r.kind == "h" else (r.top, r.bottom)
            for c in xy:
                parents[c] += 1
            if r.kind == "h":
                calls += geo.heights[sym]
        elif r.kind == "term":
            calls += 1
        else:
            raise ParameterError("linearization is defined for plain grammars only")
        levels.setdefault(D[sym], []).append(sym)
    # Per symbol: left, right, width, depth, first call; n rows in use.
    cols = np.empty((1024, 5), dtype=np.int64)
    n = 0
    # The packed row pairs made so far, sorted, and their symbols, ending in
    # a sentinel; a character -> its terminal.
    pair_keys = np.array([np.iinfo(np.int64).max])
    pair_ids = np.array([-1])
    terms: dict[str, int] = {}
    rows: dict[int, np.ndarray] = {}
    for d in sorted(levels):
        hs = []
        for sym in levels[d]:
            r = rules[sym]
            if r.kind == "h":
                hs.append(sym)
            elif r.kind == "v":
                x, y = kids[sym]
                rows[sym] = np.concatenate((rows[x], rows[y]))
            else:
                t = terms.get(r.char)
                if t is None:
                    cols = _room(cols, n + 1)
                    t = terms[r.char] = n
                    cols[t] = (-1, -1, 1, 1, when[sym])
                    n += 1
                rows[sym] = np.array([t], dtype=np.int64)
        if hs:
            _check_pair_bits(n)
            firsts = np.concatenate([rows[kids[z][0]] for z in hs])
            keys = firsts << PAIR_BITS | np.concatenate([rows[kids[z][1]] for z in hs])
            heights = np.array([geo.heights[z] for z in hs])
            starts = heights.cumsum() - heights
            # The call that pairs row i of z is when[z] + i, so the calls
            # rise along ``keys``.
            moment = (np.array([when[z] for z in hs]) - starts).repeat(heights)
            moment += np.arange(len(keys))
            # The distinct keys, each at its first occurrence, so its first
            # call: a stable sort keeps equal keys in order.
            by_key = keys.argsort(kind="stable")
            keys = keys[by_key]
            head = np.empty(len(keys), dtype=bool)
            head[0] = True
            np.not_equal(keys[1:], keys[:-1], out=head[1:])
            uniq, moment = keys[head], moment[by_key[head]]
            # The sentinel key is above every pair, so ``at`` stays in range.
            at = pair_keys.searchsorted(uniq)
            ids = pair_ids[at]
            new = pair_keys[at] != uniq
            fresh = uniq[new]
            k = len(fresh)
            ids[new] = np.arange(n, n + k)
            # Merge the fresh pairs in: one copy of the index.
            dest = at[new] + np.arange(k)
            rest = np.ones(len(pair_keys) + k, dtype=bool)
            rest[dest] = False
            merged_keys, merged_ids = np.empty((2, len(rest)), dtype=np.int64)
            merged_keys[dest], merged_ids[dest] = fresh, ids[new]
            merged_keys[rest], merged_ids[rest] = pair_keys, pair_ids
            pair_keys, pair_ids = merged_keys, merged_ids
            cols = _room(cols, n + k)
            fl, fr = fresh >> PAIR_BITS, fresh & ((1 << PAIR_BITS) - 1)
            block = cols[n:n + k]
            block[:, 0], block[:, 1] = fl, fr
            block[:, 2] = cols[fl, 2] + cols[fr, 2]
            block[:, 3] = np.maximum(cols[fl, 3], cols[fr, 3]) + 1
            block[:, 4] = moment[new]
            # A pair met again keeps its earliest call.
            cols[ids, 4] = np.minimum(cols[ids, 4], moment)
            n += k
            flat = np.empty(len(keys), dtype=np.int64)
            flat[by_key] = ids[head.cumsum() - 1]
            for z, i, h in zip(hs, starts.tolist(), heights.tolist()):
                rows[z] = flat[i:i + h]
        # Drop a child's array once its last parent has read it, so the live
        # arrays stay near the output's size (a tall vertical chain would
        # otherwise hold N(N+1)/2 ids).
        for sym in levels[d]:
            for c in kids.get(sym, ()):
                parents[c] -= 1
                if not parents[c]:
                    del rows[c]

    # Renumber in call order.
    cols = cols[:n]
    perm = np.argsort(cols[:, 4])
    rank = np.empty(n, dtype=np.int64)
    rank[perm] = np.arange(n)
    cols = cols[perm]
    inner = cols[:, 0] >= 0
    cols[inner, :2] = rank[cols[inner, :2]]
    keep = _keep(cols[:, 3], cols[:, 2]).tolist()
    left, right, widths, _, _ = cols.T.tolist()
    op = ["H"] * n
    for c, t in terms.items():
        op[rank[t]] = c
    return _Dag(left, right, op, widths, keep), rank[rows[g.start]].tolist()


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
