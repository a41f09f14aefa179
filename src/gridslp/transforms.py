"""Structure-preserving transforms on plain grammars.

The workhorses here rearrange derivations without ever materializing the
matrix: balanced concatenation gadgets, clockwise rotation by production
rewriting, margin extraction, substring decomposition inside 1D grammars, row
linearization of a 2D grammar, and the full rebalancing pipeline that chains
them (linearize, balance the 1D string, reassemble rows with gadgets).
"""

from __future__ import annotations

from dataclasses import dataclass

from .grammar import (
    Grammar1D,
    Grammar2D,
    GrammarBuilder,
    HConcat,
    OutOfBounds,
    PLAIN_KINDS,
    ParameterError,
    VConcat,
    reachable_topo,
)
from .geometry import GeometryTable, compute_geometry


def concat_gadget(
    g: Grammar2D, parts: list[int], axis: str
) -> tuple[Grammar2D, int]:
    """Extend ``g`` with a balanced binary tree concatenating ``parts``.

    Adds at most ``len(parts) - 1`` new symbols (hash-consed, so repeated
    subtrees are shared) and increases depth over the parts by at most
    ceil(log2 k).  Returns the extended grammar and the tree's root.
    """
    b = GrammarBuilder.seeded(g)
    root = b.balanced(axis, list(parts))
    return b.finish(root), root


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


@dataclass(frozen=True)
class SubstringDecomposition:
    """Symbols whose expansions concatenate to one substring of a 1D string."""

    symbols: tuple[int, ...]
    source_range: tuple[int, int]


def decompose_substring(
    g: Grammar1D, i: int, j: int, geo: GeometryTable | None = None
) -> SubstringDecomposition:
    """Cover S[i..j] by at most 2·depth + 2 whole-symbol expansions.

    One walk from the start symbol: a symbol whose expansion lies inside the
    range is taken whole, and any other has its children that overlap the
    range visited, left before right.  So the cover is the range's maximal
    symbols in order: below the lowest symbol containing the range, a suffix
    of its left child and a prefix of its right child, each at most one
    symbol per level.
    """
    if geo is None:
        geo = compute_geometry(g)
    length = geo.widths[g.start]
    if not (1 <= i <= j <= length):
        raise OutOfBounds(f"range [{i},{j}] outside string of length {length}")
    return SubstringDecomposition(
        tuple(_cover(g.rules, geo.widths, g.start, i, j)), (i, j))


def _cover(rules, W, start: int, i: int, j: int) -> list[int]:
    """``decompose_substring``'s walk below ``start``, over bare rules and
    widths, for an in-range ``i..j``."""
    cover: list[int] = []
    # (symbol, offset): the symbol derives S[offset + 1 .. offset + width].
    stack = [(start, 0)]
    while stack:
        sym, off = stack.pop()
        if i <= off + 1 and off + W[sym] <= j:
            cover.append(sym)
            continue
        r = rules[sym]
        mid = off + W[r.left]
        if j > mid:
            stack.append((r.right, mid))
        if i <= mid:
            stack.append((r.left, off))
    return cover


def linearize_rows(g: Grammar2D, geo: GeometryTable | None = None) -> Grammar1D:
    """A 1D grammar deriving the row-major flattening of exp(g).

    Every reachable symbol gets the list of its row strings, bottom-up: a
    terminal is its own row, a vertical concat lists its top child's rows
    then its bottom child's, and a horizontal concat joins its children's
    rows pairwise.  So only terminals and horizontal concats materialize (at
    most one symbol per row of each input symbol).  The lists hold as many
    ids in all as the reachable symbols have rows, at most |g|·N, but each is
    dropped once its last parent has read it.  The start symbol's N row
    strings are then joined with a balanced gadget.
    """
    if geo is None:
        geo = compute_geometry(g)
    b = GrammarBuilder(dedup=True)
    return b.finish(_linearize(b, g, geo))


def _linearize(b: GrammarBuilder, g: Grammar2D, geo: GeometryTable) -> int:
    """Add ``linearize_rows(g)``'s symbols to ``b``; returns its root."""
    N, M = geo.dims(g.start)
    if N * M > (1 << 62):
        raise OverflowError(f"flattened length {N}*{M} exceeds 2**62")
    rules = g.rules
    order = reachable_topo(rules, g.start)
    kids: dict[int, tuple[int, int]] = {}
    parents = dict.fromkeys(order, 0)
    for sym in order:
        r = rules[sym]
        if r.kind == "h" or r.kind == "v":
            kids[sym] = xy = (r.left, r.right) if r.kind == "h" else (r.top, r.bottom)
            for c in xy:
                parents[c] += 1
        elif r.kind != "term":
            raise ParameterError("linearization is defined for plain grammars only")
    h = b.h
    rows: dict[int, list[int]] = {}
    for sym in order:
        r = rules[sym]
        if r.kind == "term":
            rows[sym] = [b.terminal(r.char)]
            continue
        x, y = kids[sym]
        if r.kind == "v":
            rows[sym] = rows[x] + rows[y]
        else:
            rows[sym] = [h(a, c) for a, c in zip(rows[x], rows[y])]
        # Drop a child's list once its last parent has read it, so the live
        # lists stay near the output's size (a tall vertical chain would
        # otherwise hold N(N+1)/2 ids).
        for c in (x, y):
            parents[c] -= 1
            if not parents[c]:
                del rows[c]
    return b.balanced("H", rows[g.start])


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
    pipeline: flatten to one row-major string, balance that 1D grammar, cut
    it back into the N row substrings (each a short decomposition over the
    balanced grammar), and reassemble with balanced concatenation gadgets.
    If the pipeline's output is deeper than the input, or as deep and
    larger, the input comes back instead.  Requires N ≤ M — rotate first
    otherwise, or the size bound degrades.  Grammars with holes are
    ground-ified (contexts inlined) up front, and it is the inlined grammar
    that comes back in their place.
    """
    # Deferred: balance builds on this module.
    from .balance import _fold_1d, _inline_contexts, _shallow

    if any(r is not None and r.kind not in PLAIN_KINDS for r in g.rules):
        g, geo = _inline_contexts(g, geo)
    elif geo is None:
        geo = compute_geometry(g)
    N, M = geo.dims(g.start)
    if N > M:
        raise ParameterError(
            f"input is {N}x{M}; rebalancing expects N ≤ M (rotate_cw first)"
        )
    size, depth = g.size, geo.depths[g.start]
    unchanged = g, RebalanceStats(N, M, size, depth, size, depth)
    if _shallow(depth, N * M):
        return unchanged
    # The row chains go into the builder holding the balanced string, so
    # its geometry carries over and only the chains are new.  A string
    # already shallow enough stays in the builder that linearized it.
    b = GrammarBuilder(dedup=True)
    root = _linearize(b, g, geo)
    bal_geo = b.geometry()
    folded = _fold_1d(b.rules, root, bal_geo)
    if folded is not None:
        b, root = folded
        bal_geo = b.geometry()
    rules, W = b.rules, bal_geo.widths
    rows = [b.balanced("H", _cover(rules, W, root, (r - 1) * M + 1, r * M))
            for r in range(1, N + 1)]
    root = b.balanced("V", rows)
    out_depth = b.depth(root)
    if out_depth <= depth:
        out = b.finish(root)
        if out_depth < depth or out.size <= size:
            return out, RebalanceStats(N, M, size, depth, out.size, out_depth)
    return unchanged
