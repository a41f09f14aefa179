"""Materializing derived matrices.

Matrices are numpy arrays of dtype ``'<U1'`` (one Unicode scalar per cell,
row-major), which is exactly the height/width/payload contract the rest of the
package assumes; ``matrix_to_text`` writes the text form the CLI prints
(one row per line, characters unseparated).

Expansion is one depth-first walk that paints the output and, as it goes,
caches the block of every symbol small enough to be worth caching; a cached
symbol met again is one copy of its block, so repeated substructure (which is
the whole point of grammar compression) costs one copy per occurrence instead
of one descent per cell.
The walk follows the geometry table's child placements (see
:func:`gridslp.grammar.layout`) rather than the productions: a block is its
two children side by side, or an argument pasted over its context's hole.

Where the output has many cells per grammar symbol and its small symbols
share few layouts (a hash-consed quadtree), the blocks of every symbol below
a threshold area are first built bottom-up in numpy, one group of symbols
with the same depth and layout at a time, and the walk pastes them where it
would descend to terminals.  The threshold is the largest area whose blocks
together hold at most the output's cells, so the blocks never outweigh it.

Context symbols materialize with the hole filled by a marker character.
Every hole inside the symbol expanded is filled by an argument, except its
own, so the walk paints no hole and the marker goes on that one at the end.
"""

from __future__ import annotations

import os

import numpy as np

from .grammar import (
    AreaLimitExceeded,
    GeometryTable,
    Grammar2D,
    ParameterError,
    _table,
)

#: Default ceiling on materialized cells (2**26 ~= 67M cells).
DEFAULT_MAX_CELLS = 1 << 26

#: Symbols at most this many cells get a cached block during the walk.
_MEMO_CELLS = 1 << 15

# The rule that decides whether expansion builds its small blocks in
# batches (``_build``), timed on one core of a shared 2-core Xeon host
# (CPython 3.11, numpy 2.4).  The output must hold at least
# _CELLS_PER_SYMBOL cells per grammar symbol, or most built blocks go
# unused: built, random_grammar(1, 2000, max_dim=256) (3.3 cells per
# symbol) took 5.2 ms against 0.6 ms walked, while the quadtree of the
# 128^2 corner of the quadtree-build matrix (14.7) took 1.5 ms against 2.7.
# Each group costs about ten numpy calls, so the small symbols must also
# average _SYMBOLS_PER_LAYOUT per (depth, layout) group: built, the 256^2
# spiral (199 small symbols in 196 groups) took 1.8 ms against 0.76 ms
# walked, while the tests' 64^2 glyph quadtree (59 in 6) took 0.31 ms
# against 0.57 and the 1024^2 quadtree-build input (5,406 in 9) 9.0 ms
# against 18.9 (the benchmark's expand_s medians).
_CELLS_PER_SYMBOL = 8
_SYMBOLS_PER_LAYOUT = 8


def max_cells_default() -> int:
    """The configured expansion ceiling (``GRIDSLP_MAX_CELLS`` overrides)."""
    env = os.environ.get("GRIDSLP_MAX_CELLS")
    if env:
        try:
            return int(env)
        except ValueError:
            raise AreaLimitExceeded(f"GRIDSLP_MAX_CELLS is not an integer: {env!r}")
    return DEFAULT_MAX_CELLS


def matrix_to_text(m: np.ndarray) -> str:
    """Render a matrix as one line per row, characters unseparated."""
    return "\n".join("".join(row) for row in m)


def _build(geo: GeometryTable, sym: int, cells: int):
    """The blocks of the small symbols the walk from ``sym`` meets, as a
    ``{symbol: block}`` memo of character-code arrays, and the set of larger
    symbols the walk should cache; None where the input does not batch.

    Small symbols are those below the largest area whose blocks together
    hold at most ``cells`` cells.  They are grouped by depth and layout (the
    symbol's shape, box 1's shape and offset, and whether the second child
    is a hole, beside box 1 or the context under it) and built in depth
    order into one ``(n, h, w)`` array per shape: each group is one gather
    per child into a run of rows of its shape's array.  A context's block
    leaves its hole unset.  Larger symbols are walked, and only those
    referenced twice or more are worth caching.
    """
    n = len(geo.entries)
    if cells < _CELLS_PER_SYMBOL * n:
        return None
    (C1, X1, Y1, C2, DX2, DY2), (H, W, D), _ = geo.columns
    area = H * W
    defined = D > 0
    sizes = np.sort(area[defined])
    k = int(np.searchsorted(np.cumsum(sizes), cells, "right"))
    small = defined if k == sizes.size else defined & (area < sizes[k])
    ids = np.flatnonzero(small)
    if ids.size == 0:
        return None
    # A symbol's layout key packs, most significant first, its shape, depth,
    # box 1's shape and offset, and whether its second child is a hole (0),
    # beside box 1 (1) or the context under it (2).  A terminal is its own
    # box 1; it alone has a 1x1 frame, so shape 0 holds the terminals.  An
    # input whose keys might not fit in int64 is walked instead.
    A, depths = int(sizes[k - 1]) + 1, int(D.max()) + 1
    if max(A, ids.size * ids.size * depths * 3) * A >= 1 << 63:
        return None
    h, w = H[ids], W[ids]
    wide = int(w.max()) + 1
    shapes, shape = np.unique(h * wide + w, return_inverse=True)
    if ids.size < _SYMBOLS_PER_LAYOUT * len(shapes):  # groups >= shapes
        return None
    SHAPE = np.full(n, -1)
    SHAPE[ids] = shape
    c1 = np.where(C1[ids] < 0, ids, C1[ids])
    c2 = C2[ids]
    kind = (c2 >= 0) + ((c2 >= 0) & (H[c2] == h) & (W[c2] == w))
    S = len(shapes)
    offset = X1[ids] * w + Y1[ids]
    key = (((shape * depths + D[ids]) * S + SHAPE[c1]) * A + offset) * 3 + kind
    order = np.argsort(key)
    key = key[order]
    ends = np.append(np.flatnonzero(key[1:] != key[:-1]) + 1, ids.size)
    if ids.size < _SYMBOLS_PER_LAYOUT * ends.size:
        return None

    # Each shape's members are one run of ``order``: its array's rows.
    members, shape = ids[order], shape[order]
    counts = np.bincount(shape)
    row = np.arange(ids.size) - (np.cumsum(counts) - counts)[shape]
    ROW = np.zeros(n, dtype=np.int64)
    ROW[members] = row
    E = geo.entries
    codes = [ord(E[s]) for s in members[: counts[0]].tolist()]
    dtype = np.uint8 if max(codes) < 256 else np.uint32
    stores = [np.empty((c, hw // wide, hw % wide), dtype=dtype)
              for c, hw in zip(counts.tolist(), shapes.tolist())]
    starts = ends - np.diff(ends, prepend=0)
    groups = sorted(zip(D[members[starts]].tolist(), starts.tolist(), ends.tolist(),
                        shape[starts].tolist(), kind[order][starts].tolist()))
    # Depth order builds every child before its parents.
    for d, lo, hi, j, kd in groups:
        out = stores[j][row[lo] : row[lo] + hi - lo]
        m = members[lo:hi]
        if d == 1:
            out[:, 0, 0] = codes
            continue
        if kd:
            b = C2[m]
            blocks = stores[SHAPE[b[0]]][ROW[b]]
            dx, dy = DX2[m[0]], DY2[m[0]]
            out[:, dx : dx + blocks.shape[1], dy : dy + blocks.shape[2]] = blocks
        a = C1[m]
        x, y = X1[m[0]], Y1[m[0]]
        blocks = stores[SHAPE[a[0]]][ROW[a]]
        out[:, x : x + blocks.shape[1], y : y + blocks.shape[2]] = blocks

    # The walk meets the small children of larger symbols, and ``sym``.
    big = defined & ~small
    kids = np.concatenate([C1[big], C2[big]])
    met = np.zeros(n, dtype=bool)
    met[kids[kids >= 0]] = True
    met[sym] = True
    met = np.flatnonzero(met & small)
    memo = {s: stores[j][i] for s, j, i in
            zip(met.tolist(), SHAPE[met].tolist(), ROW[met].tolist())}
    kids = np.concatenate([C1[defined], C2[defined]])
    refs = np.bincount(kids[kids >= 0], minlength=n)
    cache = set(np.flatnonzero(big & (refs >= 2) & (area <= _MEMO_CELLS)).tolist())
    return memo, cache


def expand(
    g: Grammar2D,
    sym: int | None = None,
    *,
    max_cells: int | None = None,
    hole_marker: str = "#",
    geo: GeometryTable | None = None,
) -> np.ndarray:
    """Materialize the matrix derived by ``sym`` (default: the start symbol).

    Context symbols yield their frame with hole cells holding ``hole_marker``.
    Raises :class:`ParameterError` for a ``sym`` out of range or undefined
    or a ``hole_marker`` that is not one character, and
    :class:`AreaLimitExceeded` if the result would exceed ``max_cells``.
    One stack walk paints the result and caches the blocks of symbols of at
    most ``_MEMO_CELLS`` cells as their last cell is painted.  Where the
    input batches (see ``_build``), the blocks of its small symbols are built
    first in numpy, the walk pastes them and caches only shared symbols.
    """
    geo = _table(g, geo)
    H, W, HOLES, E = geo.heights, geo.widths, geo.holes, geo.entries
    if sym is None:
        sym = g.start
    if not 0 <= sym < len(E) or E[sym] is None:
        raise ParameterError(f"symbol {sym} is out of range or undefined")
    if not isinstance(hole_marker, str) or len(hole_marker) != 1:
        raise ParameterError(f"hole marker must be one character, got {hole_marker!r}")
    if max_cells is None:
        max_cells = max_cells_default()

    h, w = H[sym], W[sym]
    if h * w > max_cells:
        raise AreaLimitExceeded(
            f"{h}x{w} = {h * w} cells exceeds the limit of {max_cells}"
        )

    built = _build(geo, sym, h * w)
    if built is None:
        out = buf = np.empty((h, w), dtype="<U1")
        memo, cache = {}, None
    else:
        # Built blocks hold character codes; the walk never meets a terminal.
        memo, cache = built
        out = np.empty((h, w), dtype=np.uint32)
        buf = out.view("<U1")

    # Box 1 is pushed before the second child, so an argument is painted
    # after its context, over the hole, whatever the hole held then.  The
    # one hole no argument fills is ``sym``'s own, which gets the marker
    # last.  A cacheable symbol pushes its finish marker ~s below its
    # children and is cached when that pops.  Only hole cells are painted
    # over, and what a block's hole holds never shows, so every block is
    # cached as a view and copied out when met again: a compact copy pastes
    # about twice as fast.
    stack: list[tuple[int, int, int]] = [(sym, 0, 0)]
    while stack:
        s, ox, oy = stack.pop()
        if s < 0:
            s = ~s
            memo[s] = out[ox : ox + H[s], oy : oy + W[s]]
            continue
        block = memo.get(s)
        if block is not None:
            if block.base is out:
                memo[s] = block = block.copy()
            out[ox : ox + H[s], oy : oy + W[s]] = block
            continue
        e = E[s]
        if e.__class__ is str:
            out[ox, oy] = e
            continue
        if H[s] * W[s] <= _MEMO_CELLS if cache is None else s in cache:
            stack.append((~s, ox, oy))
        c1, x1, y1, _, _, c2, dx2, dy2 = e
        stack.append((c1, ox + x1, oy + y1))
        if c2 is not None:
            stack.append((c2, ox + dx2, oy + dy2))
    if HOLES[sym] is not None:
        p, q, hr, hc = HOLES[sym]
        buf[hr - 1 : hr - 1 + p, hc - 1 : hc - 1 + q] = hole_marker
    return buf
