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
Context symbols materialize with the hole filled by a marker character.
The walk follows the geometry table's child placements (see
:func:`gridslp.grammar.layout`) rather than the productions: a block is its
two children side by side, or an argument pasted over its context's hole.
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

#: Symbols at most this many cells get a cached block during expansion.
_MEMO_CELLS = 1 << 15


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
    Raises :class:`ParameterError` for a ``sym`` out of range or undefined,
    and :class:`AreaLimitExceeded` if the result would exceed ``max_cells``.
    One stack walk paints the result and caches the blocks of symbols of at
    most ``_MEMO_CELLS`` cells as their last cell is painted.
    """
    geo = _table(g, geo)
    H, W, HOLES, E = geo.heights, geo.widths, geo.holes, geo.entries
    if sym is None:
        sym = g.start
    if not 0 <= sym < len(E) or E[sym] is None:
        raise ParameterError(f"symbol {sym} is out of range or undefined")
    if max_cells is None:
        max_cells = max_cells_default()

    h, w = H[sym], W[sym]
    if h * w > max_cells:
        raise AreaLimitExceeded(
            f"{h}x{w} = {h * w} cells exceeds the limit of {max_cells}"
        )

    # A symbol of at most _MEMO_CELLS cells pushes its finish marker ~s below
    # its children and is cached when that pops.  Box 1 goes deeper than the
    # second child, so an argument plugged at an apply or compose overwrites
    # the hole marker its context paints after the context is cached.  Only
    # hole cells are painted over, so a ground block is cached as a view and
    # copied out when met again: a compact copy pastes about twice as fast.
    memo: dict[int, np.ndarray] = {}
    buf = np.empty((h, w), dtype="<U1")
    stack: list[tuple[int, int, int]] = [(sym, 0, 0)]
    while stack:
        s, ox, oy = stack.pop()
        if s < 0:
            s = ~s
            block = buf[ox : ox + H[s], oy : oy + W[s]]
            memo[s] = block if HOLES[s] is None else block.copy()
            continue
        block = memo.get(s)
        if block is not None:
            if block.base is buf:
                memo[s] = block = block.copy()
            buf[ox : ox + H[s], oy : oy + W[s]] = block
            continue
        e = E[s]
        if e.__class__ is str:
            buf[ox, oy] = e
            continue
        if H[s] * W[s] <= _MEMO_CELLS:
            stack.append((~s, ox, oy))
        c1, x1, y1, _, _, c2, dx2, dy2 = e
        stack.append((c1, ox + x1, oy + y1))
        if c2 is None:
            p, q, hr, hc = HOLES[s]
            buf[ox + hr - 1 : ox + hr - 1 + p, oy + hc - 1 : oy + hc - 1 + q] = hole_marker
        else:
            stack.append((c2, ox + dx2, oy + dy2))
    return buf
