"""Materializing derived matrices.

Matrices are numpy arrays of dtype ``'<U1'`` (one Unicode scalar per cell,
row-major), which is exactly the height/width/payload contract the rest of the
package assumes; helpers convert to and from the text form used by the CLI
(one row per line, characters unseparated).

Expansion works bottom-up: every reachable symbol small enough to be worth
caching is materialized once, larger symbols are filled by blitting the cached
blocks, so repeated substructure (which is the whole point of grammar
compression) costs one copy per occurrence instead of one descent per cell.
Context symbols materialize with the hole filled by a marker character.
Both passes follow the geometry table's child placements (see
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
    compute_geometry,
    reachable_topo,
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


def matrix_from_text(text: str) -> np.ndarray:
    """Parse the row-per-line form; lines must have equal length."""
    lines = text.splitlines()
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("empty matrix text")
    width = len(lines[0])
    if any(len(line) != width for line in lines):
        raise ValueError("ragged matrix text")
    out = np.empty((len(lines), width), dtype="<U1")
    for i, line in enumerate(lines):
        out[i, :] = list(line)
    return out


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
    Raises :class:`AreaLimitExceeded` if the result (or the area bookkeeping
    for it) would exceed ``max_cells``.
    """
    if sym is None:
        sym = g.start
    if geo is None:
        geo = compute_geometry(g)
    if max_cells is None:
        max_cells = max_cells_default()

    H, W, HOLES, E = geo.heights, geo.widths, geo.holes, geo.entries
    h, w = H[sym], W[sym]
    if h * w > max_cells:
        raise AreaLimitExceeded(
            f"{h}x{w} = {h * w} cells exceeds the limit of {max_cells}"
        )

    # Pass 1: cache small reachable symbols bottom-up.  A cached entry holds
    # the fully materialized block (hole cells already marked for contexts).
    memo: dict[int, np.ndarray] = {}
    for s in reachable_topo(g.rules, sym):
        if H[s] * W[s] > _MEMO_CELLS:
            continue
        e = E[s]
        if e.__class__ is str:
            memo[s] = np.full((1, 1), e, dtype="<U1")
            continue
        c1, x1, y1, x2, y2, c2, _, _ = e
        one = memo[c1]
        if c2 is None:
            two = np.full(HOLES[s][:2], hole_marker, dtype="<U1")
        else:
            two = memo[c2]
        if two.shape == (H[s], W[s]):
            # c2 spans the frame (apply, compose): box 1 overwrites its hole.
            block = two.copy()
            block[x1:x2, y1:y2] = one
        else:
            # The two boxes sit side by side, box 1 first iff it is at (0, 0).
            pair = (one, two) if x1 == 0 and y1 == 0 else (two, one)
            block = np.concatenate(pair, axis=1 if x2 - x1 == H[s] else 0)
        memo[s] = block

    # Pass 2: fill the output buffer, descending only through uncached symbols.
    # Box 1 goes deeper in the LIFO stack than the second child, so everything
    # the second child pushes is painted first: an argument plugged at an
    # apply or compose overwrites the hole marker its context paints.
    buf = np.empty((h, w), dtype="<U1")
    stack: list[tuple[int, int, int]] = [(sym, 0, 0)]
    while stack:
        s, ox, oy = stack.pop()
        block = memo.get(s)
        if block is not None:
            bh, bw = block.shape
            buf[ox : ox + bh, oy : oy + bw] = block
            continue
        # Terminals are always cached, so this is a two-box entry.
        c1, x1, y1, _, _, c2, dx2, dy2 = E[s]
        stack.append((c1, ox + x1, oy + y1))
        if c2 is None:
            p, q, hr, hc = HOLES[s]
            buf[ox + hr - 1 : ox + hr - 1 + p, oy + hc - 1 : oy + hc - 1 + q] = hole_marker
        else:
            stack.append((c2, ox + dx2, oy + dy2))
    return buf
