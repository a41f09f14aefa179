"""Accelerated random access: K-level unwinding plus per-rule grids.

Plain traversal visits one production per derivation level.  Here a rule
is unwound K levels ahead of time, so its expansion splits into at most 2^K
regions — rectangles for ground descendants, frames (a rectangle minus its
hole) for context descendants.  The unwinding follows the geometry table's
child placements (see :func:`gridslp.grammar.layout`), so it knows no
production kind.  Cutting the bounding box along every region
side yields a small grid; two predecessor lookups then jump straight to the
region owning a cell, descending K levels per visit instead of one.

Only the symbols a descent can reach get a grid: the start symbol and the
frontier symbols named by some grid cell.  Symbols the unwinding skips
over, a few levels inside some frontier symbol, are never landed on.

The predecessor structure is deliberately a thin wrapper over a sorted array
(the theoretical alternative is a word-RAM device with the same interface);
it is kept behind a tiny class so something cleverer can be swapped in.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .geometry import GeometryTable, compute_geometry
from .grammar import (
    Grammar2D,
    InternalHoleHit,
    OutOfBounds,
    ParameterError,
    Tslp2D,
)


@dataclass(frozen=True)
class PredecessorSet:
    """Sorted distinct keys answering 'largest key ≤ x' queries."""

    keys: tuple[int, ...]

    def pred(self, x: int) -> int | None:
        i = bisect_right(self.keys, x)
        return self.keys[i - 1] if i else None

    def rank(self, x: int) -> int:
        """Index of the predecessor key (-1 when every key exceeds x)."""
        return bisect_right(self.keys, x) - 1

    def __len__(self) -> int:
        return len(self.keys)


@dataclass(frozen=True)
class FastParams:
    """Unwinding parameters derived from ε and the expansion area."""

    epsilon: float
    levels: int
    b_bound: int
    area: int

    @classmethod
    def from_area(cls, area: int, epsilon: float) -> "FastParams":
        if epsilon <= 0:
            raise ParameterError(f"epsilon must be positive, got {epsilon}")
        if area <= 2:
            k = 1
        else:
            k = max(1, math.floor((epsilon / 3.0) * math.log2(math.log2(area))))
        return cls(epsilon=epsilon, levels=k, b_bound=1 << k, area=area)


#: One region of an unwound symbol, 1-based and inclusive inside its box:
#: (cell value, x1, y1, x2, y2, hole), where hole is None or the
#: (hx1, hy1, hx2, hy2) a frame leaves out.
Region = tuple


@dataclass(frozen=True)
class RuleGrid:
    """Cut lines and the cell → frontier table for one unwound rule.

    Cell values: ("T", char) resolves inline, (symbol, dx, dy) descends with
    local coordinates (x - dx, y - dy), and None marks the owner's own hole.
    """

    xs: PredecessorSet
    ys: PredecessorSet
    cells: tuple[tuple, ...]


@dataclass(frozen=True)
class FastAccessIndex:
    """Immutable query structure: one grid per symbol a descent can land on."""

    grammar: Grammar2D
    params: FastParams
    geo: GeometryTable
    grids: dict[int, RuleGrid]

    @property
    def total_cells(self) -> int:
        return sum(len(g.cells) * len(g.cells[0]) for g in self.grids.values())


def _unwind(
    sym: int, geo: GeometryTable, k: int, terminals: dict | None = None
) -> tuple[list[Region], set[int], set[int]]:
    """Truncate sym's derivation k levels down into a region tiling.

    Returns the regions and the row and column cut lines along every region
    side, frame hole and the owner's own hole.  The regions tile the box
    minus the owner's hole disjointly: a frame covers its box minus its hole,
    which a sibling plug branch covers.  Follows the geometry table's
    entries: each child's box is its offset in the parent plus its own frame,
    and a context child's frame has its own hole (from ``geo.holes``)
    translated by the same offset.  A bare hole (an entry without a second
    child) is either the owner's hole or a region some sibling plug branch
    already covers, so only box 1 recurses.  ``terminals`` interns the
    ("T", char) cell values.
    """
    E, H, W, HOLES = geo.entries, geo.heights, geo.widths, geo.holes
    if terminals is None:
        terminals = {}
    xs = {1, H[sym] + 1}
    ys = {1, W[sym] + 1}
    hole = HOLES[sym]
    if hole is not None:
        p, q, hr, hc = hole
        xs.update((hr, hr + p))
        ys.update((hc, hc + q))
    regions: list[Region] = []
    stack = [(sym, 0, 0, 0)]
    while stack:
        # s's frame sits at offset (ox, oy) inside the owner's box.
        s, ox, oy, level = stack.pop()
        e = E[s]
        if e.__class__ is str:
            x, y = ox + 1, oy + 1
            regions.append((terminals.setdefault(e, ("T", e)), x, y, x, y, None))
            xs.update((x, x + 1))
            ys.update((y, y + 1))
        elif level == k:
            x2, y2 = ox + H[s], oy + W[s]
            xs.update((ox + 1, x2 + 1))
            ys.update((oy + 1, y2 + 1))
            hole = HOLES[s]
            if hole is not None:
                p, q, hr, hc = hole
                hole = (ox + hr, oy + hc, ox + hr + p - 1, oy + hc + q - 1)
                xs.update((ox + hr, ox + hr + p))
                ys.update((oy + hc, oy + hc + q))
            regions.append(((s, ox, oy), ox + 1, oy + 1, x2, y2, hole))
        else:
            c1, x1, y1, _, _, c2, dx2, dy2 = e
            if c2 is not None:
                stack.append((c2, ox + dx2, oy + dy2, level + 1))
            stack.append((c1, ox + x1, oy + y1, level + 1))
    return regions, xs, ys


def _build_grid(regions: list[Region], xs: set[int], ys: set[int]) -> RuleGrid:
    """Cut along every line and paint each region's cells once.

    The regions are disjoint, so painting order does not matter, and cells
    no region covers (the owner's hole) stay None.
    """
    xlines = sorted(xs)
    ylines = sorted(ys)
    xi = {v: i for i, v in enumerate(xlines)}
    yi = {v: j for j, v in enumerate(ylines)}
    cols = len(ylines) - 1
    cells = [[None] * cols for _ in range(len(xlines) - 1)]
    for value, x1, y1, x2, y2, hole in regions:
        i1, i2 = xi[x1], xi[x2 + 1]
        j1, j2 = yi[y1], yi[y2 + 1]
        run = [value] * (j2 - j1)
        if hole is None:
            for row in cells[i1:i2]:
                row[j1:j2] = run
            continue
        hx1, hy1, hx2, hy2 = hole
        h1, h2 = xi[hx1], xi[hx2 + 1]
        b1, b2 = yi[hy1], yi[hy2 + 1]
        for i in range(i1, i2):
            row = cells[i]
            if h1 <= i < h2:
                row[j1:b1] = run[: b1 - j1]
                row[b2:j2] = run[: j2 - b2]
            else:
                row[j1:j2] = run
    return RuleGrid(
        xs=PredecessorSet(tuple(xlines)),
        ys=PredecessorSet(tuple(ylines)),
        cells=tuple(map(tuple, cells)),
    )


def build_fast(
    t: Grammar2D | Tslp2D, epsilon: float = 3.0, geo: GeometryTable | None = None
) -> FastAccessIndex:
    """Index the symbols a descent can land on for K-level-at-a-time descent.

    Those are the start symbol and every symbol some grid cell names: a
    worklist from the start unwinds each symbol once and queues the
    frontier symbols it meets.
    """
    if geo is None:
        geo = compute_geometry(t)
    area = geo.heights[t.start] * geo.widths[t.start]
    params = FastParams.from_area(area, epsilon)
    k = params.levels
    terminals: dict[str, tuple] = {}
    grids: dict[int, RuleGrid] = {}
    todo = [t.start]
    while todo:
        sym = todo.pop()
        if sym in grids:
            continue
        regions, xs, ys = _unwind(sym, geo, k, terminals)
        grids[sym] = _build_grid(regions, xs, ys)
        for region in regions:
            s = region[0][0]
            if s != "T" and s not in grids:
                todo.append(s)
    return FastAccessIndex(grammar=t, params=params, geo=geo, grids=grids)


def access_fast(idx: FastAccessIndex, x: int, y: int) -> tuple[str, int]:
    """The character at (x, y), descending ≥ K derivation levels per visit."""
    geo = idx.geo
    start = idx.grammar.start
    h, w = geo.heights[start], geo.widths[start]
    if not (1 <= x <= h and 1 <= y <= w):
        raise OutOfBounds(f"position ({x},{y}) outside {h}x{w} expansion")
    grids = idx.grids
    sym = start
    visits = 0
    while True:
        grid = grids[sym]
        visits += 1
        cell = grid.cells[grid.xs.rank(x)][grid.ys.rank(y)]
        if cell is None:
            raise InternalHoleHit(
                f"position maps into the hole of symbol {idx.grammar.label(sym)}"
            )
        if cell[0] == "T":
            return cell[1], visits
        sym, dx, dy = cell
        x -= dx
        y -= dy
