"""Accelerated random access: K-level unwinding plus per-rule grids.

Plain traversal visits one production per derivation level.  Here every rule
is unwound K levels ahead of time, so its expansion splits into at most 2^K
regions — rectangles for ground descendants, frames (a rectangle minus its
hole) for context descendants.  The unwinding follows the geometry table's
child placements (see :func:`gridslp.grammar.layout`), so it knows no
production kind.  Cutting the bounding box along every region
side yields a small grid; two predecessor lookups then jump straight to the
region owning a cell, descending K levels per visit instead of one.

The predecessor structure is deliberately a thin wrapper over a sorted array
(the theoretical alternative is a word-RAM device with the same interface);
it is kept behind a tiny class so something cleverer can be swapped in.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .geometry import GeometryTable, compute_geometry
from .grammar import (
    Grammar2D,
    InternalHoleHit,
    OutOfBounds,
    ParameterError,
    Tslp2D,
    reachable_topo,
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


#: Region shapes inside an unwound rule's bounding box (1-based, inclusive).
#: ("rect", x1, y1, x2, y2) or ("frame", x1, y1, x2, y2, hx1, hy1, hx2, hy2).
Region = tuple


@dataclass(frozen=True)
class FrontierEntry:
    """One K-level descendant: where it sits and how coordinates shift."""

    symbol: int | None  # None for a terminal resolved during unwinding
    char: str | None
    region: Region


@dataclass(frozen=True)
class UnwoundRule:
    """The ≤ 2^K regions tiling one symbol's expansion."""

    owner: int
    frontier: tuple[FrontierEntry, ...]
    hole_region: tuple[int, int, int, int] | None


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
    """Immutable query structure: one grid per reachable symbol."""

    grammar: Grammar2D
    params: FastParams
    geo: GeometryTable
    rules: dict[int, UnwoundRule]
    grids: dict[int, RuleGrid]
    cell_counts: dict[int, int] = field(repr=False, default_factory=dict)

    @property
    def total_cells(self) -> int:
        return sum(self.cell_counts.values())


def _hole_rect(hole, ox: int, oy: int) -> tuple[int, int, int, int]:
    """A (hole_h, hole_w, row, col) hole as an inclusive rectangle, shifted."""
    p, q, hr, hc = hole
    return (ox + hr, oy + hc, ox + hr + p - 1, oy + hc + q - 1)


def _unwind(sym: int, geo: GeometryTable, k: int) -> UnwoundRule:
    """Truncate sym's derivation k levels down into a region tiling.

    Follows the geometry table's entries: each child's box is its offset in
    the parent plus its own frame, and a context child's frame has its own
    hole (from ``geo.holes``) translated by the same offset.  A bare hole
    (an entry without a second child) is either the owner's hole or a region
    some sibling plug branch already covers, so only box 1 recurses.
    """
    E, H, W, HOLES = geo.entries, geo.heights, geo.widths, geo.holes
    entries: list[FrontierEntry] = []

    def walk(s: int, ox: int, oy: int, level: int) -> None:
        # s's frame sits at offset (ox, oy) inside the owner's box.
        e = E[s]
        if e.__class__ is str:
            entries.append(FrontierEntry(None, e, ("rect", ox + 1, oy + 1, ox + 1, oy + 1)))
            return
        if level == k:
            box = (ox + 1, oy + 1, ox + H[s], oy + W[s])
            hole = HOLES[s]
            if hole is None:
                region: Region = ("rect", *box)
            else:
                region = ("frame", *box, *_hole_rect(hole, ox, oy))
            entries.append(FrontierEntry(s, None, region))
            return
        c1, x1, y1, _, _, c2, dx2, dy2 = e
        walk(c1, ox + x1, oy + y1, level + 1)
        if c2 is not None:
            walk(c2, ox + dx2, oy + dy2, level + 1)

    walk(sym, 0, 0, 0)
    hole = HOLES[sym]
    owner_hole = None if hole is None else _hole_rect(hole, 0, 0)
    return UnwoundRule(owner=sym, frontier=tuple(entries), hole_region=owner_hole)


def _build_grid(rule: UnwoundRule, h: int, w: int) -> RuleGrid:
    """Cut along every region side and paint cells outermost-first."""
    xs = {1, h + 1}
    ys = {1, w + 1}
    for e in rule.frontier:
        x1, y1, x2, y2 = e.region[1:5]
        xs.update((x1, x2 + 1))
        ys.update((y1, y2 + 1))
        if e.region[0] == "frame":
            hx1, hy1, hx2, hy2 = e.region[5:]
            xs.update((hx1, hx2 + 1))
            ys.update((hy1, hy2 + 1))
    if rule.hole_region is not None:
        hx1, hy1, hx2, hy2 = rule.hole_region
        xs.update((hx1, hx2 + 1))
        ys.update((hy1, hy2 + 1))
    xlines = sorted(xs)
    ylines = sorted(ys)
    rows, cols = len(xlines) - 1, len(ylines) - 1
    cells = [[None] * cols for _ in range(rows)]

    def paint(box, value) -> None:
        x1, y1, x2, y2 = box
        for i in range(bisect_left(xlines, x1), bisect_left(xlines, x2 + 1)):
            row = cells[i]
            for j in range(bisect_left(ylines, y1), bisect_left(ylines, y2 + 1)):
                row[j] = value

    def area(e: FrontierEntry) -> int:
        x1, y1, x2, y2 = e.region[1:5]
        return (x2 - x1 + 1) * (y2 - y1 + 1)

    # Outer boxes first: nested pieces repaint the frame holes they tile.
    for e in sorted(rule.frontier, key=area, reverse=True):
        x1, y1, x2, y2 = e.region[1:5]
        if e.symbol is None:
            paint((x1, y1, x2, y2), ("T", e.char))
        else:
            paint((x1, y1, x2, y2), (e.symbol, x1 - 1, y1 - 1))
    if rule.hole_region is not None:
        paint(rule.hole_region, None)
    return RuleGrid(
        xs=PredecessorSet(tuple(xlines)),
        ys=PredecessorSet(tuple(ylines)),
        cells=tuple(tuple(row) for row in cells),
    )


def build_fast(
    t: Grammar2D | Tslp2D, epsilon: float = 3.0, geo: GeometryTable | None = None
) -> FastAccessIndex:
    """Index every reachable symbol for K-level-at-a-time descent."""
    if geo is None:
        geo = compute_geometry(t)
    area = geo.heights[t.start] * geo.widths[t.start]
    params = FastParams.from_area(area, epsilon)
    rules: dict[int, UnwoundRule] = {}
    grids: dict[int, RuleGrid] = {}
    counts: dict[int, int] = {}
    for sym in reachable_topo(t.rules, t.start):
        rule = _unwind(sym, geo, params.levels)
        grid = _build_grid(rule, geo.heights[sym], geo.widths[sym])
        rules[sym] = rule
        grids[sym] = grid
        counts[sym] = len(grid.cells) * (len(grid.cells[0]) if grid.cells else 0)
    return FastAccessIndex(
        grammar=t, params=params, geo=geo, rules=rules, grids=grids,
        cell_counts=counts,
    )


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
