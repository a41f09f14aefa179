"""Scalar references for the fast index: the per-symbol painter and a
predecessor set.

``reference_build`` is the index builder as one Python loop over landing
symbols: ``_unwind`` truncates a symbol's derivation into regions and
``_paint`` cuts its box and paints each region's cells.  ``build_fast``
must return the same grids, symbols and sizes; the tests compare the two.
``PredecessorSet`` is the 'largest key <= x' structure those grids stand in
for, checked against a linear scan.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from gridslp import FastParams, GeometryTable, Grammar2D, Tslp2D, compute_geometry
from gridslp.fastaccess import FastAccessIndex


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


#: One region of an unwound symbol, 1-based and inclusive inside its box:
#: (value, x1, y1, x2, y2, hole), where value is (symbol, dx, dy) or the
#: terminal cell (-1, char, 0), and hole is None or the (hx1, hy1, hx2, hy2)
#: a frame leaves out.
Region = tuple


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
    (-1, char, 0) cell values.
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
            regions.append((terminals.setdefault(e, (-1, e, 0)), x, y, x, y, None))
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


def _paint(
    regions: list[Region], xs: set[int], ys: set[int], ids: dict[int, int],
    order: list[int],
) -> tuple:
    """Cut along every line and paint each region's cells once, row-major.

    The regions are disjoint, so painting order does not matter, and cells
    no region covers (the owner's hole) stay None.  A frontier region's
    symbol becomes its grid id; the first cell to name a symbol numbers it
    and queues it on ``order``.
    """
    xlines = sorted(xs)
    ylines = sorted(ys)
    xi = {v: i for i, v in enumerate(xlines)}
    yi = {v: j for j, v in enumerate(ylines)}
    n = len(ylines) - 1
    cells = [None] * ((len(xlines) - 1) * n)
    for value, x1, y1, x2, y2, hole in regions:
        s = value[0]
        if s >= 0:
            gid = ids.get(s)
            if gid is None:
                gid = ids[s] = len(order)
                order.append(s)
            value = (gid, value[1], value[2])
        i1, i2 = xi[x1] * n, xi[x2 + 1] * n
        j1, j2 = yi[y1], yi[y2 + 1]
        run = [value] * (j2 - j1)
        if hole is None:
            for r in range(i1, i2, n):
                cells[r + j1 : r + j2] = run
            continue
        hx1, hy1, hx2, hy2 = hole
        h1, h2 = xi[hx1] * n, xi[hx2 + 1] * n
        b1, b2 = yi[hy1], yi[hy2 + 1]
        for r in range(i1, i2, n):
            if h1 <= r < h2:
                cells[r + j1 : r + b1] = run[: b1 - j1]
                cells[r + b2 : r + j2] = run[: j2 - b2]
            else:
                cells[r + j1 : r + j2] = run
    return tuple(xlines[1:-1]), tuple(ylines[1:-1]), cells, n


def reference_build(
    t: Grammar2D | Tslp2D, epsilon: float = 3.0, geo: GeometryTable | None = None
) -> FastAccessIndex:
    """The fast index built one landing symbol at a time by ``_paint``."""
    if geo is None:
        geo = compute_geometry(t)
    h, w = geo.dims(t.start)
    params = FastParams.from_area(h * w, epsilon)
    k = params.levels
    terminals: dict[str, tuple] = {}
    order = [t.start]
    ids = {t.start: 0}
    grids = [
        _paint(*_unwind(sym, geo, k, terminals), ids, order) for sym in order
    ]
    return FastAccessIndex(
        grammar=t, params=params, geo=geo, grids=tuple(grids),
        symbols=tuple(order), height=h, width=w,
    )
