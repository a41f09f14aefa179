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

The index is flat: each landing symbol has a dense grid id (the start's is
0) and one grid, its inner cut lines as two sorted key tuples (plain arrays
standing in for the theory's word-RAM predecessor structure) and its cells
in one row-major list, so a visit is two ``bisect_right`` calls and one index.

The build runs one discovery round at a time in numpy, reading the geometry
table's int64 view (``GeometryTable.columns``), which the table makes once
and keeps.  Ids go out in the order cells first name symbols, so the symbols
whose ids are assigned but whose grids are not built yet are one contiguous
id range.  A round takes up to ``CHUNK`` of them and unwinds, cuts and
paints them all with one array pass per step.  Its grids are equal, tuple
for tuple, to those of unwinding and painting each symbol on its own in
Python; the tests keep that scalar painter as the oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from sys import getsizeof

import numpy as np

from .grammar import (
    GeometryTable,
    Grammar2D,
    InternalHoleHit,
    OutOfBounds,
    ParameterError,
    Tslp2D,
    _table,
)


@dataclass(frozen=True)
class FastParams:
    """Unwinding parameters derived from ε and the expansion area."""

    epsilon: float
    levels: int
    b_bound: int

    @classmethod
    def from_area(cls, area: int, epsilon: float) -> "FastParams":
        if not (math.isfinite(epsilon) and epsilon > 0):
            raise ParameterError(f"epsilon must be finite and positive, got {epsilon}")
        k = (epsilon / 3.0) * math.log2(math.log2(area)) if area > 2 else 1
        if k >= 63:  # B = 2^K stays an int64; infinity is refused too
            raise ParameterError(f"epsilon {epsilon} asks for more than 62 "
                                 f"unwinding levels on a {area}-cell matrix")
        k = max(1, math.floor(k))
        return cls(epsilon=epsilon, levels=k, b_bound=1 << k)


@dataclass(frozen=True)
class FastAccessIndex:
    """Query structure: one flat grid per symbol a descent can land on.

    ``grids[g]`` is ``(xkeys, ykeys, cells, ncols)`` for ``symbols[g]``, and
    grid 0 is the start, whose ``height`` and ``width`` bound every query.
    Its cell ``(g2, dx, dy)`` descends to grid ``g2`` at (x - dx, y - dy),
    ``(-1, char, 0)`` is a terminal, and None is the owner's own hole.
    """

    grammar: Grammar2D
    params: FastParams
    geo: GeometryTable
    grids: tuple[tuple, ...]
    symbols: tuple[int, ...]
    height: int
    width: int

    @property
    def total_cells(self) -> int:
        return sum(len(grid[2]) for grid in self.grids)

    @property
    def nbytes(self) -> int:
        """``sys.getsizeof`` over the grids: each grid's tuple, key tuples
        and cell list, plus each distinct cell tuple once."""
        grids = self.grids
        distinct = {id(c): c for grid in grids for c in grid[2] if c is not None}
        parts = (part for grid in grids for part in (grid, *grid[:3]))
        return sum(map(getsizeof, parts)) + sum(map(getsizeof, distinct.values()))


#: Grids built per round: a round's arrays hold at most CHUNK * 2^K regions
#: and their cells, however many symbols the index lands on.
CHUNK = 256


def _unwind_round(owners: np.ndarray, k: int, entry: tuple, leaf: np.ndarray):
    """Every owner's regions k levels down, in depth-first order.

    Each region is replaced in place by its first child, then its second if
    it has one; leaves stay.  Returns each region's owner (an index into
    ``owners``), symbol and offset ``(ox, oy)`` in its owner's frame.
    """
    c1, x1, y1, c2, dx2, dy2 = entry
    own = np.arange(len(owners))
    sym = owners
    ox = oy = np.zeros(len(owners), np.int64)
    for _ in range(k):
        if leaf[sym].all():
            break
        two = c2[sym] >= 0
        rep = two + 1
        second = np.zeros(len(sym) + two.sum(), bool)
        second[np.cumsum(rep)[two] - 1] = True
        s = np.repeat(sym, rep)
        sym = np.where(second, c2[s], c1[s])
        ox = np.repeat(ox, rep) + np.where(second, dx2[s], x1[s])
        oy = np.repeat(oy, rep) + np.where(second, dy2[s], y1[s])
        own = np.repeat(own, rep)
    return own, sym, ox, oy


def _cut(owner, off, size, hpos, hsize, n_owners: int) -> tuple:
    """One axis's cut lines: each box's sides and hole sides, per owner.

    Box ``i`` spans ``off[i] + 1 .. off[i] + size[i]`` in owner
    ``owner[i]``'s frame, with a hole of ``hsize[i]`` lines from
    ``off[i] + hpos[i]`` when ``hsize[i] > 0``.  Returns the distinct lines
    sorted by owner then line, where each owner's lines start (one entry
    more than owners), and each box's side and hole-side ranks among its
    owner's lines (hole ranks 0 and 0 when it has no hole).
    """
    m = len(owner)
    hole = np.flatnonzero(hsize)
    at = off[hole] + hpos[hole]
    lines = np.concatenate((off + 1, off + size + 1, at, at + hsize[hole]))
    owners = np.concatenate((owner, owner, owner[hole], owner[hole]))
    # lexsort, not a packed owner·2^k + line key: lines reach 2^62.
    order = np.lexsort((lines, owners))
    sorted_lines, sorted_owners = lines[order], owners[order]
    new = np.ones(len(order), bool)
    new[1:] = (sorted_lines[1:] != sorted_lines[:-1]) | (
        sorted_owners[1:] != sorted_owners[:-1])
    starts = np.searchsorted(sorted_owners[new], np.arange(n_owners + 1))
    rank = np.empty(len(order), np.int64)
    rank[order] = np.cumsum(new) - 1
    rank -= starts[owners]
    hlo = np.zeros(m, np.int64)
    hhi = np.zeros(m, np.int64)
    hlo[hole] = rank[2 * m : 2 * m + len(hole)]
    hhi[hole] = rank[2 * m + len(hole) :]
    return sorted_lines[new], starts, (rank[:m], rank[m : 2 * m], hlo, hhi)


def _spans(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every value in lo[i]..hi[i] - 1, item by item: (item i, value)."""
    count = hi - lo
    item = np.repeat(np.arange(len(count)), count)
    start = np.cumsum(count) - count
    return item, np.arange(len(item)) + np.repeat(lo - start, count)


def _paint_round(n, own, xranks, yranks, base, ncols, value) -> np.ndarray:
    """Every owner's cells, row-major, one owner after another.

    Boxes ``0..n-1`` are regions: region ``i`` paints ``value[i]`` over rank
    rows ``[i1, i2)`` and columns ``[j1, j2)`` of owner ``own[i]``'s grid,
    minus its hole's ranks.  Box ``n + o`` is owner ``o`` itself, which
    paints ``value[n]`` (None) over its own hole.  These pieces tile every
    grid, so each row of a piece is one run of cells, or two beside a hole,
    and the runs in position order spell the cells.
    """
    i1, i2, hx1, hx2 = xranks
    j1, j2, hy1, hy2 = yranks
    # An owner's piece is its own hole, which has no hole inside.
    top, bottom, left, right = (
        np.concatenate((a[:n], b[n:]))
        for a, b in ((i1, hx1), (i2, hx2), (j1, hy1), (j2, hy2))
    )
    none = np.zeros(len(own) - n, np.int64)
    hx1, hx2, hy1, hy2 = (np.concatenate((a[:n], none)) for a in (hx1, hx2, hy1, hy2))
    box, row = _spans(top, bottom)
    # A row through a hole is two runs: left of the hole, then right of it.
    split = (hx1[box] <= row) & (row < hx2[box])
    start = np.concatenate((left[box], hy2[box[split]]))
    end = np.concatenate((np.where(split, hy1[box], right[box]), right[box[split]]))
    box = np.concatenate((box, box[split]))
    row = np.concatenate((row, row[split]))
    o = own[box]
    order = np.argsort(base[o] + row * ncols[o] + start)
    return np.repeat(value[np.minimum(box, n)][order], (end - start)[order])


def build_fast(
    t: Grammar2D | Tslp2D, epsilon: float = 3.0, geo: GeometryTable | None = None
) -> FastAccessIndex:
    """Index the symbols a descent can land on for K-level-at-a-time descent.

    Those are the start symbol and every symbol some grid cell names.  Grid
    ids go out in the order cells first name symbols, so the symbols still
    to build are always the ids after the last grid built.  Each round
    builds up to ``CHUNK`` of them with one array pass per step:

    - unwind their regions K levels (:func:`_unwind_round`);
    - cut along every region side, frame hole and owner hole (:func:`_cut`);
    - paint each region's cells (:func:`_paint_round`);
    - give the symbols the new cells name for the first time the next ids,
      in order of first appearance, and make the cell values: one
      ``(gid, dx, dy)`` tuple per region, shared by its cells, or the
      terminal's interned ``(-1, char, 0)``.

    The grids, and so the symbols and sizes, are equal to those of painting
    one symbol at a time, which the tests keep as the oracle.
    """
    geo = _table(t, geo)
    h, w = geo.dims(t.start)
    params = FastParams.from_area(h * w, epsilon)
    entry, (H, W, _), (P, Q, HR, HC) = geo.columns
    leaf = entry[0] < 0
    # A leaf is its own first child at (0, 0), so unwinding leaves it in place.
    entry = (np.where(leaf, np.arange(len(leaf)), entry[0]), *entry[1:])
    terminal_cell = np.empty(len(leaf), object)
    interned: dict[str, tuple] = {}
    for s in np.flatnonzero(leaf).tolist():
        char = geo.entries[s]
        terminal_cell[s] = interned.setdefault(char, (-1, char, 0))
    # A symbol's grid id, one int object shared by every cell naming it.
    gid = np.empty(len(leaf), object)
    gid[t.start] = 0
    order = [t.start]
    grids: list[tuple] = []
    while len(grids) < len(order):
        owners = np.array(order[len(grids) : len(grids) + CHUNK], np.int64)
        m = len(owners)
        own, sym, ox, oy = _unwind_round(owners, params.levels, entry, leaf)
        n = len(sym)

        # Each owner's own box, at offset 0, adds its sides and hole sides.
        bown = np.concatenate((own, np.arange(m)))
        bsym = np.concatenate((sym, owners))
        zero = np.zeros(m, np.int64)
        xlines, xstart, xranks = _cut(
            bown, np.concatenate((ox, zero)), H[bsym], HR[bsym], P[bsym], m)
        ylines, ystart, yranks = _cut(
            bown, np.concatenate((oy, zero)), W[bsym], HC[bsym], Q[bsym], m)
        ncols = np.diff(ystart) - 1
        size = (np.diff(xstart) - 1) * ncols
        base = np.cumsum(size) - size

        landing = np.flatnonzero(~leaf[sym])
        named = sym[landing]
        fresh, first = np.unique(named[np.equal(gid[named], None)], return_index=True)
        fresh = fresh[np.argsort(first)].tolist()
        gid[fresh] = range(len(order), len(order) + len(fresh))
        order += fresh
        value = np.empty(n + 1, object)  # value[n] stays None: owner holes
        value[:n] = terminal_cell[sym]
        value[landing] = np.fromiter(
            zip(gid[named].tolist(), ox[landing].tolist(), oy[landing].tolist()),
            object, len(landing))
        cells = _paint_round(n, bown, xranks, yranks, base, ncols, value)

        xl, yl = xlines.tolist(), ylines.tolist()
        xs, ys = xstart.tolist(), ystart.tolist()
        for i, at, cut in zip(range(m), base.tolist(), size.tolist()):
            grids.append((
                tuple(xl[xs[i] + 1 : xs[i + 1] - 1]),
                tuple(yl[ys[i] + 1 : ys[i + 1] - 1]),
                cells[at : at + cut].tolist(),
                ys[i + 1] - ys[i] - 1,
            ))
    return FastAccessIndex(
        grammar=t, params=params, geo=geo, grids=tuple(grids),
        symbols=tuple(order), height=h, width=w,
    )


def access_fast(idx: FastAccessIndex, x: int, y: int) -> tuple[str, int]:
    """The character at (x, y), descending ≥ K derivation levels per visit."""
    if not (1 <= x <= idx.height and 1 <= y <= idx.width):
        raise OutOfBounds(
            f"position ({x},{y}) outside {idx.height}x{idx.width} expansion"
        )
    grids = idx.grids
    g = visits = 0
    while True:
        xkeys, ykeys, cells, n = grids[g]
        visits += 1
        cell = cells[bisect_right(xkeys, x) * n + bisect_right(ykeys, y)]
        if cell is None:
            raise InternalHoleHit(
                "position maps into the hole of symbol "
                f"{idx.grammar.label(idx.symbols[g])}"
            )
        g, dx, dy = cell
        if g < 0:
            return dx, visits
        x -= dx
        y -= dy
