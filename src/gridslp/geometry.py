"""Bottom-up geometry for 2D SLPs: frame sizes, hole placement, depths.

Everything downstream (expansion, random access, the transforms, the
accelerated index) navigates by these numbers instead of materializing
matrices, so they are computed once per grammar in a single iterative pass and
kept in plain tuples.  The rules of each production kind live in
:func:`gridslp.grammar.layout`; this pass applies it to every symbol in
dependency order and keeps what it returns, child placements included.
:func:`compute_geometry` raises the first violation
:func:`~gridslp.grammar.validate` would report.  Dimensions are exact
integers; one beyond 2**62, which the index structures cannot address,
raises :class:`OverflowError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grammar import (
    Grammar2D,
    GridSlpError,
    LayoutError,
    _check,
    children,
    layout,
)


@dataclass(frozen=True)
class GeometryTable:
    """Per-symbol geometry, indexed by symbol id.

    ``holes[i]`` is ``(hole_h, hole_w, hole_row, hole_col)`` for context
    symbols (1-based position of the hole's top-left cell inside the frame)
    and ``None`` for ground symbols.  ``depths[i]`` is the height of the
    derivation tree below symbol ``i``, counting the terminal production as 1.
    ``entries[i]`` is the child placement :func:`~gridslp.grammar.layout`
    returns: the terminal's character, or ``(c1, x1, y1, x2, y2, c2, dx2,
    dy2)``, which every walk over the derivation (expansion, both access
    paths, the unwinding of the fast index) follows instead of the
    productions.  Entries for undefined symbols are ``None``.
    """

    heights: tuple
    widths: tuple
    holes: tuple
    depths: tuple
    entries: tuple

    def dims(self, sym: int) -> tuple[int, int]:
        return (self.heights[sym], self.widths[sym])

    def area(self, sym: int) -> int:
        return self.heights[sym] * self.widths[sym]


def geometry_pass(g: Grammar2D, on_error, order):
    """Per-symbol geometry of the symbols in ``order``, children first.

    Each production whose operands do not fit is reported to ``on_error``
    (a callback ``(code, symbol, message)``) and left undefined, as is every
    symbol above it and every symbol not in ``order``.  References are
    assumed in range and acyclic.
    """
    rules = g.rules
    n = len(rules)
    H: list = [None] * n
    W: list = [None] * n
    HOLE: list = [None] * n
    D: list = [None] * n
    E: list = [None] * n

    for sym in order:
        r = rules[sym]
        below = 0
        for c in children(r):
            d = D[c]
            if d is None:
                break  # cascade from a reported child failure
            if d > below:
                below = d
        else:
            try:
                H[sym], W[sym], HOLE[sym], E[sym] = layout(r, H, W, HOLE)
            except LayoutError as e:
                on_error(e.code, sym, str(e))
                continue
            D[sym] = below + 1

    return H, W, HOLE, D, E


def compute_geometry(g: Grammar2D) -> GeometryTable:
    """Geometry of every defined symbol of a sound grammar.

    Computed once per grammar object: the table is kept on ``g`` (as
    :func:`~gridslp.grammar.validate` keeps the one it computes) and
    returned again on later calls.  A grammar that fails a check of
    ``validate`` other than the start and hole-marker ones raises the first
    violation ``validate`` would report (:class:`OverflowError` for an
    overflow, :class:`~gridslp.grammar.GridSlpError` otherwise) and keeps
    nothing.
    """
    if g._geometry is None:
        out: list = []
        if not _check(g, out):
            v = out[0]
            raise (OverflowError if v.code == "overflow" else GridSlpError)(str(v))
    return g._geometry
