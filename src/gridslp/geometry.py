"""Bottom-up geometry for 2D SLPs: frame sizes, hole placement, depths.

Everything downstream (expansion, random access, the transforms, the
accelerated index) navigates by these numbers instead of materializing
matrices, so they are computed once per grammar in a single iterative pass and
kept in plain tuples.  The rules of each production kind live in
:func:`gridslp.grammar.layout`; this pass applies it to every symbol in
dependency order and keeps what it returns, child placements included.
Dimensions are exact integers; anything beyond 2**62 raises
:class:`OverflowError` rather than silently continuing into numbers the
index structures cannot address.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grammar import (
    Grammar2D,
    GridSlpError,
    LayoutError,
    children,
    layout,
    topo_all,
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


def geometry_pass(g: Grammar2D, on_error=None, order=None):
    """Compute per-symbol geometry, reporting or raising on inconsistencies.

    With ``on_error`` (a callback ``(code, symbol, message)``) every violation
    is reported and the offending symbol's geometry is left undefined so one
    pass can surface all problems; without it the first inconsistency raises,
    a reference to an undefined symbol, one past the last rule or one on a
    cycle included.  With ``on_error``, references are assumed in range and
    acyclic.  ``order`` lists the symbols to lay out, children first
    (default ``topo_all`` of the rules); the others' geometry stays
    undefined.
    """
    rules = g.rules
    n = len(rules)
    H: list = [None] * n
    W: list = [None] * n
    HOLE: list = [None] * n
    D: list = [None] * n
    E: list = [None] * n

    def fail(code: str, sym: int, msg: str):
        if on_error is None:
            if code == "overflow":
                raise OverflowError(msg)
            raise GridSlpError(f"symbol {g.labels[sym]}: {msg}")
        on_error(code, sym, msg)

    if order is None:
        try:
            order = topo_all(rules)
        except IndexError:  # its walk met a reference past the last rule
            sym, c = next((s, c) for s, r in enumerate(rules) if r is not None
                          for c in children(r) if c >= n)
            raise GridSlpError(
                f"symbol {g.labels[sym]}: reference to symbol {c}, which is "
                "undefined or on a cycle") from None
    for sym in order:
        r = rules[sym]
        below = 0
        for c in children(r):
            d = D[c]
            if d is None:
                if on_error is None:
                    raise GridSlpError(
                        f"symbol {g.labels[sym]}: reference to symbol {c}, "
                        "which is undefined or on a cycle")
                break  # cascade from a reported child failure
            if d > below:
                below = d
        else:
            try:
                H[sym], W[sym], HOLE[sym], E[sym] = layout(r, H, W, HOLE)
            except LayoutError as e:
                fail(e.code, sym, str(e))
                continue
            D[sym] = below + 1

    return H, W, HOLE, D, E


def compute_geometry(g: Grammar2D) -> GeometryTable:
    """Geometry of every defined symbol of a validated grammar.

    Computed once per grammar object: the table is kept on ``g`` (as
    :func:`~gridslp.grammar.validate` keeps the one it computes) and
    returned again on later calls.  A grammar with a cycle, or a reference
    to an undefined symbol, raises :class:`~gridslp.grammar.GridSlpError`
    and keeps nothing.
    """
    geo = g._geometry
    if geo is None:
        geo = GeometryTable(*map(tuple, geometry_pass(g)))
        object.__setattr__(g, "_geometry", geo)
    return geo
