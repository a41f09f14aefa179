"""Random access to single cells without materializing the matrix.

The descent walks one root-to-terminal path of the derivation.  At every
symbol it reads the symbol's entry in the geometry table (see
:func:`gridslp.grammar.layout`): a cell inside box 1 moves to the first child,
any other cell to the second child (or, for a bare hole, is an unfilled hole
cell), and the coordinate is rewritten into that child's frame.  It returns
``(character, visits)`` where ``visits`` counts productions inspected — the
quantity the depth bounds and the accelerated index are measured against.
Coordinates are 1-based, ``x`` selecting the row and ``y`` the column.
"""

from __future__ import annotations

from .grammar import (
    GeometryTable,
    Grammar2D,
    InternalHoleHit,
    OutOfBounds,
    _table,
)


def access_tslp(
    t: Grammar2D, x: int, y: int, geo: GeometryTable | None = None
) -> tuple[str, int]:
    """Cell (x, y) of the start symbol's matrix in a TSLP or plain grammar.

    Visits at most ``depth(start)`` productions: one per level of the
    derivation tree along the descent path.  While navigating inside a context
    symbol the coordinate stays expressed in that context's frame; entering
    the filling argument (at an ``apply``) or the plugged context (at a
    ``compose``) translates it by the hole origin.
    """
    cur = t.start
    # ``_table``'s check of a given table, inline so that a query pays no call.
    if geo is None or not 0 <= cur < len(geo.entries) or geo.entries[cur] is None:
        geo = _table(t, geo)
    entries = geo.entries
    h, w = geo.heights[cur], geo.widths[cur]
    if not (1 <= x <= h and 1 <= y <= w):
        raise OutOfBounds(f"position ({x},{y}) outside the {h}x{w} matrix")
    visits = 0
    while True:
        e = entries[cur]
        visits += 1
        if e.__class__ is str:
            return e, visits
        c1, x1, y1, x2, y2, c2, dx2, dy2 = e
        # Upper bounds first: they alone decide h and v, whose box 1 is at
        # (0, 0), and testing them first keeps the plain descent fast.
        if x <= x2 and y <= y2 and x1 < x and y1 < y:
            x -= x1
            y -= y1
            cur = c1
        elif c2 is None:
            raise InternalHoleHit("navigated into an unfilled hole")
        else:
            x -= dx2
            y -= dy2
            cur = c2


#: A plain grammar is a TSLP without contexts, so plain access is the same
#: descent; the name stays for callers that hold a plain grammar.
access_plain = access_tslp
