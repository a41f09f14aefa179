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

import secrets
from bisect import bisect_left

from .grammar import (
    DimensionMismatch,
    GeometryTable,
    Grammar2D,
    InternalHoleHit,
    OutOfBounds,
    _table,
    compute_geometry,
)

_P = (1 << 127) - 1  # the Karp-Rabin modulus of first_difference, a prime


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


def _powers(base: int, exps) -> dict[int, int]:
    """``base**e`` mod 2^127 - 1 for each distinct ``e`` in ``exps``, from
    the smallest up, each the one before times ``base`` to the gap between
    them: one modular ``pow`` per distinct gap, and exponent 0 gives 1."""
    out: dict[int, int] = {}
    step: dict[int, int] = {}
    acc, prev = 1, 0
    for e in sorted(exps):
        m = step.get(e - prev)
        if m is None:
            m = step[e - prev] = pow(base, e - prev, _P)
        out[e] = acc = acc * m % _P
        prev = e
    return out


def _corner_query(g: Grammar2D, R: int, S: int):
    """``q(k, m)``, the sum of ``code * R**(x-1) * S**(y-1)`` mod 2^127 - 1
    over the start's cells (x, y) with x <= k and y <= m, and the start's
    dimensions.  ``code`` is the code point plus one and a hole cell counts
    0, so a node ``(s, k, m)`` of any kind adds each child's corner, clamped
    to its box, times its offset's multiplier: R to the row offset times S
    to the column offset, each power made once per distinct offset
    (``_powers``).  ``q`` is one stack walk, memoized across calls, since
    nearby corners share most of their nodes."""
    geo = compute_geometry(g)
    E, H, W = geo.entries, geo.heights, geo.widths
    memo = {(s, 1, 1): ord(e) + 1 for s, e in enumerate(E) if e.__class__ is str}
    inner = [e for e in E if e.__class__ is tuple]
    Rx = _powers(R, {e[i] for e in inner for i in (1, 6)})
    Sy = _powers(S, {e[i] for e in inner for i in (2, 7)})
    mult = [e if e.__class__ is str else tuple(
        Rx[e[i]] * Sy[e[i + 1]] % _P for i in (1, 6)) for e in E]

    def q(k: int, m: int) -> int:
        stack = [root := (g.start, k, m)]
        while root not in memo:
            s, k, m = stack[-1]
            c1, x1, y1, x2, y2, c2, dx2, dy2 = E[s]
            n1 = (c1, min(k, x2) - x1, min(m, y2) - y1)
            n2 = (s, 0, 0) if c2 is None else (c2, min(k - dx2, H[c2]), min(m - dy2, W[c2]))
            v1 = memo.get(n1) if n1[1] > 0 and n1[2] > 0 else 0
            v2 = memo.get(n2) if n2[1] > 0 and n2[2] > 0 else 0
            if v1 is None or v2 is None:
                stack += [n for n, v in ((n1, v1), (n2, v2)) if v is None]
            else:
                memo[stack.pop()] = (v1 * mult[s][0] + v2 * mult[s][1]) % _P
        return memo[root]

    return q, geo.dims(g.start)


def first_difference(a: Grammar2D, b: Grammar2D) -> tuple[int, int] | None:
    """The first cell (x, y), in row-major order, where two equally sized
    grammars' matrices differ, or None if they are equal: ``q(H, W)``
    decides, then binary searches over ``q(k, W)`` and ``q(x, m)`` give the
    row and the column (2D prefix fingerprints, Bille et al., JCSS 2017).
    Bases from :mod:`secrets` make a false "equal" rarer than 2^-63."""
    R, S = secrets.randbelow(_P), secrets.randbelow(_P)
    (qa, (h, w)), (qb, dims_b) = _corner_query(a, R, S), _corner_query(b, R, S)
    if dims_b != (h, w):
        raise DimensionMismatch(f"{(h, w)} vs {dims_b}")
    if qa(h, w) == qb(h, w):
        return None
    x = bisect_left(range(1, h + 1), True, key=lambda k: qa(k, w) != qb(k, w)) + 1
    return x, bisect_left(range(1, w + 1), True, key=lambda m: qa(x, m) != qb(x, m)) + 1
