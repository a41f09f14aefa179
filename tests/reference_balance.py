"""Reference route for holed 1D input: contexts replaced by flank pairs.

``eliminate_contexts_1d`` turns a height-1 grammar with holes into a plain
one by the same flank algebra ``balance_1d``'s fold uses, one input symbol
at a time.  ``eliminate_contexts_1d(balance_to_tslp(g))`` is the plain
route ``balance_1d`` is checked against.
"""

from __future__ import annotations

import dataclasses

from gridslp import (
    Grammar1D,
    GrammarBuilder,
    NotOneDimensional,
    Tslp2D,
    compute_geometry,
)
from gridslp.balance import _flanks

from conftest import rule_order


def eliminate_contexts_1d(t: Tslp2D) -> Grammar1D:
    """Replace every context of a height-1 grammar by its two hole flanks.

    A one-dimensional context is a string with one hole, so it splits into
    the plain string left of the hole and the one right of it (either may be
    empty); applications become at most two concatenations.  Follows the
    ``layout`` entries: a second child as wide as the symbol is a context
    whose hole box 1 fills, and otherwise box 1 is a ground beside the hole,
    a context or a ground.  Every child's frame fits inside its parent's,
    so a start one row tall has no vertical production; a taller one is
    rejected.  Only the symbols the start reaches are walked.  ``t`` is laid
    out by a fresh pass over a copy, so the table its builder kept on it is
    not read.
    """
    geo = compute_geometry(dataclasses.replace(t))
    H, W, HOLE, E = geo.heights, geo.widths, geo.holes, geo.entries
    order = rule_order(t.rules, [t.start])
    if H[t.start] != 1:
        raise NotOneDimensional(f"expansion is {H[t.start]} rows tall, expected 1")
    b = GrammarBuilder(dedup=True)
    hole, compose, apply = _flanks(b)
    # A ground symbol's id, a context's flank pair.
    out: dict[int, int | tuple[int | None, int | None]] = {}
    for sym in order:
        e = E[sym]
        if e.__class__ is str:
            out[sym] = b.terminal(e)
            continue
        c1, _, y1, _, _, c2, _, _ = e
        if c2 is not None and W[c2] == W[sym]:
            out[sym] = (apply if HOLE[c1] is None else compose)(out[c2], out[c1])
            continue
        # Box 1 is a ground beside a hole, which c2 (a context or a ground)
        # fills when present; the hole is second iff box 1 is at (0, 0).
        ctx = hole("H", "second" if y1 == 0 else "first", out[c1], None)
        if c2 is not None:
            ctx = (apply if HOLE[c2] is None else compose)(ctx, out[c2])
        out[sym] = ctx
    return b.finish(out[t.start])
