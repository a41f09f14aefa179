"""Scalar references for the rebalance pipeline and the shared fold.

``linearize_rows`` here adds each row pair to a deduplicating
``GrammarBuilder`` one ``h`` call at a time, and ``_plan`` and ``_fold`` read
each symbol's children from its production.  ``rebalance_plain_2d`` (the
start's row symbols folded as the roots of one plan, then stacked),
``balance_1d`` and ``balance_to_tslp`` are the library's routes run through
them.  The library builds the rows on arrays and folds over flat child
lists, and numbers its row pairs round by round, so its linearization and
the plans over it equal these only through the bijection between the two
DAGs' ids (``test_rebalance_reference._bijection``): the tests renumber the
library's grammars, emitted text and plans (marks, splits, canonical heavy
parents and requests) by it and then require equality.  The rebalance's
output, ``balance_1d`` and ``balance_to_tslp`` of a common input and the
stats are compared by id.
"""

from __future__ import annotations

from gridslp import (
    BalanceStats,
    GeometryTable,
    Grammar1D,
    Grammar2D,
    GrammarBuilder,
    ParameterError,
    RebalanceStats,
    Tslp2D,
    compute_geometry,
)
from gridslp.balance import COPY, FOLD, _flanks, _inline_contexts, _shallow
from gridslp.grammar import PLAIN_KINDS

from conftest import rule_order


def linearize_rows(g: Grammar2D, geo: GeometryTable | None = None) -> Grammar1D:
    if geo is None:
        geo = compute_geometry(g)
    b = GrammarBuilder(dedup=True)
    return b.finish(b.balanced("H", _rows(b, g, geo)))


def _rows(b: GrammarBuilder, g: Grammar2D, geo: GeometryTable) -> list[int]:
    """Add the row pairs of ``linearize_rows(g)`` to ``b``; returns the
    start's row symbols."""
    N, M = geo.dims(g.start)
    if N * M > (1 << 62):
        raise OverflowError(f"flattened length {N}*{M} exceeds 2**62")
    rules = g.rules
    order = rule_order(rules, [g.start])
    kids: dict[int, tuple[int, int]] = {}
    parents = dict.fromkeys(order, 0)
    for sym in order:
        r = rules[sym]
        if r.kind == "h" or r.kind == "v":
            kids[sym] = xy = (r.left, r.right) if r.kind == "h" else (r.top, r.bottom)
            for c in xy:
                parents[c] += 1
        elif r.kind != "term":
            raise ParameterError("linearization is defined for plain grammars only")
    h = b.h
    rows: dict[int, list[int]] = {}
    for sym in order:
        r = rules[sym]
        if r.kind == "term":
            rows[sym] = [b.terminal(r.char)]
            continue
        x, y = kids[sym]
        if r.kind == "v":
            rows[sym] = rows[x] + rows[y]
        else:
            rows[sym] = [h(a, c) for a, c in zip(rows[x], rows[y])]
        for c in (x, y):
            parents[c] -= 1
            if not parents[c]:
                del rows[c]
    return rows[g.start]


def _plan(rules, geo: GeometryTable, starts: list[int]):
    H, W, D = geo.heights, geo.widths, geo.depths
    order = rule_order(rules, starts)
    mark = bytearray(len(rules))
    requested: set[int] = set()
    for s in starts:
        if _shallow(D[s], H[s] * W[s]):
            mark[s] |= COPY
        else:
            mark[s] |= FOLD
            requested.add(s)
    split: dict[int, tuple[int, int, str, str, int]] = {}
    canon: dict[int, int] = {}
    for z in reversed(order):
        m = mark[z]
        if not m:
            continue
        r = rules[z]
        k = r.kind
        if k == "term":
            continue
        x, y = (r.left, r.right) if k == "h" else (r.top, r.bottom)
        if m & COPY:
            mark[x] |= COPY
            mark[y] |= COPY
        if not m & FOLD:
            continue
        for c in (x, y):
            if _shallow(D[c], H[c] * W[c]):
                mark[c] |= COPY
            else:
                mark[c] |= FOLD
        axis = "H" if k == "h" else "V"
        if H[y] * W[y] > H[x] * W[x]:
            heavy, light, side = y, x, "second"
        else:
            heavy, light, side = x, y, "first"
        split[z] = (heavy, light, axis, side, H[light] * W[light])
        if mark[light] & FOLD:
            requested.add(light)
        if mark[heavy] & FOLD:
            if heavy in canon:
                requested.add(heavy)
            canon[heavy] = z
    return order, mark, split, canon, requested


def _fold(b: GrammarBuilder, rules, plan, hole, compose, apply):
    order, mark, split, canon, requested = plan
    copy: dict[int, int] = {}
    bal: dict[int, int] = {}
    state: dict[int, tuple[list, int]] = {}
    path_count = 0
    for z in order:
        m = mark[z]
        if m & COPY:
            r = rules[z]
            if r.kind == "term":
                copy[z] = b.terminal(r.char)
            elif r.kind == "h":
                copy[z] = b.h(copy[r.left], copy[r.right])
            else:
                copy[z] = b.v(copy[r.top], copy[r.bottom])
        if not m & FOLD:
            continue
        heavy, light, axis, side, weight = split[z]
        ctx = hole(axis, side, bal[light] if mark[light] & FOLD else copy[light], heavy)
        if not mark[heavy] & FOLD:
            spine: list = []
            fill = copy[heavy]
            path_count += 1
        elif canon[heavy] == z:
            spine, fill = state.pop(heavy)
        else:
            spine, fill = [], bal[heavy]
            path_count += 1
        while spine and spine[-1][1].bit_length() <= weight.bit_length():
            inner, w2, _ = spine.pop()
            ctx = compose(ctx, inner)
            weight += w2
        spine.append([ctx, weight, None if spine else ctx])
        if z in requested:
            i = len(spine) - 1
            while spine[i][2] is None:
                i -= 1
            acc = spine[i][2]
            for e in spine[i + 1:]:
                acc = e[2] = compose(e[0], acc)
            bal[z] = apply(acc, fill)
        if z in canon:
            state[z] = (spine, fill)
    return bal, copy, path_count


def _fold_1d(rules, start: int, geo: GeometryTable):
    depth = geo.depths[start]
    if _shallow(depth, geo.area(start)):
        return None
    b = GrammarBuilder(dedup=True)
    bal, _, _ = _fold(b, rules, _plan(rules, geo, [start]), *_flanks(b))
    root = bal[start]
    return None if b.depth(root) > depth else (b, root)


def balance_1d(g: Grammar1D) -> Grammar1D:
    geo = compute_geometry(g)
    if any(r is not None and r.kind not in PLAIN_KINDS for r in g.rules):
        g = _inline_contexts(g, geo)
        geo = compute_geometry(g)
    folded = _fold_1d(g.rules, g.start, geo)
    return g if folded is None else folded[0].finish(folded[1])


def balance_to_tslp(g: Grammar2D) -> tuple[Tslp2D, BalanceStats]:
    """The fold of ``balance_to_tslp``, for an input that fails the keep test
    and whose fold is not deeper than it (the routes that return the input
    did not change)."""
    geo = compute_geometry(g)
    input_size, input_depth, area = g.size, geo.depths[g.start], geo.area(g.start)
    assert not _shallow(input_depth, area)
    if any(r is not None and r.kind not in PLAIN_KINDS for r in g.rules):
        g = _inline_contexts(g, geo)
        geo = compute_geometry(g)
    H, W = geo.heights, geo.widths
    plan = _plan(g.rules, geo, [g.start])
    b = GrammarBuilder(dedup=True)
    bal, copy, path_count = _fold(
        b, g.rules, plan,
        lambda axis, side, ground, heavy: b.hole_concat(
            axis, side, ground, H[heavy], W[heavy]),
        b.compose, b.apply)
    output_depth = b.depth(bal[g.start])
    assert output_depth <= input_depth
    out = b.finish_tslp(bal[g.start])
    return out, BalanceStats(
        input_size, g.size, out.size, input_depth, output_depth, area,
        path_count, len(plan[4]), len(copy))


def rebalance_plain_2d(g: Grammar2D) -> tuple[Grammar2D, RebalanceStats]:
    if any(r is not None and r.kind not in PLAIN_KINDS for r in g.rules):
        g = _inline_contexts(g)
    geo = compute_geometry(g)
    N, M = geo.dims(g.start)
    assert N <= M
    size, depth = g.size, geo.depths[g.start]
    unchanged = g, RebalanceStats(N, M, size, depth, size, depth)
    if _shallow(depth, N * M):
        return unchanged
    lin = GrammarBuilder(dedup=True)
    rows = _rows(lin, g, geo)
    b = GrammarBuilder(dedup=True)
    lin_geo = compute_geometry(lin.finish(rows[0]))
    bal, copy, _ = _fold(b, lin.rules, _plan(lin.rules, lin_geo, rows), *_flanks(b))
    root = b.balanced("V", [bal[s] if s in bal else copy[s] for s in rows])
    out_depth = b.depth(root)
    if out_depth <= depth:
        out = b.finish(root)
        if out_depth < depth or out.size <= size:
            return out, RebalanceStats(N, M, size, depth, out.size, out_depth)
    return unchanged
