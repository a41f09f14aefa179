"""Depth reduction via contexts: heavy paths folded into balanced composes.

``balance_to_tslp`` rewrites an arbitrary grammar into an equivalent one with
holes whose derivation depth is logarithmic in the expansion area (measured,
with the constant reported in stats).  The construction decomposes the DAG
into heavy paths by expansion weight, expresses each path node as a one-hole
context around its heavy child, and folds the per-path context sequences into
weight-balanced composition trees, so a query crossing a path pays the
log-ratio of the weights it skips rather than the path length.

``eliminate_contexts_1d`` undoes the holes for height-1 grammars — every
context splits into the plain string left of its hole and the one right of it
— and ``balance_1d`` chains the two, yielding the balanced plain 1D grammar
the 2D rebalancing pipeline is built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grammar import (
    Grammar1D,
    Grammar2D,
    GrammarBuilder,
    NotOneDimensional,
    PLAIN_KINDS,
    Tslp2D,
    reachable_topo,
)
from .geometry import GeometryTable, compute_geometry


@dataclass(frozen=True)
class BalanceStats:
    """Measured sizes around one balancing run."""

    input_size: int
    inlined_size: int
    output_size: int
    input_depth: int
    output_depth: int
    area: int
    path_count: int
    request_count: int

    @property
    def size_ratio(self) -> float:
        return self.output_size / max(1, self.input_size)

    @property
    def depth_per_log(self) -> float:
        return self.output_depth / math.log2(max(2, self.area))


def _inline_contexts(t: Tslp2D) -> tuple[Grammar2D, GeometryTable]:
    """An equivalent plain grammar, every context use expanded in place,
    and its geometry table, which the builder already holds.

    Memoized on (symbol, plugged hole contents), so a context applied to k
    distinct arguments is copied k times but never more.
    """
    rules = t.rules
    b = GrammarBuilder(dedup=True)
    memo: dict[tuple[int, int | None], int] = {}
    stack: list[tuple[int, int | None]] = [(t.start, None)]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        sym, plug = key
        r = rules[sym]
        k = r.kind
        if k == "term":
            memo[key] = b.terminal(r.char)
            stack.pop()
        elif k in ("h", "v"):
            x, y = (r.left, r.right) if k == "h" else (r.top, r.bottom)
            xk, yk = (x, None), (y, None)
            missing = [d for d in (xk, yk) if d not in memo]
            if missing:
                stack.extend(missing)
                continue
            op = b.h if k == "h" else b.v
            memo[key] = op(memo[xk], memo[yk])
            stack.pop()
        elif k == "apply":
            ak = (r.arg, None)
            if ak not in memo:
                stack.append(ak)
                continue
            ck = (r.ctx, memo[ak])
            if ck not in memo:
                stack.append(ck)
                continue
            memo[key] = memo[ck]
            stack.pop()
        elif k == "hole":
            gk = (r.ground, None)
            if gk not in memo:
                stack.append(gk)
                continue
            op = b.h if r.axis == "H" else b.v
            if r.hole_side == "first":
                memo[key] = op(plug, memo[gk])
            else:
                memo[key] = op(memo[gk], plug)
            stack.pop()
        elif k == "ctxcat":
            gk = (r.ground, None)
            ck = (r.ctx, plug)
            missing = [d for d in (gk, ck) if d not in memo]
            if missing:
                stack.extend(missing)
                continue
            op = b.h if r.axis == "H" else b.v
            if r.ctx_side == "first":
                memo[key] = op(memo[ck], memo[gk])
            else:
                memo[key] = op(memo[gk], memo[ck])
            stack.pop()
        else:  # compose
            ik = (r.inner, plug)
            if ik not in memo:
                stack.append(ik)
                continue
            ok = (r.outer, memo[ik])
            if ok not in memo:
                stack.append(ok)
                continue
            memo[key] = memo[ok]
            stack.pop()
    return b.finish(memo[(t.start, None)]), b.geometry()


def _spine_push(b: GrammarBuilder, spine: list, ctx: int, weight: int) -> None:
    """Append a context as the new outermost piece of a path's fold.

    ``spine`` holds (ctx, weight, acc) triples with weight classes strictly
    increasing toward the bottom, like a binary counter; ``acc`` is the
    composition of that entry with everything below it, so the full fold is
    always ``spine[-1][2]`` and consecutive snapshots share structure.
    """
    while spine and spine[-1][1].bit_length() <= weight.bit_length():
        inner, w2, _ = spine.pop()
        ctx = b.compose(ctx, inner)
        weight += w2
    acc = b.compose(ctx, spine[-1][2]) if spine else ctx
    spine.append((ctx, weight, acc))


def balance_to_tslp(
    g: Grammar2D | Tslp2D, geo: GeometryTable | None = None
) -> tuple[Tslp2D, BalanceStats]:
    """An equivalent grammar with holes whose depth is O(log area).

    Grammars that already use holes are first flattened to plain form (each
    context copied once per distinct argument).  Every plain node then becomes
    a one-hole context around its heavier child; maximal heavy chains are
    folded into weight-balanced composition trees, and each node another rule
    references gets a single ``apply`` of its chain suffix to the chain's end.
    """
    if geo is None:
        geo = compute_geometry(g)
    input_size = g.size
    input_depth = geo.depths[g.start]

    if any(r is not None and r.kind not in PLAIN_KINDS for r in g.rules):
        g, geo = _inline_contexts(g if isinstance(g, Tslp2D) else Tslp2D(
            rules=g.rules, start=g.start, labels=g.labels))
    inlined_size = g.size

    rules = g.rules
    H, W = geo.heights, geo.widths
    area = H[g.start] * W[g.start]
    order = reachable_topo(rules, g.start)
    b = GrammarBuilder(dedup=True)

    if rules[g.start].kind == "term":
        out = b.finish_tslp(b.terminal(rules[g.start].char))
        stats = BalanceStats(input_size, inlined_size, out.size, input_depth,
                             1, area, 0, 1)
        return out, stats

    weight = {s: H[s] * W[s] for s in order}
    topo_index = {s: i for i, s in enumerate(order)}

    def split(sym: int):
        """(heavy child, light child, axis, hole side of the heavy child)."""
        r = rules[sym]
        axis = "H" if r.kind == "h" else "V"
        x, y = (r.left, r.right) if r.kind == "h" else (r.top, r.bottom)
        if weight[y] > weight[x]:
            return y, x, axis, "second"
        return x, y, axis, "first"

    # Canonical heavy parent: the earliest parent continuing through a node.
    canon: dict[int, int] = {}
    requested: set[int] = {g.start}
    for z in order:
        if rules[z].kind == "term":
            continue
        heavy, light, _, _ = split(z)
        if rules[light].kind != "term":
            requested.add(light)
        if rules[heavy].kind != "term":
            prev = canon.get(heavy)
            if prev is None or topo_index[z] < topo_index[prev]:
                canon[heavy] = z
    for z in order:
        if rules[z].kind == "term":
            continue
        heavy, _, _, _ = split(z)
        if rules[heavy].kind != "term" and canon[heavy] != z:
            requested.add(heavy)

    bal: dict[int, int] = {}
    state: dict[int, tuple[list, int]] = {}
    path_count = 0
    for z in order:
        if rules[z].kind == "term":
            continue
        heavy, light, axis, hole_side = split(z)
        if rules[light].kind == "term":
            ground = b.terminal(rules[light].char)
        else:
            ground = bal[light]
        k_z = b.hole_concat(axis, hole_side, ground, H[heavy], W[heavy])
        if rules[heavy].kind == "term":
            spine: list = []
            fill = b.terminal(rules[heavy].char)
            path_count += 1
        elif canon[heavy] == z:
            spine, fill = state.pop(heavy)
        else:
            spine, fill = [], bal[heavy]
            path_count += 1
        _spine_push(b, spine, k_z, weight[light])
        if z in requested:
            bal[z] = b.apply(spine[-1][2], fill)
        if canon.get(z) is not None:
            state[z] = (spine, fill)

    out = b.finish_tslp(bal[g.start])
    stats = BalanceStats(
        input_size=input_size,
        inlined_size=inlined_size,
        output_size=out.size,
        input_depth=input_depth,
        output_depth=b.depth(out.start),
        area=area,
        path_count=path_count,
        request_count=len(requested),
    )
    return out, stats


def eliminate_contexts_1d(t: Tslp2D) -> Grammar1D:
    """Replace every context of a height-1 grammar by its two hole flanks.

    A one-dimensional context is a string with one hole, so it splits into
    the plain string left of the hole and the one right of it (either may be
    empty); applications become at most two concatenations.  Any vertical
    production makes the grammar two-dimensional and is rejected.
    """
    b = GrammarBuilder(dedup=True)
    return b.finish(_eliminate_contexts_1d(b, t))


def _eliminate_contexts_1d(b: GrammarBuilder, t: Tslp2D) -> int:
    """Add ``eliminate_contexts_1d(t)``'s symbols to ``b``; returns its root."""
    rules = t.rules

    def cat(x: int | None, y: int | None) -> int | None:
        if x is None:
            return y
        if y is None:
            return x
        return b.h(x, y)

    ground: dict[int, int] = {}
    flanks: dict[int, tuple[int | None, int | None]] = {}
    for sym in reachable_topo(rules, t.start):
        r = rules[sym]
        k = r.kind
        if k == "term":
            ground[sym] = b.terminal(r.char)
        elif k == "h":
            ground[sym] = b.h(ground[r.left], ground[r.right])
        elif k == "apply":
            yl, yr = flanks[r.ctx]
            ground[sym] = cat(cat(yl, ground[r.arg]), yr)
        elif k == "hole":
            if r.axis != "H":
                raise NotOneDimensional(f"vertical hole in symbol {t.label(sym)}")
            gid = ground[r.ground]
            flanks[sym] = (None, gid) if r.hole_side == "first" else (gid, None)
        elif k == "ctxcat":
            if r.axis != "H":
                raise NotOneDimensional(
                    f"vertical concatenation in symbol {t.label(sym)}"
                )
            yl, yr = flanks[r.ctx]
            gid = ground[r.ground]
            if r.ctx_side == "first":
                flanks[sym] = (yl, cat(yr, gid))
            else:
                flanks[sym] = (cat(gid, yl), yr)
        elif k == "compose":
            ol, orr = flanks[r.outer]
            il, ir = flanks[r.inner]
            flanks[sym] = (cat(ol, il), cat(ir, orr))
        else:  # plain vertical concatenation
            raise NotOneDimensional(f"vertical concatenation in symbol {t.label(sym)}")
    return ground[t.start]


def balance_1d(g: Grammar1D) -> Grammar1D:
    """Equivalent plain 1D grammar of logarithmic depth."""
    b = GrammarBuilder(dedup=True)
    return b.finish(_balance_1d(b, g, None))


def _balance_1d(b: GrammarBuilder, g: Grammar1D, geo: GeometryTable | None) -> int:
    """Add ``balance_1d(g)``'s symbols to ``b``; returns its root."""
    if geo is None:
        geo = compute_geometry(g)
    if geo.heights[g.start] != 1:
        raise NotOneDimensional(
            f"expansion is {geo.heights[g.start]} rows tall, expected 1"
        )
    t, _ = balance_to_tslp(g, geo)
    return _eliminate_contexts_1d(b, t)
