"""Depth reduction via contexts: heavy paths folded into balanced composes.

``balance_to_tslp`` rewrites an arbitrary grammar into an equivalent one with
holes whose derivation depth is at most the input's and logarithmic in the
expansion area (measured, with the constant reported in stats).  A symbol
whose depth is already within ``KEEP_SLACK`` of ⌈log2 area⌉ is copied as it
is.  Above those, the construction decomposes the DAG into heavy paths by
expansion weight, expresses each path node as a one-hole context around its
heavy child, and folds the per-path context sequences into weight-balanced
composition trees, so a query crossing a path pays the log-ratio of the
weights it skips rather than the path length.  A kept symbol adds at most
log2 of its own area + ``KEEP_SLACK`` below the fold, so the O(log area)
depth and O(g) size bounds still hold; if the fold would not beat the input's
depth, the input is returned instead.

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
    as_tslp,
    reachable_topo,
)
from .geometry import GeometryTable, compute_geometry

# A symbol of depth ≤ ⌈log2 area⌉ + KEEP_SLACK is already as shallow as a
# fold could make it, up to a constant, and is copied verbatim.
KEEP_SLACK = 6


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
    kept_count: int  # input symbols copied into the output verbatim

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
    """An equivalent grammar with holes of depth at most min(the input's
    depth, O(log area)).

    A grammar already shallow for its size, depth ≤ ⌈log2 area⌉ +
    ``KEEP_SLACK``, is returned as it is (``as_tslp``).  Others that use
    holes are first flattened to plain form (each context copied once per
    distinct argument).  A symbol as shallow for its own size is copied
    verbatim (terminals always are).  Every other node a fold can reach
    becomes a one-hole context around its heavier child; maximal heavy
    chains of such nodes are folded into weight-balanced composition trees
    over a kept ``fill``, with kept light children as their grounds, and
    each node another rule references gets a single ``apply`` of its chain
    suffix to the chain's end.  If the fold comes out deeper than the input,
    the input itself is returned.
    """
    if geo is None:
        geo = compute_geometry(g)
    source = g
    input_size = g.size
    input_depth = geo.depths[g.start]
    area = geo.area(g.start)

    def unchanged(inlined_size: int) -> tuple[Tslp2D, BalanceStats]:
        kept = len(reachable_topo(source.rules, source.start))
        return as_tslp(source), BalanceStats(
            input_size, inlined_size, input_size, input_depth, input_depth,
            area, 0, 0, kept)

    # Kept: depth ≤ ⌈log2 area⌉ + KEEP_SLACK, in integers; a terminal, of
    # area 1 and depth 1, always is.
    if input_depth <= (area - 1).bit_length() + KEEP_SLACK:
        return unchanged(input_size)

    if any(r is not None and r.kind not in PLAIN_KINDS for r in g.rules):
        g, geo = _inline_contexts(g if isinstance(g, Tslp2D) else Tslp2D(
            rules=g.rules, start=g.start, labels=g.labels))
    inlined_size = g.size

    rules = g.rules
    H, W, D = geo.heights, geo.widths, geo.depths
    order = reachable_topo(rules, g.start)

    # Top-down marks: a child of a folded node is folded (FOLD) unless it is
    # kept, and then it is copied, as is all below a copied node (COPY).
    # Each folded node is split into (heavy child, light child,
    # axis, hole side of the heavy child).  The canonical heavy parent of a
    # folded node is its earliest parent in ``order`` whose heavy child it
    # is (the last one met here); a second such parent, or a light one,
    # requests the node's own fold.
    FOLD, COPY = 1, 2
    mark = bytearray(len(rules))
    mark[g.start] = FOLD
    split: dict[int, tuple[int, int, str, str]] = {}
    canon: dict[int, int] = {}
    requested: set[int] = {g.start}
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
            if D[c] <= (H[c] * W[c] - 1).bit_length() + KEEP_SLACK:
                mark[c] |= COPY
            else:
                mark[c] |= FOLD
        axis = "H" if k == "h" else "V"
        if H[y] * W[y] > H[x] * W[x]:
            heavy, light, side = y, x, "second"
        else:
            heavy, light, side = x, y, "first"
        split[z] = (heavy, light, axis, side)
        if mark[light] & FOLD:
            requested.add(light)
        if mark[heavy] & FOLD:
            if heavy in canon:
                requested.add(heavy)
            canon[heavy] = z

    b = GrammarBuilder(dedup=True)
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
        heavy, light, axis, hole_side = split[z]
        ground = bal[light] if mark[light] & FOLD else copy[light]
        k_z = b.hole_concat(axis, hole_side, ground, H[heavy], W[heavy])
        if not mark[heavy] & FOLD:
            spine: list = []
            fill = copy[heavy]
            path_count += 1
        elif canon[heavy] == z:
            spine, fill = state.pop(heavy)
        else:
            spine, fill = [], bal[heavy]
            path_count += 1
        _spine_push(b, spine, k_z, H[light] * W[light])
        if z in requested:
            bal[z] = b.apply(spine[-1][2], fill)
        if z in canon:
            state[z] = (spine, fill)

    output_depth = b.depth(bal[g.start])
    if output_depth > input_depth:
        return unchanged(inlined_size)
    out = b.finish_tslp(bal[g.start])
    stats = BalanceStats(
        input_size=input_size,
        inlined_size=inlined_size,
        output_size=out.size,
        input_depth=input_depth,
        output_depth=output_depth,
        area=area,
        path_count=path_count,
        request_count=len(requested),
        kept_count=len(copy),
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
