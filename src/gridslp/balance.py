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

One plan (``_plan``: the marks, heavy/light splits and requested nodes) and
one fold (``_fold``) serve two context algebras.  ``balance_to_tslp`` makes
contexts as holed symbols.  The plain 1D route (``_fold_1d``) makes each
context as the pair of plain strings left and right of its hole, so
composing two contexts is two concatenations and applying one is at most
two more, and no holed symbol is ever built.  A plan may have many roots,
walked in one post-order with one shared ``seen``: ``balance_1d`` folds one
string, and the 2D rebalance folds a grammar's N linearized rows at once,
copying each row that passes the keep test.  The plan and the fold read the
grammar as flat per-symbol child lists with the keep test computed once
(``_Dag``): from a geometry table's entries, or from the rebalance's array
linearization, which never becomes productions.  Holed input is first
flattened to plain form (``_plain``, by ``_inline_contexts``), which follows
the geometry table's ``layout`` entries (child boxes, offsets and holes),
not the production kinds, which only ``grammar`` and ``textio`` name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


def _shallow(depth: int, area: int) -> bool:
    """The keep test: depth ≤ ⌈log2 area⌉ + ``KEEP_SLACK``, in integers (a
    terminal, of area 1 and depth 1, always passes)."""
    return depth <= (area - 1).bit_length() + KEEP_SLACK


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


def _plain(
    g: Grammar2D, geo: GeometryTable | None = None
) -> tuple[Grammar2D, GeometryTable]:
    """``g`` and its geometry table, with its contexts inlined first
    (``_inline_contexts``) if any rule has a hole."""
    if any(r is not None and r.kind not in PLAIN_KINDS for r in g.rules):
        return _inline_contexts(g, geo)
    return g, compute_geometry(g) if geo is None else geo


def _inline_contexts(
    t: Grammar2D, geo: GeometryTable | None = None
) -> tuple[Grammar2D, GeometryTable]:
    """An equivalent plain grammar, every context use expanded in place,
    and its geometry table, which the builder already holds.

    Follows the ``layout`` entries: a second child that spans the whole
    frame is a context whose hole box 1 fills; otherwise the two boxes (or
    box 1 and the hole) sit side by side.  Memoized on (symbol, plugged hole
    contents), so a context applied to k distinct arguments is copied k
    times but never more.
    """
    if geo is None:
        geo = compute_geometry(t)
    H, W, HOLE, E = geo.heights, geo.widths, geo.holes, geo.entries
    b = GrammarBuilder(dedup=True)
    memo: dict[tuple[int, int | None], int] = {}
    stack: list[tuple[int, int | None]] = [(t.start, None)]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        sym, plug = key
        e = E[sym]
        if e.__class__ is str:
            memo[key] = b.terminal(e)
            stack.pop()
            continue
        c1, x1, y1, _, _, c2, _, _ = e
        # A child gets the plug iff it has a hole.
        k1 = (c1, None if HOLE[c1] is None else plug)
        if c2 is not None and H[c2] == H[sym] and W[c2] == W[sym]:
            if k1 not in memo:
                stack.append(k1)
                continue
            k2 = (c2, memo[k1])
            if k2 not in memo:
                stack.append(k2)
                continue
            memo[key] = memo[k2]
        else:
            k2 = None if c2 is None else (c2, None if HOLE[c2] is None else plug)
            missing = [k for k in (k1, k2) if k is not None and k not in memo]
            if missing:
                stack.extend(missing)
                continue
            op = b.h if H[c1] == H[sym] else b.v
            first, second = memo[k1], plug if k2 is None else memo[k2]
            memo[key] = op(first, second) if x1 == y1 == 0 else op(second, first)
        stack.pop()
    return b.finish(memo[(t.start, None)]), b.geometry()


# Marks of the shared plan: a node a fold decomposes, one copied verbatim.
FOLD, COPY = 1, 2

class _Dag(NamedTuple):
    """A plain grammar as flat per-symbol lists, what ``_plan`` and
    ``_fold`` read.

    ``left[z]`` and ``right[z]`` are a concat's first and second child (top
    and bottom for a vertical one), ``-1`` for a terminal; ``op[z]`` is the
    concat's axis, ``"H"`` or ``"V"``, or the terminal's character.
    ``area[z]`` is the expansion's area and ``keep[z]`` its keep test.
    """

    left: list
    right: list
    op: list
    area: list
    keep: list


def _dag(left, right, op, area, depths) -> _Dag:
    """A ``_Dag`` from its lists and the symbols' depths (``None`` for a
    symbol without geometry), running the keep test on Python ints: a 2D
    area reaches 2**124."""
    keep = [d is not None and _shallow(d, a) for d, a in zip(depths, area)]
    return _Dag(left, right, op, area, keep)


def _dag_of(geo: GeometryTable) -> _Dag:
    """The ``_Dag`` of a plain grammar, read off its geometry table's
    ``layout`` entries (a second child offset by columns sits beside the
    first)."""
    n = len(geo.entries)
    left, right, op = [-1] * n, [-1] * n, [None] * n
    for z, e in enumerate(geo.entries):
        if e.__class__ is str:
            op[z] = e
        elif e is not None:
            left[z], right[z], op[z] = e[0], e[5], "H" if e[7] else "V"
    area = [h * w if h is not None else 0 for h, w in zip(geo.heights, geo.widths)]
    return _dag(left, right, op, area, geo.depths)


def _post_order(left, right, starts: list[int]) -> list[int]:
    """``reachable_topo`` over a ``_Dag``'s child lists, from each of
    ``starts`` in turn with one shared ``seen``: the same depth-first
    post-order (second child's subtree first), which decides ``_plan``'s
    canonical heavy parents."""
    order: list[int] = []
    seen = bytearray(len(left))
    # ~sym (negative) marks a symbol whose children are done; the starts are
    # popped first to last, each after all below the one before it.
    stack = starts[::-1]
    while stack:
        z = stack.pop()
        if z < 0:
            order.append(~z)
            continue
        if seen[z]:
            continue
        seen[z] = 1
        stack.append(~z)
        x = left[z]
        if x >= 0:
            if not seen[x]:
                stack.append(x)
            y = right[z]
            if not seen[y]:
                stack.append(y)
    return order


def _plan(dag: _Dag, starts: list[int]):
    """The top-down pass every fold shares: marks, splits and requests.

    Each start is copied (COPY) if it passes the keep test and folded
    (FOLD) otherwise.  A child of a folded node is folded unless it is
    kept, and then it is copied, as is all below a copied node.  Each
    folded node is split into (heavy child, light child, axis, hole side of
    the heavy child, light child's area).  The canonical heavy parent of a
    folded node is its earliest parent in ``order`` whose heavy child it is
    (the last one met here); a second such parent, or a light one, requests
    the node's own fold, as does being a folded start.
    """
    left, right, op, area, keep = dag
    order = _post_order(left, right, starts)
    mark = bytearray(len(left))
    requested: set[int] = set()
    for s in starts:
        if keep[s]:
            mark[s] |= COPY
        else:
            mark[s] |= FOLD
            requested.add(s)
    split: dict[int, tuple[int, int, str, str, int]] = {}
    canon: dict[int, int] = {}
    for z in reversed(order):
        m = mark[z]
        x = left[z]
        if not m or x < 0:
            continue
        y = right[z]
        if m & COPY:
            mark[x] |= COPY
            mark[y] |= COPY
        if not m & FOLD:
            continue
        mark[x] |= COPY if keep[x] else FOLD
        mark[y] |= COPY if keep[y] else FOLD
        if area[y] > area[x]:
            heavy, light, side = y, x, "second"
        else:
            heavy, light, side = x, y, "first"
        split[z] = (heavy, light, op[z], side, area[light])
        if mark[light] & FOLD:
            requested.add(light)
        if mark[heavy] & FOLD:
            if heavy in canon:
                requested.add(heavy)
            canon[heavy] = z
    return order, mark, split, canon, requested


def _fold(b: GrammarBuilder, dag: _Dag, plan, hole, compose, apply):
    """Run ``plan`` into ``b`` with one context algebra.

    ``hole(axis, side, ground, heavy)`` makes the context of a folded node
    around its heavy child, ``compose(outer, inner)`` nests two contexts,
    and ``apply(ctx, fill)`` plugs one into a ground symbol.  Each heavy
    path's contexts go on a spine of ``[ctx, weight, acc]`` entries whose
    weight classes strictly increase toward the bottom, like a binary
    counter; ``acc`` is the composition of that entry with everything below
    it and is made only when a requested node reads the spine (``None``
    until then), so consecutive snapshots share structure and none is built
    that no symbol reaches.  Returns the folded (requested) and copied
    symbols and the number of heavy paths.
    """
    left, right, op = dag.left, dag.right, dag.op
    order, mark, split, canon, requested = plan
    copy: dict[int, int] = {}
    bal: dict[int, int] = {}
    state: dict[int, tuple[list, int]] = {}
    path_count = 0
    for z in order:
        m = mark[z]
        if m & COPY:
            x = left[z]
            if x < 0:
                copy[z] = b.terminal(op[z])
            elif op[z] == "H":
                copy[z] = b.h(copy[x], copy[right[z]])
            else:
                copy[z] = b.v(copy[x], copy[right[z]])
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

    if _shallow(input_depth, area):
        return unchanged(input_size)

    g, geo = _plain(g, geo)
    inlined_size = g.size

    H, W = geo.heights, geo.widths
    dag = _dag_of(geo)
    # The input failed the keep test, so its start is folded even where
    # inlining its contexts made it pass.
    dag.keep[g.start] = False
    plan = _plan(dag, [g.start])
    b = GrammarBuilder(dedup=True)
    bal, copy, path_count = _fold(
        b, dag, plan,
        lambda axis, side, ground, heavy: b.hole_concat(
            axis, side, ground, H[heavy], W[heavy]),
        b.compose, b.apply)

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
        request_count=len(plan[4]),
        kept_count=len(copy),
    )
    return out, stats


def _flanks(b: GrammarBuilder):
    """The 1D context algebra over ``b``: ``(hole, compose, apply)``.

    A one-dimensional context is a string with one hole, so it is the pair
    of plain strings left and right of the hole, ``None`` where empty.
    Composing two is two concatenations and applying one at most two more.
    """
    h = b.h

    def cat(x: int | None, y: int | None) -> int | None:
        if x is None:
            return y
        if y is None:
            return x
        return h(x, y)

    def hole(axis: str, side: str, ground: int, heavy: int | None):
        return (None, ground) if side == "first" else (ground, None)

    def compose(outer, inner):
        return cat(outer[0], inner[0]), cat(inner[1], outer[1])

    def apply(ctx, fill: int) -> int:
        return cat(cat(ctx[0], fill), ctx[1])

    return hole, compose, apply


def balance_1d(g: Grammar1D) -> Grammar1D:
    """Equivalent plain 1D grammar of depth at most min(the input's depth,
    O(log length)); an input already that shallow is returned as it is.

    Holed input is first flattened to plain form, like ``balance_to_tslp``'s.
    """
    geo = compute_geometry(g)
    if geo.heights[g.start] != 1:
        raise NotOneDimensional(
            f"expansion is {geo.heights[g.start]} rows tall, expected 1"
        )
    g, geo = _plain(g, geo)
    dag = _dag_of(geo)
    if dag.keep[g.start]:
        return g
    b, (root,) = _fold_1d(dag, [g.start])
    return g if b.depth(root) > geo.depths[g.start] else b.finish(root)


def _fold_1d(dag: _Dag, starts: list[int]) -> tuple[GrammarBuilder, list[int]]:
    """The balanced forms of plain height-1 symbols ``starts``, built in one
    new builder: the fold of each start that fails the keep test, the copy
    of each that passes it.

    The fold runs ``balance_to_tslp``'s plan with flank pairs (``_flanks``)
    for contexts, so no holed symbol is ever made.
    """
    b = GrammarBuilder(dedup=True)
    bal, copy, _ = _fold(b, dag, _plan(dag, starts), *_flanks(b))
    return b, [bal[s] if s in bal else copy[s] for s in starts]
