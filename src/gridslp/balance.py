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
composing two contexts is two concatenations and applying one is at most two
more, and no holed symbol is ever built.  A plan may have many roots,
walked in one post-order (``grammar._post_order``, the package's one
depth-first walk over child lists) with one shared state: ``balance_1d``
folds one string, and the 2D rebalance folds a grammar's N linearized rows
at once, copying each row that passes the keep test.  The plan and the fold read the grammar
as flat per-symbol child lists with the keep test computed once (``_Dag``):
from a geometry table's int64 view (``GeometryTable.columns``), or from the
rebalance's array linearization, which never becomes productions.  The plan
marks the symbols in one scalar pass over the reversed post-order and
derives the rest as whole numpy arrays: the splits, the requests, and each
folded node's canonical heavy parent, its folded heavy parent of lowest
post-order rank, through which the fold continues the node's heavy path.
The fold reads them as flat per-symbol lists.  Input whose geometry table
has a hole is first flattened to plain form (``_plain``, by
``_inline_contexts``), which follows the table's ``layout`` entries (child
boxes, offsets and holes), not the production kinds, which only ``grammar``
and ``textio`` name.  Every
grammar made here comes out of a ``GrammarBuilder``, which keeps the table
it laid out while building on the grammar it finishes, so the inlined
grammar and both outputs are never laid out a second time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grammar import (
    GeometryTable,
    Grammar1D,
    Grammar2D,
    GrammarBuilder,
    NotOneDimensional,
    Tslp2D,
    _post_order,
    _table,
    as_tslp,
    compute_geometry,
)

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
    (``_inline_contexts``) if any symbol has a hole."""
    geo = _table(g, geo)
    if any(geo.holes):
        g = _inline_contexts(g, geo)
        geo = compute_geometry(g)
    return g, geo


def _inline_contexts(t: Grammar2D, geo: GeometryTable | None = None) -> Grammar2D:
    """An equivalent plain grammar, every context use expanded in place,
    which keeps its builder's geometry table.

    Follows the ``layout`` entries: a second child that spans the whole
    frame is a context whose hole box 1 fills; otherwise the two boxes (or
    box 1 and the hole) sit side by side.  Memoized on (symbol, plugged hole
    contents), so a context applied to k distinct arguments is copied k
    times but never more.
    """
    geo = _table(t, geo)
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
    return b.finish(memo[(t.start, None)])


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


def _keep(depth: np.ndarray, area: np.ndarray) -> np.ndarray:
    """The keep test over int64 arrays of areas below 2**63: ``_shallow``
    holds iff area - 1 ≥ 2**(depth - KEEP_SLACK - 1), in integer shifts."""
    k = depth - (KEEP_SLACK + 1)
    return (k < 0) | ((area - 1) >> np.clip(k, 0, 63) > 0)


def _dag_of(geo: GeometryTable) -> _Dag:
    """The ``_Dag`` of a plain grammar, read off its geometry table's int64
    view (a second child offset by columns sits beside the first), with
    the areas and the keep test on Python ints: a 2D area reaches 2**124."""
    (c1, _, _, c2, _, dy2), (_, _, depths), _ = geo.columns
    op = np.where(dy2 > 0, "H", "V").astype(object)
    leaves = np.flatnonzero(c1 < 0)
    op[leaves] = [geo.entries[z] for z in leaves.tolist()]
    area = [h * w if h is not None else 0 for h, w in zip(geo.heights, geo.widths)]
    keep = list(map(_shallow, depths.tolist(), area))
    return _Dag(c1.tolist(), c2.tolist(), op.tolist(), area, keep)


class _Plan(NamedTuple):
    """What ``_plan`` hands ``_fold``, as flat per-symbol lists.

    ``order`` is the post-order of the symbols below the starts and
    ``mark[z]`` the FOLD and COPY bits of each.  A folded node ``z`` has its
    heavier child ``heavy[z]``, its lighter child ``light[z]`` and the heavy
    child's side ``side[z]`` (``"first"`` or ``"second"``); other symbols
    hold ``-1`` and ``None``.  ``canon[h]`` is the canonical heavy parent of
    a folded ``h``, ``-1`` if it is no folded node's heavy child, and
    ``requested[z]`` says whether ``z``'s fold is built as its own symbol.
    """

    order: list
    mark: bytearray
    heavy: list
    light: list
    side: list
    canon: list
    requested: list


#: ``_Plan.side`` by whether the heavy child is the second.
_SIDES = np.array(["first", "second"], dtype=object)


def _plan(dag: _Dag, starts: list[int]) -> _Plan:
    """The top-down pass every fold shares: marks, splits and requests.

    Each start is copied (COPY) if it passes the keep test and folded
    (FOLD) otherwise.  A child of a folded node is folded unless it is
    kept, and then it is copied, as is all below a copied node.  The marks
    take one scalar pass over the reversed post-order; the rest is whole
    arrays over the folded nodes.  Each is split into its heavy child, the
    one of larger area (the first on a tie), and its light child.  The
    canonical heavy parent of a folded node is its folded parent of lowest
    post-order rank whose heavy child it is; a second such parent, or a
    light one, requests the node's own fold, as does being a folded start.
    """
    left, right, _, area, keep = dag
    n = len(left)
    order = _post_order(left, right, starts)
    # What a child of a folded node becomes.
    kid = [COPY if k else FOLD for k in keep]
    mark = bytearray(n)
    for s in starts:
        mark[s] = kid[s]
    for z in reversed(order):
        x = left[z]
        if x < 0:
            continue
        y = right[z]
        m = mark[z]
        c = m & COPY
        if m & FOLD:
            mark[x] |= kid[x] | c
            mark[y] |= kid[y] | c
        else:
            mark[x] |= c
            mark[y] |= c

    folded = np.frombuffer(mark, dtype=np.uint8) & FOLD > 0
    post = np.fromiter(order, np.int64, len(order))
    L = np.fromiter(left, np.int64, n)
    z = post[folded[post] & (L[post] >= 0)]  # the folded nodes, in post-order
    x, y = L[z], np.fromiter(right, np.int64, n)[z]
    try:
        A = np.fromiter(area, np.int64, n)
    except OverflowError:  # a 2D area reaches 2**124
        A = np.array(area, dtype=object)
    second = A[y] > A[x]
    hv, lt = np.where(second, y, x), np.where(second, x, y)
    # Rows: heavy, light, canon, requested.
    out = np.full((4, n), -1)
    out[0, z], out[1, z] = hv, lt
    # A folded heavy child's canon is its first such parent in post-order,
    # and a second one requests it.
    on_path = folded[hv]
    first = np.full(n, len(z))
    np.minimum.at(first, hv[on_path], np.flatnonzero(on_path))
    out[2] = np.append(z, -1)[first]
    req = out[3]
    req[:] = np.bincount(hv[on_path], minlength=n) > 1
    req[lt[folded[lt]]] = 1
    req[starts] |= folded[starts]
    side = np.full(n, None)
    side[z] = _SIDES[second.view(np.uint8)]
    heavy, light, canon, requested = out.tolist()
    return _Plan(order, mark, heavy, light, side.tolist(), canon, requested)


def _fold(b: GrammarBuilder, dag: _Dag, plan: _Plan, hole, compose, apply):
    """Run ``plan`` into ``b`` with one context algebra.

    ``hole(axis, side, ground, heavy)`` makes the context of a folded node
    around its heavy child, ``compose(outer, inner)`` nests two contexts,
    and ``apply(ctx, fill)`` plugs one into a ground symbol.  Each heavy
    path's contexts go on a spine of ``[ctx, weight, acc]`` entries whose
    weight classes strictly increase toward the bottom, like a binary
    counter; ``acc`` is the composition of that entry with everything below
    it and is made only when a requested node reads the spine (``None``
    until then), so consecutive snapshots share structure and none is built
    that no symbol reaches.  A path continues through each node's canonical
    heavy parent.  Returns, per symbol, its fold (requested nodes) and its
    copy (copied nodes), ``None`` elsewhere, and the number of heavy paths.
    """
    left, right, op, area = dag.left, dag.right, dag.op, dag.area
    order, mark, heavy, light, side, canon, requested = plan
    copy: list = [None] * len(left)
    bal: list = [None] * len(left)
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
        h, lt = heavy[z], light[z]
        weight = area[lt]
        ctx = hole(op[z], side[z], bal[lt] if mark[lt] & FOLD else copy[lt], h)
        if not mark[h] & FOLD:
            spine: list = []
            fill = copy[h]
            path_count += 1
        elif canon[h] == z:
            spine, fill = state.pop(h)
        else:
            spine, fill = [], bal[h]
            path_count += 1
        while spine and spine[-1][1].bit_length() <= weight.bit_length():
            inner, w2, _ = spine.pop()
            ctx = compose(ctx, inner)
            weight += w2
        spine.append([ctx, weight, None if spine else ctx])
        if requested[z]:
            i = len(spine) - 1
            while spine[i][2] is None:
                i -= 1
            acc = spine[i][2]
            for e in spine[i + 1:]:
                acc = e[2] = compose(e[0], acc)
            bal[z] = apply(acc, fill)
        if canon[z] >= 0:
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
    geo = _table(g, geo)
    source = g
    input_size = g.size
    input_depth = geo.depths[g.start]
    area = geo.area(g.start)

    def unchanged(inlined_size: int) -> tuple[Tslp2D, BalanceStats]:
        # Every input symbol comes back verbatim.
        return as_tslp(source), BalanceStats(
            input_size, inlined_size, input_size, input_depth, input_depth,
            area, 0, 0, source.symbols)

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
        request_count=sum(plan.requested),
        kept_count=len(copy) - copy.count(None),
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
        # cat, twice, inline: the fold composes about once per node.
        x, y = outer[0], inner[0]
        u, v = inner[1], outer[1]
        return (y if x is None else x if y is None else h(x, y),
                v if u is None else u if v is None else h(u, v))

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
    return b, [copy[s] if bal[s] is None else bal[s] for s in starts]
