"""Differential check of all seven production kinds against a reference painter.

The grammars come from ``random_tslp``, which covers both axes and both sides
of bare holes and context concatenations plus nested compositions and
applications.  The painter below derives every symbol's cells straight from
the opcode definitions of the text format, using neither the geometry table
nor ``matrix`` nor ``access``: those share that table, so they could agree
with each other and still be wrong.
"""

from __future__ import annotations

import numpy as np

from gridslp import (
    Apply,
    Compose,
    CtxConcat,
    GrammarBuilder,
    HConcat,
    HoleConcat,
    Terminal,
    VConcat,
    access_fast,
    access_tslp,
    balance_to_tslp,
    build_fast,
    compute_geometry,
    emit_grammar,
    expand,
    linearize_rows,
    parse_grammar,
    rebalance_plain_2d,
    rotate_cw,
    validate,
)
from gridslp.balance import _inline_contexts

from conftest import random_tslp
from reference_balance import eliminate_contexts_1d

SEEDS = range(300)
HEIGHT_ONE_SEEDS = range(40)
EPSILONS = (1.0, 3.0, 6.0)
#: Half the corpus keeps the rebalance check under a second.
REBALANCE_SEEDS = range(150)


def _plug(frame, block):
    """``frame`` with its hole cells (None) replaced by ``block``, which must
    match the hole exactly."""
    hole = [(i, j) for i, row in enumerate(frame) for j, v in enumerate(row) if v is None]
    assert len(hole) == len(block) * len(block[0])
    i0, j0 = hole[0]
    out = [row[:] for row in frame]
    for i, row in enumerate(block):
        for j, v in enumerate(row):
            assert out[i0 + i][j0 + j] is None
            out[i0 + i][j0 + j] = v
    return out


def paint(t):
    """Cells (None marks hole cells) and derivation depth of every symbol.

    ``T c`` is one cell; ``H``/``V`` glue equal heights/widths; ``HH``/``HV``
    put a p x q hole left/right of or above/below a ground block; ``CH``/
    ``CV`` put a context on the named side of a ground block; ``C`` plugs the
    inner context into the outer's hole and ``A`` plugs a ground block.
    """
    cells: dict[int, list] = {}
    depth: dict[int, int] = {}

    def go(sym):
        if sym in cells:
            return cells[sym]
        r = t.rules[sym]
        if isinstance(r, Terminal):
            out, kids = [[r.char]], ()
        elif isinstance(r, HConcat):
            a, b = go(r.left), go(r.right)
            assert len(a) == len(b)
            out, kids = [ra + rb for ra, rb in zip(a, b)], (r.left, r.right)
        elif isinstance(r, VConcat):
            a, b = go(r.top), go(r.bottom)
            assert len(a[0]) == len(b[0])
            out, kids = a + b, (r.top, r.bottom)
        elif isinstance(r, HoleConcat):
            g = go(r.ground)
            hole = [[None] * r.hole_w for _ in range(r.hole_h)]
            if r.axis == "H":
                assert r.hole_h == len(g)
                pairs = zip(hole, g) if r.hole_side == "first" else zip(g, hole)
                out = [x + y for x, y in pairs]
            else:
                assert r.hole_w == len(g[0])
                out = hole + g if r.hole_side == "first" else g + hole
            kids = (r.ground,)
        elif isinstance(r, CtxConcat):
            c, g = go(r.ctx), go(r.ground)
            a, b = (c, g) if r.ctx_side == "first" else (g, c)
            if r.axis == "H":
                assert len(a) == len(b)
                out = [ra + rb for ra, rb in zip(a, b)]
            else:
                assert len(a[0]) == len(b[0])
                out = a + b
            kids = (r.ctx, r.ground)
        elif isinstance(r, Compose):
            out, kids = _plug(go(r.outer), go(r.inner)), (r.outer, r.inner)
        else:
            assert isinstance(r, Apply)
            out, kids = _plug(go(r.ctx), go(r.arg)), (r.ctx, r.arg)
            assert all(v is not None for row in out for v in row)
        cells[sym] = out
        depth[sym] = 1 + max((depth[k] for k in kids), default=0)
        return out

    go(t.start)
    return cells, depth


def _check_all_paths(t):
    assert validate(t).ok
    cells, depth = paint(t)
    want = np.array(cells[t.start], dtype="<U1")
    assert (expand(t) == want).all()

    h, w = want.shape
    d = depth[t.start]
    geo = compute_geometry(t)
    indexes = [build_fast(t, eps) for eps in EPSILONS]
    for x in range(1, h + 1):
        for y in range(1, w + 1):
            ch, visits = access_tslp(t, x, y, geo=geo)
            assert (ch, visits <= d) == (want[x - 1, y - 1], True), (x, y)
            for idx in indexes:
                ch, visits = access_fast(idx, x, y)
                assert (ch, visits <= d) == (want[x - 1, y - 1], True), (x, y)

    assert (expand(_inline_contexts(t)) == want).all()
    assert (expand(balance_to_tslp(t)[0]) == want).all()

    text = emit_grammar(t)
    back = parse_grammar(text)
    assert (back.rules, back.start, back.labels) == (t.rules, t.start, t.labels)
    assert emit_grammar(back) == text
    return want


def _kind_key(r):
    side = getattr(r, "hole_side", None) or getattr(r, "ctx_side", None)
    return (r.kind, getattr(r, "axis", None), side)


def test_generator_covers_every_kind_axis_and_side():
    seen = set()
    nested = set()
    for seed in SEEDS:
        t = random_tslp(seed)
        for r in t.rules:
            seen.add(_kind_key(r))
            if isinstance(r, Compose) and any(
                isinstance(t.rules[c], Compose) for c in (r.outer, r.inner)
            ):
                nested.add("compose")
            if isinstance(r, Apply) and isinstance(t.rules[r.arg], Apply):
                nested.add("apply")
    want = {("term", None, None), ("h", None, None), ("v", None, None),
            ("apply", None, None), ("compose", None, None)}
    for kind in ("hole", "ctxcat"):
        for axis in ("H", "V"):
            for side in ("first", "second"):
                want.add((kind, axis, side))
    assert seen == want
    assert nested == {"compose", "apply"}


def test_every_path_and_transform_agrees_with_the_painter():
    for seed in SEEDS:
        _check_all_paths(random_tslp(seed))


def test_height_one_contexts_eliminate():
    for seed in HEIGHT_ONE_SEEDS:
        t = random_tslp(seed, height=1, width=2 + seed % 15)
        want = _check_all_paths(t)
        assert (expand(eliminate_contexts_1d(t)) == want).all(), seed


def test_linearize_and_rebalance_agree_with_the_painter():
    for seed in REBALANCE_SEEDS:
        t = random_tslp(seed)
        cells, _ = paint(t)
        want = np.array(cells[t.start], dtype="<U1")
        g = _inline_contexts(t)
        if want.shape[0] > want.shape[1]:
            g, want = rotate_cw(g), np.rot90(want, -1)
        assert (expand(linearize_rows(g)) == want.reshape(1, -1)).all(), seed
        assert (expand(rebalance_plain_2d(g)[0]) == want).all(), seed


def test_rebalance_pipeline_agrees_with_the_painter():
    """All but three of these corpus grammars pass the keep test, so the
    rebalance returns them as they are.  Chained 40 times side by side,
    each fails it, and the pipeline's output must be shallower and equal."""
    for seed in REBALANCE_SEEDS:
        t = random_tslp(seed)
        cells, _ = paint(t)
        want = np.array(cells[t.start], dtype="<U1")
        g = _inline_contexts(t)
        if want.shape[0] > want.shape[1]:
            g, want = rotate_cw(g), np.rot90(want, -1)
        b = GrammarBuilder.seeded(g)
        deep = b.finish(b.chain("H", [g.start] * 40))
        out, stats = rebalance_plain_2d(deep)
        assert stats.output_depth < stats.input_depth, seed
        assert (expand(out) == np.tile(want, (1, 40))).all(), seed
