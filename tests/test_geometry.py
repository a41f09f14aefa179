"""Dimension, hole-placement, and depth bookkeeping for every production kind."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridslp import (
    Apply,
    DimensionMismatch,
    Grammar2D,
    GrammarBuilder,
    GridSlpError,
    HConcat,
    HoleConcat,
    Terminal,
    Tslp2D,
    VConcat,
    balance_to_tslp,
    build_cnm,
    build_cnm_sequence,
    build_spiral,
    compute_geometry,
    expand,
    linearize_rows,
    random_grammar,
    rebalance_plain_2d,
    validate,
)
from gridslp import grammar
from gridslp.balance import _inline_contexts

from conftest import example_tslp, fresh_geometry, random_tslp


def _builder_with_block(h, w, char="x"):
    """Builder primed with an h-by-w solid block; returns (builder, symbol)."""
    b = GrammarBuilder(dedup=True)
    s = b.terminal(char)
    row = s
    for _ in range(w - 1):
        row = b.h(row, s)
    blk = row
    for _ in range(h - 1):
        blk = b.v(blk, row)
    return b, blk


class TestGroundDims:
    def test_terminal(self):
        b = GrammarBuilder(dedup=False)
        t = b.terminal("q")
        geo = compute_geometry(b.finish(t))
        assert geo.dims(t) == (1, 1)
        assert geo.holes[t] is None
        assert geo.depths[t] == 1

    def test_h_concat_adds_widths(self):
        b, blk = _builder_with_block(2, 3)
        b2, blk2 = _builder_with_block(2, 4)
        # rebuild the second block in the first builder
        other = blk
        g = b.finish(b.h(blk, blk))
        geo = compute_geometry(g)
        assert geo.dims(g.start) == (2, 6)

    def test_v_concat_adds_heights(self):
        b, blk = _builder_with_block(2, 3)
        g = b.finish(b.v(blk, blk))
        geo = compute_geometry(g)
        assert geo.dims(g.start) == (4, 3)

    def test_depth_is_one_plus_max(self):
        b = GrammarBuilder(dedup=False)
        x = b.terminal("x")
        p = b.h(x, x)       # depth 2
        q = b.h(p, x)       # depth 3
        g = b.finish(b.v(q, q))
        geo = compute_geometry(g)
        assert geo.depths[x] == 1
        assert geo.depths[p] == 2
        assert geo.depths[q] == 3
        assert geo.depths[g.start] == 4


class TestContextGeometry:
    def test_hole_concat_h_axis_hole_first(self):
        b, blk = _builder_with_block(2, 3)
        c = b.hole_concat("H", "first", blk, 2, 5)
        geo = compute_geometry(b.finish_tslp(b.apply(c, _ground(b, 2, 5))))
        assert geo.dims(c) == (2, 8)
        assert geo.holes[c] == (2, 5, 1, 1)

    def test_hole_concat_h_axis_hole_second(self):
        b, blk = _builder_with_block(2, 3)
        c = b.hole_concat("H", "second", blk, 2, 5)
        geo = compute_geometry(b.finish_tslp(b.apply(c, _ground(b, 2, 5))))
        assert geo.dims(c) == (2, 8)
        assert geo.holes[c] == (2, 5, 1, 4)

    def test_hole_concat_v_axis(self):
        b, blk = _builder_with_block(2, 3)
        top = b.hole_concat("V", "first", blk, 4, 3)
        bot = b.hole_concat("V", "second", blk, 4, 3)
        g = b.finish_tslp(b.apply(top, _ground(b, 4, 3)))
        geo = compute_geometry(g)
        assert geo.dims(top) == (6, 3)
        assert geo.holes[top] == (4, 3, 1, 1)
        assert geo.dims(bot) == (6, 3)
        assert geo.holes[bot] == (4, 3, 3, 1)

    def test_ctx_concat_shifts_hole(self):
        b, blk = _builder_with_block(2, 3)
        c = b.hole_concat("H", "first", blk, 2, 5)     # hole at col 1
        shifted = b.ctx_concat("H", "second", c, blk)  # block to the left
        g = b.finish_tslp(b.apply(shifted, _ground(b, 2, 5)))
        geo = compute_geometry(g)
        assert geo.dims(shifted) == (2, 11)
        assert geo.holes[shifted] == (2, 5, 1, 4)

    def test_compose_translates_inner_hole(self):
        b, blk = _builder_with_block(2, 3)
        outer = b.hole_concat("H", "second", blk, 2, 8)  # hole at (1, 4), 2x8
        inner = b.hole_concat("V", "second", _ground(b, 1, 8), 1, 8)  # 2x8 frame
        c = b.compose(outer, inner)
        g = b.finish_tslp(b.apply(c, _ground(b, 1, 8)))
        geo = compute_geometry(g)
        assert geo.dims(c) == (2, 11)
        # inner hole (1,8)@(2,1) inside outer hole at (1,4):
        assert geo.holes[c] == (1, 8, 2, 4)

    def test_compose_checks_frame_against_hole(self):
        b, blk = _builder_with_block(2, 3)
        outer = b.hole_concat("H", "first", blk, 2, 5)
        wrong = b.hole_concat("H", "first", blk, 2, 3)  # frame 2x6 != hole 2x5
        with pytest.raises(DimensionMismatch):
            b.compose(outer, wrong)

    def test_apply_checks_plug(self):
        b, blk = _builder_with_block(2, 3)
        c = b.hole_concat("H", "first", blk, 2, 5)
        with pytest.raises(DimensionMismatch):
            b.apply(c, blk)  # 2x3 plug into 2x5 hole

    def test_apply_dims_equal_frame(self):
        t = example_tslp()
        geo = compute_geometry(t)
        assert geo.dims(t.start) == (2, 2)
        assert geo.holes[t.start] is None


def _ground(b, h, w):
    s = b.terminal("0")
    row = s
    for _ in range(w - 1):
        row = b.h(row, s)
    blk = row
    for _ in range(h - 1):
        blk = b.v(blk, row)
    return blk


class TestAgainstExpansion:
    """Geometry must agree with the materialized matrix, trivially but totally."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 5_000))
    def test_dims_match_expansion(self, seed):
        g = random_grammar(seed, 30, max_dim=24)
        geo = compute_geometry(g)
        m = expand(g, geo=geo)
        assert m.shape == geo.dims(g.start)

    def test_hole_position_matches_marker(self, small_corpus):
        for name, g in small_corpus:
            geo = compute_geometry(g)
            for sym, r in enumerate(g.rules):
                if r is None or geo.holes[sym] is None:
                    continue
                if geo.area(sym) > 20_000:
                    continue
                m = expand(g, sym, geo=geo)
                p, q, hr, hc = geo.holes[sym]
                patch = m[hr - 1 : hr - 1 + p, hc - 1 : hc - 1 + q]
                assert (patch == "#").all(), (name, sym)
                assert (m == "#").sum() == p * q, (name, sym)


GEOMETRY_FIELDS = ("heights", "widths", "holes", "depths", "entries")


class TestBrokenReferences:
    """An unvalidated grammar whose references are broken, or whose layout
    fails, raises the first violation ``validate`` reports, and keeps no
    table a later call would read."""

    @pytest.mark.parametrize("g,match", [
        pytest.param(Grammar2D((HConcat(1, 1), HConcat(0, 0)), 0),
                     r"\[cycle\]", id="cycle"),
        pytest.param(Grammar2D((Terminal("a"), HConcat(0, 2), None), 1),
                     r"\[undefined\]", id="undefined-child"),
        pytest.param(Grammar2D((Terminal("a"), HConcat(0, 5)), 1),
                     r"\[undefined\]", id="out-of-range-child"),
        pytest.param(Grammar2D((Terminal("a"), Terminal("b"), HConcat(1, -2)), 2),
                     r"\[undefined\]", id="negative-child"),
        pytest.param(Grammar2D((Terminal("x"), VConcat(0, 0), HConcat(0, 1)), 2),
                     r"\[dimension\] S2: h-concat heights differ", id="layout"),
        pytest.param(Grammar2D((Terminal("ab"), Terminal("c"), HConcat(0, 1)), 2),
                     r"\[kind\]", id="long-terminal"),
        pytest.param(Tslp2D((Terminal("a"), HoleConcat("X", "middle", 0, 1, 1),
                             Apply(1, 0)), 2),
                     r"\[kind\]", id="bad-axis-and-side"),
        pytest.param(Tslp2D((Terminal("a"), HoleConcat("H", "first", 0, 1.0, 1),
                             Apply(1, 0)), 2),
                     r"\[kind\] S1: hole dimensions 1.0x1 are not integers",
                     id="float-hole-size"),
    ])
    def test_raises_and_caches_nothing(self, g, match):
        for _ in range(2):
            with pytest.raises(GridSlpError, match=match) as e:
                compute_geometry(g)
            assert g._geometry is None
        assert str(e.value) == str(validate(g).violations[0])

    def test_overflow_raises_overflow_error(self):
        rules = [Terminal("x")] + [HConcat(i, i) for i in range(63)]
        g = Grammar2D(tuple(rules), 63)
        for _ in range(2):
            with pytest.raises(OverflowError, match="exceeds 2"):
                compute_geometry(g)
            assert g._geometry is None


class TestBuilderGeometry:
    """Each grammar a builder finishes keeps the builder's own geometry,
    equal to a fresh pass over a copy of its rules."""

    @pytest.fixture()
    def finished(self, monkeypatch):
        """Every grammar finished in a test."""
        seen = []
        for name in ("finish", "finish_tslp"):
            def record(b, start, _finish=getattr(GrammarBuilder, name)):
                g = _finish(b, start)
                seen.append(g)
                return g

            monkeypatch.setattr(GrammarBuilder, name, record)
        return seen

    @staticmethod
    def _check(seen):
        assert seen
        for g in seen:
            geo, fresh = g._geometry, fresh_geometry(g)
            assert geo is not None
            for f in GEOMETRY_FIELDS:
                assert getattr(geo, f) == getattr(fresh, f), f

    def test_gadgets(self, finished):
        build_spiral(256)
        build_cnm(16, 16)
        build_cnm_sequence(32, 16, 16, 3)
        for seed in range(5):
            random_grammar(seed, 40, max_dim=24)
        self._check(finished)

    def test_seeded_builder_extended(self, finished):
        t = random_tslp(7)
        b = GrammarBuilder.seeded(t)
        x = b.terminal("z")
        b.v(t.start, t.start)
        ctx = b.hole_concat("V", "second", b.h(x, x), 1, 2)
        ctx = b.ctx_concat("H", "first", ctx, b.v(x, x))
        inner = b.hole_concat("H", "first", x, 1, 1)
        b.finish_tslp(b.apply(b.compose(ctx, inner), x))
        self._check(finished)

    def test_balance_and_rebalance_builders(self, finished):
        g = build_spiral(256)
        del finished[:]
        balance_to_tslp(g)
        balance_to_tslp(random_tslp(3))
        out, _ = rebalance_plain_2d(g)
        # The rebalanced output is the last grammar finished; its builder
        # finishes once, after the balanced rows are stacked.
        assert finished[-1] == out
        self._check(finished)

    def test_made_grammars_are_looked_up(self, monkeypatch):
        """``compute_geometry`` runs no pass on a builder-made grammar, a
        balanced, rebalanced, linearized or inlined one, and the table it
        returns equals a fresh pass over a copy."""
        g, t = build_spiral(256), random_tslp(3)
        made = [g, balance_to_tslp(g)[0], balance_to_tslp(t)[0],
                rebalance_plain_2d(g)[0], linearize_rows(g), _inline_contexts(t)]
        calls = []
        real = grammar._check

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(grammar, "_check", counted)
        kept = [compute_geometry(out) for out in made]
        assert calls == []
        for out, geo in zip(made, kept):
            assert geo == fresh_geometry(out)
