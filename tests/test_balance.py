"""Balancing: TSLP output quality, context elimination, the 1D pipeline."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridslp import (
    GrammarBuilder,
    NotOneDimensional,
    Tslp2D,
    access_plain,
    access_tslp,
    balance_1d,
    balance_to_tslp,
    build_cnm,
    build_spiral,
    compute_geometry,
    expand,
    linearize_rows,
    random_grammar,
    rebalance_plain_2d,
    rotate_cw,
    validate,
)
from gridslp.balance import _inline_contexts, _shallow
from gridslp.grammar import PLAIN_KINDS
from gridslp.transforms import _linearize

from conftest import (
    caterpillar,
    example_tslp,
    fresh_geometry,
    glyph_quadtree,
    random_tslp,
    reachable_topo,
    sample_positions,
)
from reference_balance import eliminate_contexts_1d


class TestBalanceToTslp:
    def test_equivalence_small(self, small_corpus):
        for name, g in small_corpus:
            t, stats = balance_to_tslp(g)
            assert validate(t).ok, name
            assert (expand(t) == expand(g)).all(), name

    def test_depth_logarithmic_on_caterpillar(self):
        for links in (64, 256, 1024):
            g = caterpillar(links)
            t, stats = balance_to_tslp(g)
            assert (expand(t) == expand(g)).all()
            assert stats.output_depth <= 3 * math.log2(links + 1) + 10, links

    def test_varied_caterpillar_no_dedup_shortcut(self):
        rng = random.Random(6)
        text = "".join(rng.choice("abcd") for _ in range(600))
        g = caterpillar(len(text) - 1, text)
        t, stats = balance_to_tslp(g)
        assert "".join(expand(t)[0]) == text
        assert stats.output_depth <= 3 * math.log2(len(text)) + 10
        assert stats.output_size <= 16 * g.size

    def test_start_terminal(self):
        b = GrammarBuilder(dedup=False)
        g = b.finish(b.terminal("z"))
        t, _ = balance_to_tslp(g)
        assert expand(t).tolist() == [["z"]]

    def test_tslp_input_inlined_first(self):
        t0 = example_tslp()
        t, stats = balance_to_tslp(t0)
        assert validate(t).ok
        assert expand(t).tolist() == [["0", "1"], ["0", "1"]]
        assert stats.inlined_size >= 1

    def test_stats_fields(self):
        g = build_cnm(32, 32)
        t, stats = balance_to_tslp(g)
        assert stats.input_size == g.size
        assert stats.output_size == t.size
        geo = compute_geometry(t)
        assert stats.output_depth == geo.depths[t.start]
        assert stats.area == 32 * 32
        # Already shallow (depth 16 on 32x32): returned as it is, no fold.
        assert stats.path_count == 0
        g = build_spiral(256)
        t, stats = balance_to_tslp(g)
        assert 0 < stats.path_count <= stats.request_count

    def test_unchanged_input_keeps_every_symbol(self):
        """A shallow input comes back whole, so a symbol its start does not
        reach counts as kept too."""
        b = GrammarBuilder(dedup=False)
        a, c = b.terminal("a"), b.terminal("c")
        b.terminal("z")
        g = b.finish(b.h(a, c))
        assert len(reachable_topo(compute_geometry(g), g.start)) == 3
        t, stats = balance_to_tslp(g)
        assert t.rules == g.rules and stats.path_count == 0
        assert stats.kept_count == g.symbols == 4

    def test_output_is_tslp(self):
        g = build_cnm(16, 16)
        t, _ = balance_to_tslp(g)
        assert isinstance(t, Tslp2D)

    def test_every_folded_symbol_is_reachable(self):
        """A spine snapshot is composed only when a requested node reads it,
        so a fold emits no symbol its start does not reach."""
        cases = [build_spiral(256), build_spiral(1024), caterpillar(1023)]
        cases += [random_tslp(seed) for seed in range(100)]
        for g in cases:
            t, stats = balance_to_tslp(g)
            if stats.path_count:
                assert len(reachable_topo(compute_geometry(t), t.start)) == t.symbols

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 4_000), size=st.integers(2, 70))
    def test_random_equivalence(self, seed, size):
        g = random_grammar(seed, size, max_dim=24)
        t, _ = balance_to_tslp(g)
        assert validate(t).ok
        assert (expand(t) == expand(g)).all()

    def test_sampled_equivalence_spiral(self):
        g = build_spiral(512)
        geo = compute_geometry(g)
        t, _ = balance_to_tslp(g, geo)
        tgeo = compute_geometry(t)
        n, m = geo.dims(g.start)
        for x, y in sample_positions(n, m, 500, 31):
            assert (
                access_plain(g, x, y, geo=geo)[0]
                == access_tslp(t, x, y, geo=tgeo)[0]
            )


def _shape(g, sym: int, memo: dict) -> tuple:
    """The derivation below ``sym`` as nested tuples, ids left out."""
    if sym not in memo:
        r = g.rules[sym]
        if r.kind == "term":
            memo[sym] = ("term", r.char)
        elif r.kind not in PLAIN_KINDS:
            memo[sym] = (r.kind,)
        else:
            x, y = (r.left, r.right) if r.kind == "h" else (r.top, r.bottom)
            memo[sym] = (r.kind, _shape(g, x, memo), _shape(g, y, memo))
    return memo[sym]


class TestDepthAware:
    """Already-shallow symbols are kept, and no output is deeper than its input."""

    def _check(self, g, name):
        geo = compute_geometry(g)
        t, stats = balance_to_tslp(g, geo)
        assert stats.output_depth <= stats.input_depth == geo.depths[g.start], name
        assert stats.output_depth == compute_geometry(t).depths[t.start], name
        assert (expand(t) == expand(g)).all(), name
        return stats

    def _check_chained(self, name, g):
        """g chained 40 times side by side fails the keep test, which the
        random corpora mostly pass as they are, so the balancer folds it."""
        b = GrammarBuilder.seeded(g)
        deep = b.finish(b.chain("H", [g.start] * 40))
        geo = compute_geometry(deep)
        assert not _shallow(geo.depths[deep.start], geo.area(deep.start)), name
        assert self._check(deep, name).path_count > 0, name

    def test_never_deeper_on_corpus(self, small_corpus):
        for name, g in small_corpus:
            self._check(g, name)

    def test_never_deeper_on_random_grammars(self):
        for seed in range(60):
            self._check(random_grammar(seed, 30 + seed, max_dim=24), seed)

    def test_never_deeper_on_random_tslps(self):
        for seed in range(300):
            self._check(random_tslp(seed), seed)

    def test_never_deeper_on_chained_random_grammars(self):
        for seed in range(60):
            self._check_chained(seed, random_grammar(seed, 30 + seed, max_dim=24))

    def test_never_deeper_on_chained_random_tslps(self):
        for seed in range(300):
            self._check_chained(seed, random_tslp(seed))

    def test_quadtree_keeps_its_depth(self):
        m, g = glyph_quadtree()
        t, stats = balance_to_tslp(g)
        assert stats.input_depth == compute_geometry(g).depths[g.start] == 13
        assert stats.output_depth == stats.input_depth
        assert stats.path_count == 0
        assert t.rules == g.rules
        assert expand(t).tolist() == [list(row) for row in m]

    def test_shallow_rows_are_copied(self):
        """A vertical chain of 64 balanced rows of 64 is deep in 2D, so the
        rebalance runs, but each of its rows passes the keep test: the fold
        copies every linearized row symbol once, and the rows are stacked
        by 63 vertical joins, at the rows' depth 7 plus 6."""
        rng = random.Random(7)
        m = ["".join(rng.choice("ab") for _ in range(64)) for _ in range(64)]
        b = GrammarBuilder(dedup=True)
        g = b.finish(b.chain("V", [
            b.balanced("H", [b.terminal(c) for c in row]) for row in m]))
        geo = compute_geometry(g)
        assert not _shallow(geo.depths[g.start], 64 * 64)
        dag, rows = _linearize(g, geo)
        assert all(dag.keep[r] for r in rows)
        out, stats = rebalance_plain_2d(g)
        assert out.symbols == len(dag.left) + 63
        assert (stats.output_size, stats.output_depth) == (g.size, 13) == (1528, 13)
        assert expand(out).tolist() == [list(row) for row in m]

    def test_deep_corner_keeps_its_shallow_block(self):
        rng = random.Random(9)
        b = GrammarBuilder(dedup=False)
        level = [b.terminal(rng.choice("abcd")) for _ in range(64)]
        while len(level) > 1:
            level = [b.h(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        block = level[0]
        tail = b.terminal("z")
        for _ in range(999):
            tail = b.h(tail, b.terminal(rng.choice("xyz")))
        g = b.finish(b.h(block, tail))
        t, stats = balance_to_tslp(g)
        assert (expand(t) == expand(g)).all()
        assert stats.output_depth < stats.input_depth
        assert stats.output_depth <= 3 * math.log2(stats.area) + 10
        assert 0 < stats.path_count and stats.kept_count >= 127
        want = _shape(g, block, {})
        memo: dict = {}
        assert any(_shape(t, s, memo) == want for s in range(t.symbols))


class TestInlineContexts:
    def test_plain_grammar_unchanged_semantics(self):
        g = build_cnm(16, 16)
        flat = _inline_contexts(g)
        assert (expand(flat) == expand(g)).all()

    def test_balanced_output_inlines_linearly(self):
        g = build_spiral(256)
        t, _ = balance_to_tslp(g)
        flat = _inline_contexts(t)
        assert all(
            r.kind in PLAIN_KINDS for r in flat.rules if r is not None
        )
        assert (expand(flat) == expand(g)).all()
        # each (context, plug) pair is materialized at most once
        assert flat.symbols <= 4 * t.symbols

    def test_returns_the_builders_geometry(self):
        """The inlined grammar keeps its builder's table, equal to a fresh
        pass over a copy."""
        for seed in range(20):
            flat = _inline_contexts(random_tslp(seed))
            assert flat._geometry == fresh_geometry(flat), seed

    def test_holed_inputs_reuse_the_inlined_geometry(self, monkeypatch):
        """Given the input's table, neither pipeline runs a geometry pass."""
        import gridslp.grammar as grammar

        t = random_tslp(3)
        geo = compute_geometry(t)
        calls = []
        real = grammar._check

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(grammar, "_check", counted)
        for fn in (balance_to_tslp, rebalance_plain_2d):
            del calls[:]
            fn(t, geo)
            assert len(calls) == 0, fn.__name__


class TestEliminateContexts1D:
    def test_round_trip_through_balancer(self):
        rng = random.Random(40)
        text = "".join(rng.choice("xyz") for _ in range(300))
        g = caterpillar(len(text) - 1, text)
        t, _ = balance_to_tslp(g)
        out = eliminate_contexts_1d(t)
        assert validate(out).ok
        assert all(r.kind in ("term", "h") for r in out.rules if r is not None)
        assert "".join(expand(out)[0]) == text

    def test_depth_increase_bounded(self):
        g = caterpillar(800)
        t, stats = balance_to_tslp(g)
        out = eliminate_contexts_1d(t)
        ogeo = compute_geometry(out)
        assert ogeo.depths[out.start] <= 3 * stats.output_depth + 3

    def test_size_linear_in_input(self):
        rng = random.Random(41)
        text = "".join(rng.choice("ab01") for _ in range(500))
        g = caterpillar(len(text) - 1, text)
        t, _ = balance_to_tslp(g)
        out = eliminate_contexts_1d(t)
        assert out.size <= 3 * t.size

    def test_rejects_two_dimensional(self):
        t, _ = balance_to_tslp(build_cnm(16, 16))
        with pytest.raises(NotOneDimensional):
            eliminate_contexts_1d(t)


class TestBalance1D:
    def test_budgets_on_uniform_caterpillars(self):
        for e in (6, 8, 10):
            links = 1 << e
            g = caterpillar(links)
            out = balance_1d(g)
            assert validate(out).ok
            geo = compute_geometry(out)
            assert geo.dims(out.start) == (1, links + 1)
            assert "".join(expand(out)[0]) == "a" * (links + 1)
            assert geo.depths[out.start] <= 3 * math.log2(links + 1) + 10
            assert out.size <= 16 * links

    def test_rejects_tall_input(self):
        with pytest.raises(NotOneDimensional):
            balance_1d(build_cnm(16, 16))

    def test_holed_input_comes_back_plain(self):
        for seed in range(60):
            t = random_tslp(seed, height=1, width=2 + seed % 40)
            out = balance_1d(t)
            assert all(r.kind in PLAIN_KINDS for r in out.rules), seed
            assert (expand(out) == expand(t)).all(), seed

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2_000), n=st.integers(2, 400))
    def test_random_strings(self, seed, n):
        rng = random.Random(seed)
        text = "".join(rng.choice("ab") for _ in range(n))
        g = caterpillar(n - 1, text)
        out = balance_1d(g)
        assert "".join(expand(out)[0]) == text
        geo = compute_geometry(out)
        assert geo.depths[out.start] <= 3 * math.log2(n) + 10


def _dag(g, table: dict) -> tuple[int, int]:
    """The interned id of ``g``'s start and its count of reachable symbols.

    Ids are shared through ``table``, so two hash-consed plain grammars get
    equal pairs exactly when their reachable DAGs match up to renumbering.
    """
    ids: dict[int, int] = {}
    for sym in reachable_topo(compute_geometry(g), g.start):
        r = g.rules[sym]
        if r.kind == "term":
            key = ("term", r.char)
        else:
            x, y = (r.left, r.right) if r.kind == "h" else (r.top, r.bottom)
            key = (r.kind, ids[x], ids[y])
        ids[sym] = table.setdefault(key, len(table))
    return ids[g.start], len(ids)


class TestBalance1DAgainstHoledRoute:
    """``balance_1d`` folds straight into flank pairs; the route it replaced,
    ``eliminate_contexts_1d(balance_to_tslp(g))``, is the reference.  The
    output must be that DAG up to renumbering, or strictly shallower."""

    def _check(self, g, name):
        want = eliminate_contexts_1d(balance_to_tslp(g)[0])
        out = balance_1d(g)
        assert (expand(out) == expand(want)).all(), name
        depth = compute_geometry(out).depths[out.start]
        want_depth = compute_geometry(want).depths[want.start]
        table: dict = {}
        assert _dag(out, table) == _dag(want, table) or depth < want_depth, name
        return out, want

    def test_caterpillars(self):
        for links in range(1022, 1026):
            self._check(caterpillar(links), links)

    def test_random_strings(self):
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(2, 3000)
            text = "".join(rng.choice("abc"[: 1 + seed % 3]) for _ in range(n))
            self._check(caterpillar(n - 1, text), seed)

    def test_shallow_block_beside_a_caterpillar(self):
        rng = random.Random(9)
        b = GrammarBuilder(dedup=True)
        level = [b.terminal(rng.choice("abcd")) for _ in range(64)]
        while len(level) > 1:
            level = [b.h(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        tail = b.terminal("z")
        for _ in range(999):
            tail = b.h(tail, b.terminal(rng.choice("xyz")))
        self._check(b.finish(b.h(level[0], tail)), "block")

    def test_linearized_differential_corpus(self):
        for seed in range(150):
            g = _inline_contexts(random_tslp(seed))
            n, m = compute_geometry(g).dims(g.start)
            self._check(linearize_rows(g if n <= m else rotate_cw(g)), seed)

    def test_linearized_spirals(self):
        for n in (256, 1024):
            out, want = self._check(linearize_rows(build_spiral(n)), n)
            table: dict = {}
            assert _dag(out, table) == _dag(want, table), n

    def test_never_deeper_on_height_one_tslps(self):
        """Inlined height-1 ``random_tslp``s.  Where the holed fold would
        come out deeper than its input, the reference returns the input,
        while the flank fold, which can be shallower, is kept when it is no
        deeper; so here only the depth is compared.  On seeds 174 and 716
        the flank fold is deeper than its input and the input comes back."""
        for seed in range(800):
            g = _inline_contexts(random_tslp(seed, height=1, width=2 + seed % 60))
            want = eliminate_contexts_1d(balance_to_tslp(g)[0])
            out = balance_1d(g)
            assert (expand(out) == expand(want)).all(), seed
            assert (compute_geometry(out).depths[out.start]
                    <= compute_geometry(want).depths[want.start]), seed

    def test_shallow_input_comes_back_as_it_is(self):
        g = linearize_rows(build_cnm(16, 16))
        assert balance_1d(g) is g
