"""Accelerated access: predecessor sets, unwinding, the array build against
the scalar painter, and the query loop."""

from __future__ import annotations

import gc
import json
import math
import tracemalloc
from dataclasses import replace
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridslp import (
    FastParams,
    GrammarBuilder,
    HoleConcat,
    InternalHoleHit,
    OutOfBounds,
    ParameterError,
    Terminal,
    Tslp2D,
    access_fast,
    access_plain,
    access_tslp,
    balance_to_tslp,
    bench_access,
    build_fast,
    build_shiftbin,
    build_spiral,
    compute_geometry,
    expand,
    random_grammar,
    validate,
)
from gridslp import fastaccess

from conftest import near_bound_grammar, random_tslp, reachable_topo, sample_positions
from reference_index import PredecessorSet, _unwind, reference_build


def _linear_pred(keys, x):
    best = None
    for k in keys:
        if k <= x and (best is None or k > best):
            best = k
    return best


class TestPredecessorSet:
    def test_against_linear_scan(self):
        keys = (1, 4, 9, 9 + 7, 100, 1_000_003)
        s = PredecessorSet(keys)
        for x in range(-2, 120):
            assert s.pred(x) == _linear_pred(keys, x), x
        assert s.pred(10**9) == 1_000_003

    def test_rank_indexes_keys(self):
        s = PredecessorSet((5, 10, 20))
        assert s.rank(4) == -1
        assert s.rank(5) == 0
        assert s.rank(19) == 1
        assert s.rank(10**6) == 2
        assert len(s) == 3

    def test_pred_between_and_below_keys(self):
        s = PredecessorSet((3, 8))
        assert s.pred(7) == 3
        assert s.pred(2) is None

    @settings(max_examples=80, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 10_000), min_size=1, max_size=60, unique=True),
        x=st.integers(-5, 10_005),
    )
    def test_random_keys(self, keys, x):
        s = PredecessorSet(tuple(sorted(keys)))
        assert s.pred(x) == _linear_pred(keys, x)
        assert s.rank(x) == bisect_right(s.keys, x) - 1


class TestFastParams:
    def test_levels_grow_with_area(self):
        p20 = FastParams.from_area(1 << 20, 3.0)
        assert (p20.levels, p20.b_bound) == (4, 16)
        p8 = FastParams.from_area(1 << 8, 3.0)
        assert p8.levels == 3
        assert FastParams.from_area(1 << 40, 3.0).levels == 5

    def test_epsilon_scales_levels(self):
        area = 1 << 20
        lo = FastParams.from_area(area, 1.0)
        hi = FastParams.from_area(area, 9.0)
        assert lo.levels <= FastParams.from_area(area, 3.0).levels <= hi.levels
        assert hi.levels == 3 * FastParams.from_area(area, 3.0).levels

    def test_tiny_area_floor(self):
        assert FastParams.from_area(1, 3.0).levels == 1
        assert FastParams.from_area(2, 0.01).levels == 1

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ParameterError):
            FastParams.from_area(100, 0.0)
        with pytest.raises(ParameterError):
            FastParams.from_area(100, -1.5)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_epsilon(self, epsilon):
        with pytest.raises(ParameterError):
            FastParams.from_area(100, epsilon)

    def test_at_most_62_levels(self):
        # log2 log2 2^16 = 4, so K = ⌊ε·4/3⌋.
        assert FastParams.from_area(1 << 16, 46.5).levels == 62
        for epsilon in (47.25, 1e12, 1e308):
            with pytest.raises(ParameterError, match="more than 62 unwinding levels"):
                FastParams.from_area(1 << 16, epsilon)


def _region_area(region):
    _, x1, y1, x2, y2, hole = region
    area = (x2 - x1 + 1) * (y2 - y1 + 1)
    if hole is not None:
        hx1, hy1, hx2, hy2 = hole
        area -= (hx2 - hx1 + 1) * (hy2 - hy1 + 1)
    return area


def _hole_area(geo, sym):
    hole = geo.holes[sym]
    return 0 if hole is None else hole[0] * hole[1]


def _in_own_hole(geo, sym, x, y):
    hole = geo.holes[sym]
    if hole is None:
        return False
    p, q, hr, hc = hole
    return hr <= x < hr + p and hc <= y < hc + q


class TestIndexStructure:
    def test_frontier_tiles_each_symbol(self, small_corpus):
        for name, g in small_corpus:
            t, _ = balance_to_tslp(g)
            idx = build_fast(t)
            k = idx.params.levels
            for sym in reachable_topo(compute_geometry(t), t.start):
                regions, _, _ = _unwind(sym, idx.geo, k)
                h, w = idx.geo.dims(sym)
                covered = sum(_region_area(r) for r in regions)
                assert covered + _hole_area(idx.geo, sym) == h * w, (name, sym)
                assert len(regions) <= idx.params.b_bound

    def test_total_cells_bound(self, small_corpus):
        for name, g in small_corpus:
            t, _ = balance_to_tslp(g)
            idx = build_fast(t)
            bound = len(idx.grids) * (idx.params.b_bound + 2) ** 2
            assert idx.total_cells <= bound, name

    def test_frontier_entries_resolve(self):
        """Each region resolves to one terminal cell or one whole symbol."""
        t, _ = balance_to_tslp(build_shiftbin(3))
        geo = compute_geometry(t)
        for sym in reachable_topo(compute_geometry(t), t.start):
            regions, _, _ = _unwind(sym, geo, build_fast(t).params.levels)
            for value, x1, y1, x2, y2, hole in regions:
                if value[0] < 0:
                    assert value[0] == -1 and value[2] == 0
                    assert len(value[1]) == 1
                    assert (x1, y1, hole) == (x2, y2, None)
                else:
                    s, dx, dy = value
                    assert geo.dims(s) == (x2 - dx, y2 - dy)
                    assert (dx, dy) == (x1 - 1, y1 - 1)
                    assert (hole is None) == (geo.holes[s] is None)

    def test_indexes_exactly_the_landing_symbols(self, small_corpus):
        """Grids exist for the start and for every symbol a cell names."""
        tslps = [balance_to_tslp(g)[0] for _, g in small_corpus]
        tslps += [random_tslp(seed) for seed in range(40)]
        for t in tslps:
            for eps in (1.0, 3.0, 6.0):
                idx = build_fast(t, eps)
                named = {
                    idx.symbols[cell[0]]
                    for _, _, cells, _ in idx.grids
                    for cell in cells
                    if cell is not None and cell[0] >= 0
                }
                assert set(idx.symbols) == {t.start} | named
                reachable = reachable_topo(compute_geometry(t), t.start)
                assert set(idx.symbols) <= set(reachable)

    def test_grid_ids_are_dense(self, small_corpus, spiral_1024):
        """Grid 0 is the start, and the ids cells name are exactly 1..n-1:
        each in range, and every grid but the start's named by some cell."""
        tslps = [balance_to_tslp(spiral_1024)[0]]
        tslps += [balance_to_tslp(g)[0] for _, g in small_corpus]
        tslps += [random_tslp(seed) for seed in range(80)]
        for t in tslps:
            for eps in (1.0, 3.0, 6.0):
                idx = build_fast(t, eps)
                assert idx.symbols[0] == t.start
                assert len(idx.symbols) == len(set(idx.symbols)) == len(idx.grids)
                named = set()
                for xkeys, ykeys, cells, n in idx.grids:
                    assert n == len(ykeys) + 1
                    assert len(cells) == (len(xkeys) + 1) * n
                    named.update(c[0] for c in cells if c is not None and c[0] >= 0)
                assert named == set(range(1, len(idx.grids)))

    @pytest.mark.parametrize("eps", [1.0, 3.0, 6.0])
    def test_every_cell_resolves_like_the_descent(self, eps):
        """Both corners of every grid cell answer as access_tslp does there.

        Sampled positions miss cells; this probes each one, and checks that a
        cell is None exactly where it lies in its symbol's own hole.
        """
        for seed in range(80):
            t = random_tslp(seed)
            geo = compute_geometry(t)
            idx = build_fast(t, eps, geo)

            def descend(sym, x, y):
                return access_tslp(replace(t, start=sym), x, y, geo=geo)[0]

            for sym, (xkeys, ykeys, cells, n) in zip(idx.symbols, idx.grids):
                h, w = geo.dims(sym)
                xs, ys = (1, *xkeys, h + 1), (1, *ykeys, w + 1)
                for c, cell in enumerate(cells):
                    i, j = divmod(c, n)
                    for x, y in ((xs[i], ys[j]), (xs[i + 1] - 1, ys[j + 1] - 1)):
                        where = (seed, sym, x, y)
                        assert (cell is None) == _in_own_hole(geo, sym, x, y), where
                        if cell is None:
                            with pytest.raises(InternalHoleHit):
                                descend(sym, x, y)
                            continue
                        if cell[0] < 0:
                            got = cell[1]
                        else:
                            g, dx, dy = cell
                            got = descend(idx.symbols[g], x - dx, y - dy)
                        assert got == descend(sym, x, y), where

    @pytest.mark.parametrize("eps", [1.0, 3.0, 6.0])
    def test_nbytes_tracks_traced_memory(self, spiral_1024, eps):
        """nbytes leaves out the int objects the keys and cells hold and the
        index's own small fields: tracemalloc's retained bytes after the
        build fall within [nbytes, 1.5 * nbytes] on the spiral.  The
        table's int64 view belongs to the table, not the index, so it is
        made before tracing starts, as the table is."""
        t, _ = balance_to_tslp(spiral_1024)
        geo = compute_geometry(t)
        geo.columns
        gc.collect()
        tracemalloc.start()
        try:
            idx = build_fast(t, eps, geo)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert idx.nbytes <= retained <= 1.5 * idx.nbytes, (idx.nbytes, retained)


def _assert_same_index(t, eps):
    """build_fast's grids, symbols and sizes equal the scalar painter's."""
    got, want = build_fast(t, eps), reference_build(t, eps)
    assert got.grids == want.grids
    assert got.symbols == want.symbols
    assert got.nbytes == want.nbytes
    return got


class TestReferencePainter:
    """The array build against ``reference_build``, one symbol at a time."""

    def test_build_matches_reference_painter(self, small_corpus, spiral_1024):
        tslps = [balance_to_tslp(g)[0] for _, g in small_corpus]
        tslps += [random_tslp(seed) for seed in range(120)]
        tslps += [balance_to_tslp(random_grammar(seed, 50, max_dim=24))[0]
                  for seed in range(40)]
        tslps.append(balance_to_tslp(spiral_1024)[0])
        for t in tslps:
            for eps in (1.0, 3.0, 6.0):
                _assert_same_index(t, eps)

    def test_dimensions_near_the_bound(self):
        """A (2^62 - 1) x 2^61 grammar: offsets and cut lines near 2^62 stay
        exact, and the index answers as the descent does.  (At ε 6, K = 13
        levels of its doubling chains make 17M cells, too many for a unit
        test.)"""
        g = near_bound_grammar()
        geo = compute_geometry(g)
        h, w = geo.dims(g.start)
        assert (h, w) == ((1 << 62) - 1, 1 << 61)
        probes = [(1, 1), (1, w), (h, 1), (h, w), (h - 1, w - 1), (h - 2, w)]
        probes += sample_positions(h, w, 40, seed=62)
        for eps in (1.0, 3.0):
            idx = _assert_same_index(g, eps)
            for x, y in probes:
                pattern = ("cd",) if x == h else ("ac", "da")
                want = pattern[(x - 1) % len(pattern)][(y - 1) % 2]
                assert access_fast(idx, x, y)[0] == want == access_tslp(g, x, y, geo)[0]

    def test_unwinding_past_fifty_levels(self):
        for seed in range(60):
            t = random_tslp(seed, 8, 8)
            for eps in (30.0, 60.0):
                idx = _assert_same_index(t, eps)
                assert idx.params.levels == (25 if eps == 30.0 else 51)

    def test_one_by_one_start(self):
        b = GrammarBuilder()
        g = b.finish(b.terminal("z"))
        for eps in (1.0, 3.0, 6.0):
            idx = _assert_same_index(g, eps)
            assert idx.grids == (((), (), [(-1, "z", 0)], 1),)
            assert access_fast(idx, 1, 1) == ("z", 1)

    def test_undefined_symbol_outside_the_derivation(self):
        b = GrammarBuilder()
        start = b.h(b.terminal("a"), b.terminal("b"))
        g = b.finish(start)
        g = replace(g, rules=g.rules + (None,), labels=g.labels + ("U",))
        assert validate(g).ok
        assert access_fast(_assert_same_index(g, 3.0), 1, 2) == ("b", 1)

    def test_rounds_span_several_chunks(self, spiral_1024, monkeypatch):
        """More landing symbols than one round builds, and any round size
        gives the same index."""
        t, _ = balance_to_tslp(spiral_1024)
        assert len(_assert_same_index(t, 1.0).grids) > 2 * fastaccess.CHUNK
        for chunk in (1, 2, 7):
            monkeypatch.setattr(fastaccess, "CHUNK", chunk)
            for seed in range(20):
                _assert_same_index(random_tslp(seed), 3.0)


class TestAccessFast:
    def test_agrees_with_other_paths(self, small_corpus):
        for name, g in small_corpus:
            t, _ = balance_to_tslp(g)
            idx = build_fast(t)
            m = expand(g)
            n, mm = m.shape
            for x, y in sample_positions(n, mm, 200, seed=5):
                c, visits = access_fast(idx, x, y)
                assert c == m[x - 1, y - 1], (name, x, y)
                assert visits >= 1

    def test_visit_bound(self, spiral_1024):
        t, stats = balance_to_tslp(spiral_1024)
        idx = build_fast(t)
        k = idx.params.levels
        limit = math.ceil(stats.output_depth / k) + 1
        tgeo = compute_geometry(t)
        n, m = tgeo.dims(t.start)
        for x, y in sample_positions(n, m, 600, seed=6):
            c, visits = access_fast(idx, x, y)
            assert visits <= limit, (x, y, visits, limit)
            assert c == access_tslp(t, x, y, geo=tgeo)[0]

    def test_fewer_visits_than_tslp_on_deep_input(self, spiral_1024):
        t, _ = balance_to_tslp(spiral_1024)
        idx = build_fast(t, epsilon=3.0)
        tgeo = compute_geometry(t)
        n, m = tgeo.dims(t.start)
        positions = sample_positions(n, m, 400, seed=7)
        fast = sum(access_fast(idx, x, y)[1] for x, y in positions)
        slow = sum(access_tslp(t, x, y, geo=tgeo)[1] for x, y in positions)
        assert fast < slow

    def test_out_of_bounds(self):
        t, _ = balance_to_tslp(build_shiftbin(2))
        idx = build_fast(t)
        h, w = idx.geo.dims(t.start)
        for x, y in ((0, 1), (1, 0), (h + 1, 1), (1, w + 1)):
            with pytest.raises(OutOfBounds):
                access_fast(idx, x, y)

    def test_hole_hit_on_context_start(self):
        """A 1x2 context whose start has its hole at (1,1): the index raises
        where the descent does, naming the symbol, and agrees elsewhere."""
        t = Tslp2D(rules=(Terminal("a"), HoleConcat("H", "first", 0, 1, 1)), start=1)
        idx = build_fast(t)
        with pytest.raises(InternalHoleHit, match="hole of symbol S1"):
            access_fast(idx, 1, 1)
        with pytest.raises(InternalHoleHit):
            access_tslp(t, 1, 1)
        assert access_fast(idx, 1, 2)[0] == access_tslp(t, 1, 2)[0] == "a"

    def test_plain_grammar_indexable(self):
        g = build_shiftbin(2)
        idx = build_fast(g)
        m = expand(g)
        for x, y in sample_positions(*m.shape, 100, seed=8):
            assert access_fast(idx, x, y)[0] == m[x - 1, y - 1]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 3_000))
    def test_random_grammars(self, seed):
        g = random_grammar(seed, 50, max_dim=24)
        t, _ = balance_to_tslp(g)
        idx = build_fast(t)
        m = expand(g)
        n, mm = m.shape
        for x, y in sample_positions(n, mm, 25, seed=seed):
            assert access_fast(idx, x, y)[0] == m[x - 1, y - 1]


class TestBench:
    def test_report_shape(self):
        g = build_spiral(256)
        t, _ = balance_to_tslp(g)
        idx = build_fast(t)
        d = bench_access(t, idx, queries=64, seed=3)
        assert d["queries"] == 64
        assert d["seed"] == 3
        assert (d["height"], d["width"]) == (256, 256)
        names = [p["path"] for p in d["paths"]]
        assert names == ["tslp", "fast"]
        for p in d["paths"]:
            assert p["meanVisits"] <= p["maxVisits"]
            assert p["nanosPerQuery"] > 0
        assert json.loads(json.dumps(d)) == d

    def test_plain_path_included_for_plain_grammars(self):
        """A plain grammar's descent is the tslp row: one function, one row."""
        g = build_spiral(256)
        idx = build_fast(g)
        report = bench_access(g, idx, queries=32, seed=4)
        assert [p["path"] for p in report["paths"]] == ["tslp", "fast"]

    @pytest.mark.parametrize("queries", [0, -3])
    def test_rejects_query_counts_below_one(self, queries):
        g = build_shiftbin(2)
        with pytest.raises(ParameterError):
            bench_access(g, build_fast(g), queries=queries, seed=0)
