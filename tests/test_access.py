"""Single-cell queries: agreement with expansion, bounds, visit counts; and
``first_difference`` against the first differing cell of full expansion."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridslp import (
    HConcat,
    HoleConcat,
    OutOfBounds,
    Terminal,
    Tslp2D,
    access_plain,
    access_tslp,
    balance_to_tslp,
    build_spiral,
    compute_geometry,
    expand,
    first_difference,
    random_grammar,
    rebalance_plain_2d,
)
from gridslp.access import _P, _powers
from gridslp.grammar import PLAIN_KINDS, DimensionMismatch

from conftest import (
    caterpillar,
    example_tslp,
    glyph_quadtree,
    one_cell_mutant,
    random_tslp,
    row_caterpillar,
    sample_positions,
)


def _check_against_expansion(g, access, samples=200, seed=0):
    geo = compute_geometry(g)
    m = expand(g, geo=geo)
    n_rows, n_cols = m.shape
    depth = geo.depths[g.start]
    for x, y in sample_positions(n_rows, n_cols, samples, seed):
        ch, visits = access(g, x, y, geo=geo)
        assert ch == m[x - 1, y - 1], (x, y)
        assert 1 <= visits <= depth, (x, y, visits, depth)


class TestPlain:
    def test_corpus_agreement(self, small_corpus):
        for name, g in small_corpus:
            if all(r.kind in PLAIN_KINDS for r in g.rules if r is not None):
                _check_against_expansion(g, access_plain)

    def test_out_of_bounds(self, small_corpus):
        name, g = small_corpus[0]
        geo = compute_geometry(g)
        h, w = geo.dims(g.start)
        for x, y in ((0, 1), (1, 0), (h + 1, 1), (1, w + 1), (-3, 2)):
            with pytest.raises(OutOfBounds):
                access_plain(g, x, y, geo=geo)

    def test_single_terminal(self):
        from gridslp import GrammarBuilder

        b = GrammarBuilder(dedup=False)
        g = b.finish(b.terminal("z"))
        assert access_plain(g, 1, 1) == ("z", 1)


class TestTslp:
    def test_corpus_agreement(self, small_corpus):
        for name, g in small_corpus:
            _check_against_expansion(g, access_tslp)

    def test_balanced_corpus_agreement(self, small_corpus):
        for name, g in small_corpus:
            t, _ = balance_to_tslp(g)
            _check_against_expansion(t, access_tslp)

    def test_visits_bounded_by_depth_on_balanced(self, small_corpus):
        for name, g in small_corpus:
            t, _ = balance_to_tslp(g)
            geo = compute_geometry(t)
            h, w = geo.dims(t.start)
            depth = geo.depths[t.start]
            for x, y in sample_positions(h, w, 100, 3):
                _, visits = access_tslp(t, x, y, geo=geo)
                assert visits <= depth, (name, x, y)

    def test_example(self):
        t = example_tslp()
        got = {(x, y): access_tslp(t, x, y)[0] for x in (1, 2) for y in (1, 2)}
        assert got == {(1, 1): "0", (1, 2): "1", (2, 1): "0", (2, 2): "1"}


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 5_000), q=st.integers(0, 10_000))
def test_plain_equals_tslp_on_random_grammars(seed, q):
    g = random_grammar(seed, 40, max_dim=32)
    geo = compute_geometry(g)
    h, w = geo.dims(g.start)
    x, y = 1 + q % h, 1 + (q * 7919) % w
    assert access_plain(g, x, y, geo=geo)[0] == access_tslp(g, x, y, geo=geo)[0]


def _first_by_expansion(a, b):
    """The first differing cell of two full expansions, 1-based, or None."""
    cells = np.argwhere(expand(a) != expand(b))
    return None if len(cells) == 0 else tuple(int(v) + 1 for v in cells[0])


def _mutants(g, rng, count):
    """``g`` with one, then two, ... up to ``count`` seeded cells changed,
    each to a character of its own."""
    h, w = compute_geometry(g).dims(g.start)
    out = []
    for char in "@!?&"[:count]:
        g = one_cell_mutant(g, rng.randint(1, h), rng.randint(1, w), char)
        out.append(g)
    return out


def test_stepped_powers_equal_pow():
    """Each power from the one below it by the gap equals ``pow``: exponent
    0, repeated gaps, one-off gaps and exponents far apart."""
    rng = random.Random(0)
    base = rng.randrange(_P)
    for exps in ({0}, {5}, set(range(0, 40, 3)), {0, 1, 2, 7, 1 << 40, (1 << 40) + 1},
                 {rng.randrange(1 << 20) for _ in range(300)}):
        assert _powers(base, exps) == {e: pow(base, e, _P) for e in exps}
    assert _powers(base, []) == {}


class TestFirstDifference:
    @pytest.mark.parametrize("seeds", [range(0, 50), range(50, 100), range(100, 150)])
    def test_first_cell_of_full_expansion_on_random_tslps(self, seeds):
        """Every production kind, plain and balanced, against mutants of up
        to three cells: the witness is the row-major first difference."""
        rng = random.Random(seeds[0])
        for seed in seeds:
            g = random_tslp(seed)
            t, _ = balance_to_tslp(g)
            assert first_difference(g, t) is None, seed
            for m in _mutants(g, rng, 3):
                for a, b in ((g, m), (m, g), (t, m)):
                    assert first_difference(a, b) == _first_by_expansion(a, b), seed

    def test_first_cell_of_full_expansion_on_the_glyph_quadtree(self):
        _, g = glyph_quadtree()
        rng = random.Random(3)
        for m in _mutants(g, rng, 4):
            assert first_difference(g, m) == _first_by_expansion(g, m)
            assert first_difference(m, g) == _first_by_expansion(m, g)
        assert first_difference(g, balance_to_tslp(g)[0]) is None
        assert first_difference(g, rebalance_plain_2d(g)[0]) is None

    @pytest.mark.parametrize("name", ["spiral_256", "row_caterpillar", "random"])
    def test_equal_to_rebalanced_and_balanced(self, name):
        g = {
            "spiral_256": build_spiral(256),
            "row_caterpillar": row_caterpillar(8, 40),
            "random": random_grammar(4, 200, max_dim=48),
        }[name]
        for other in (rebalance_plain_2d(g)[0], balance_to_tslp(g)[0]):
            assert first_difference(g, other) is None
            assert first_difference(other, g) is None

    def test_hole_cells_differ_from_every_character(self):
        """A start that is a context: its hole counts 0, no character does."""
        g = Tslp2D(rules=(Terminal("\x00"), HoleConcat("H", "first", 0, 1, 1)), start=1)
        t = Tslp2D(rules=(Terminal("\x00"), HConcat(0, 0)), start=1)
        assert first_difference(g, g) is None
        assert first_difference(g, t) == (1, 1)

    def test_deeper_than_the_recursion_limit(self):
        g = caterpillar(20000)
        assert first_difference(g, one_cell_mutant(g, 1, 15001)) == (1, 15001)

    def test_unequal_dimensions_refused(self):
        with pytest.raises(DimensionMismatch):
            first_difference(build_spiral(256), build_spiral(512))
