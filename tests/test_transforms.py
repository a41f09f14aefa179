"""Structure-preserving transforms: rotation, margins, slicing, rebalancing."""

from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridslp import (
    Grammar2D,
    GrammarBuilder,
    GridSlpError,
    HConcat,
    ParameterError,
    Terminal,
    VConcat,
    build_cnm,
    build_spiral,
    compute_geometry,
    expand,
    linearize_rows,
    margin_slp,
    random_grammar,
    rebalance_plain_2d,
    rotate_cw,
    validate,
)
from gridslp import transforms
from gridslp.balance import _inline_contexts, _shallow

from conftest import (
    example_tslp,
    glyph_quadtree,
    random_tslp,
    reachable_topo,
    row_caterpillar,
)


def rotate_by_kind(g):
    """The oracle for ``rotate_cw``: the production rewrite by kind it
    replaced.  A horizontal concat becomes a vertical one in the same order,
    a vertical concat a horizontal one with operands swapped."""
    rules = []
    for r in g.rules:
        if r is None or r.kind == "term":
            rules.append(r)
        elif r.kind == "h":
            rules.append(VConcat(r.left, r.right))
        elif r.kind == "v":
            rules.append(HConcat(r.bottom, r.top))
        else:
            raise ParameterError("rotation is defined for plain grammars only")
    return Grammar2D(rules=tuple(rules), start=g.start, labels=g.labels)


def _outcome(f, g):
    try:
        return f(g)
    except GridSlpError as e:
        return type(e), str(e)


class TestRotate:
    def test_equals_rewrite_by_kind(self, small_corpus):
        """Rewriting the table's entries gives the kind rewrite's grammar,
        or its error, on plain and holed inputs alike."""
        grammars = [g for _, g in small_corpus]
        grammars += [random_grammar(seed, 50, max_dim=24) for seed in range(60)]
        grammars += [_inline_contexts(random_tslp(seed)) for seed in range(150)]
        for i, g in enumerate(grammars):
            assert _outcome(rotate_cw, g) == _outcome(rotate_by_kind, g), i

    def test_unsound_grammar_raises(self):
        g = Grammar2D((Terminal("a"), HConcat(0, 2)), 1)
        with pytest.raises(GridSlpError, match="out-of-range symbol 2"):
            rotate_cw(g)

    def test_matches_numpy(self, small_corpus):
        for name, g in small_corpus:
            if g.text_kind != "SLP2D":
                continue
            r = rotate_cw(g)
            assert validate(r).ok, name
            assert (expand(r) == np.rot90(expand(g), k=-1)).all(), name

    def test_four_rotations_identity(self):
        g = random_grammar(21, 40, max_dim=20)
        r4 = rotate_cw(rotate_cw(rotate_cw(rotate_cw(g))))
        assert (expand(r4) == expand(g)).all()

    def test_size_preserved(self):
        g = random_grammar(22, 50, max_dim=24)
        assert rotate_cw(g).symbols == g.symbols

    def test_rejects_contexts(self):
        with pytest.raises(ParameterError):
            rotate_cw(example_tslp())


class TestMargins:
    @pytest.mark.parametrize("side", ["top", "bottom", "left", "right"])
    def test_matches_expansion_margin(self, side, small_corpus):
        for name, g in small_corpus:
            if g.text_kind != "SLP2D":
                continue
            m = expand(g)
            want = {
                "top": m[0],
                "bottom": m[-1],
                "left": m[:, 0],
                "right": m[:, -1],
            }[side]
            out = margin_slp(g, side)
            assert validate(out).ok, name
            got = expand(out)
            assert got.shape == (1, len(want)), name
            assert (got[0] == want).all(), name

    def test_size_never_grows(self, small_corpus):
        for name, g in small_corpus:
            if g.text_kind != "SLP2D":
                continue
            for side in ("top", "bottom", "left", "right"):
                assert margin_slp(g, side).symbols <= g.symbols, (name, side)

    def test_bad_side(self):
        g = random_grammar(1, 10, max_dim=8)
        with pytest.raises(ParameterError):
            margin_slp(g, "up")


class TestLinearize:
    def test_row_major_flattening(self, small_corpus):
        for name, g in small_corpus:
            if g.text_kind != "SLP2D":
                continue
            lin = linearize_rows(g)
            assert validate(lin).ok, name
            want = "".join("".join(r) for r in expand(g).tolist())
            assert "".join(expand(lin)[0]) == want, name

    def test_size_bound_linear_in_rows(self):
        # <= N new symbols per original symbol plus O(N) gadget glue.
        g = build_cnm(32, 64)
        geo = compute_geometry(g)
        n_rows = geo.heights[g.start]
        lin = linearize_rows(g, geo)
        assert lin.symbols <= g.symbols * n_rows + 2 * n_rows

    def test_rejects_contexts(self):
        with pytest.raises(ParameterError):
            linearize_rows(example_tslp())

    def test_tall_vertical_chain_frees_row_lists(self):
        # v_i = v(v_{i-1}, T): the row lists hold N(N+1)/2 ids in all
        # (2.1M, 16 MB of pointers here), but only the last two are needed.
        n = 2048
        b = GrammarBuilder(dedup=True)
        ab = [b.terminal("a"), b.terminal("b")]
        cur = ab[0]
        for i in range(1, n):
            cur = b.v(cur, ab[i % 2])
        g = b.finish(cur)
        geo = compute_geometry(g)
        tracemalloc.start()
        try:
            lin = linearize_rows(g, geo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak
        assert "".join(expand(lin)[0]) == "ab" * (n // 2)


class TestHoledInput:
    """``margin_slp`` and ``linearize_rows`` read only what the start
    reaches: an unreachable context is ignored, a reachable one raises."""

    @staticmethod
    def _tslp(reach_context: bool):
        """A 2x2 TSLP holding a context and an apply of it; the start is the
        apply, under a concat, or a plain matrix that reaches neither."""
        b = GrammarBuilder(dedup=True)
        x, y = b.terminal("x"), b.terminal("y")
        xy, yx = b.h(x, y), b.h(y, x)
        ctx = b.hole_concat("V", "first", xy, 1, 2)
        plugged = b.apply(ctx, yx)
        start = b.h(plugged, plugged) if reach_context else b.v(yx, xy)
        return b.finish(start)

    def test_unreachable_context_is_ignored(self):
        t = self._tslp(False)
        assert t.text_kind == "TSLP2D"
        m = expand(t)
        for side, want in (("top", m[0]), ("bottom", m[-1]),
                           ("left", m[:, 0]), ("right", m[:, -1])):
            assert expand(margin_slp(t, side))[0].tolist() == want.tolist(), side
        assert "".join(expand(linearize_rows(t))[0]) == "yxxy"

    def test_reachable_context_raises(self):
        t = self._tslp(True)
        for side in ("top", "bottom", "left", "right"):
            with pytest.raises(ParameterError):
                margin_slp(t, side)
        with pytest.raises(ParameterError):
            linearize_rows(t)


class TestConcatGadget:
    """``GrammarBuilder.balanced`` on a seeded builder: a balanced
    concatenation gadget over an existing grammar's symbols."""

    def test_h_and_v(self):
        g = random_grammar(8, 20, max_dim=10)
        for axis, stack in (("H", np.hstack), ("V", np.vstack)):
            b = GrammarBuilder.seeded(g)
            root = b.balanced(axis, [g.start] * 7)
            g2 = b.finish(root)
            assert validate(g2).ok
            assert (expand(g2, root) == stack([expand(g)] * 7)).all()

    def test_local_depth_logarithmic(self):
        b = GrammarBuilder(dedup=False)
        x = b.terminal("x")
        g = b.finish(x)
        for k in (1, 2, 3, 15, 64, 257):
            b = GrammarBuilder.seeded(g)
            root = b.balanced("H", [0] * k)
            geo = compute_geometry(b.finish(root))
            assert geo.widths[root] == k
            # depth of the chain above the parts is ceil(log2 k) + 1
            assert geo.depths[root] <= math.ceil(math.log2(max(2, k))) + 1


class TestRebalance:
    def test_equivalence_and_budgets(self):
        for g in (build_cnm(32, 64), random_grammar(31, 60, max_dim=24)):
            geo = compute_geometry(g)
            n_rows, n_cols = geo.dims(g.start)
            if n_rows > n_cols:
                g = rotate_cw(g)
                geo = compute_geometry(g)
                n_rows, n_cols = geo.dims(g.start)
            out, stats = rebalance_plain_2d(g, geo)
            assert validate(out).ok
            assert (expand(out) == expand(g)).all()
            assert stats.output_depth <= 4 * math.log2(n_rows * n_cols)
            assert stats.output_size <= 8 * stats.input_size * n_rows

    def test_deep_row_caterpillar_flattens(self):
        g = row_caterpillar(40, 64, seed=2)
        geo = compute_geometry(g)
        assert geo.depths[g.start] >= 40  # the input really is deep
        out, stats = rebalance_plain_2d(g, geo)
        assert (expand(out) == expand(g)).all()
        assert stats.output_depth <= 4 * math.log2(64) + 4

    @pytest.mark.parametrize("n,size,depth", [(256, 1370, 26), (1024, 5089, 30)])
    def test_spiral_sizes_do_not_grow(self, n, size, depth):
        """The row fold's sizes and depths as upper bounds, with every
        output symbol reachable.  The fold walks the rows in
        ``reachable_topo``'s depth-first order, one row after the other, not
        in id order, and that order picks each node's canonical heavy
        parent."""
        out, stats = rebalance_plain_2d(build_spiral(n))
        assert stats.output_size == out.size <= size
        assert stats.output_depth <= depth
        assert len(reachable_topo(compute_geometry(out), out.start)) == out.symbols

    def test_requires_wide_input(self):
        g = build_cnm(64, 32)  # 64 rows x 32 cols
        with pytest.raises(ParameterError):
            rebalance_plain_2d(g)

    def test_holed_input_inlined(self):
        t = example_tslp()
        out, stats = rebalance_plain_2d(t)
        assert validate(out).ok
        assert expand(out).tolist() == [["0", "1"], ["0", "1"]]


class TestRebalanceDepthAware:
    """Shallow input comes back as it is, and no output is deeper than its
    input, nor as deep and larger."""

    def test_shallow_input_comes_back_as_it_is(self):
        for g in (glyph_quadtree()[1], build_cnm(32, 64)):
            out, stats = rebalance_plain_2d(g)
            assert out.rules == g.rules
            assert stats.output_size == stats.input_size == g.size
            assert stats.output_depth == stats.input_depth

    def test_shallow_input_builds_nothing(self, monkeypatch):
        import gridslp.grammar as grammar

        g = glyph_quadtree()[1]
        geo = compute_geometry(g)
        adds, passes = [], []
        real_add, real_check = GrammarBuilder._add, grammar._check

        def add(self, *args, **kwargs):
            adds.append(1)
            return real_add(self, *args, **kwargs)

        def check(*args, **kwargs):
            passes.append(1)
            return real_check(*args, **kwargs)

        monkeypatch.setattr(GrammarBuilder, "_add", add)
        monkeypatch.setattr(grammar, "_check", check)
        rebalance_plain_2d(g, geo)
        assert (len(adds), len(passes)) == (0, 0)

    def test_equally_deep_and_larger_output_is_dropped(self, monkeypatch):
        """32 rows of 16 chained 1×2 blocks, joined by a balanced tree, fail
        the keep test (depth 22 > 16), and the row fold makes them size 786
        at depth 17.  The guard is reached with the fold replaced: one that
        only copies the rows comes out as deep and as large as the input and
        is taken; with one symbol more, the input comes back."""
        rng = random.Random(0)
        b = GrammarBuilder(dedup=True)
        rows = [b.chain("H", [
            b.h(b.terminal(rng.choice("ab")), b.terminal(rng.choice("ab")))
            for _ in range(16)]) for _ in range(32)]
        g = b.finish(b.balanced("V", rows))
        geo = compute_geometry(g)
        assert (g.size, geo.depths[g.start]) == (978, 22)
        out, stats = rebalance_plain_2d(g, geo)
        assert (stats.output_size, stats.output_depth) == (out.size, 17) == (786, 17)
        assert (expand(out) == expand(g)).all()

        fold = transforms._fold_1d

        def copy_rows(dag, starts):
            return fold(dag._replace(keep=[True] * len(dag.keep)), starts)

        def one_symbol_more(dag, starts):
            b, rows = copy_rows(dag, starts)
            b.terminal("z")
            return b, rows

        monkeypatch.setattr(transforms, "_fold_1d", copy_rows)
        out, stats = rebalance_plain_2d(g, geo)
        assert out is not g
        assert (stats.output_size, stats.output_depth) == (out.size, 22) == (978, 22)
        assert (expand(out) == expand(g)).all()
        monkeypatch.setattr(transforms, "_fold_1d", one_symbol_more)
        out, stats = rebalance_plain_2d(g, geo)
        assert out is g
        assert (stats.output_size, stats.output_depth) == (978, 22)

    @staticmethod
    def _check(g, name):
        geo = compute_geometry(g)
        n_rows, n_cols = geo.dims(g.start)
        if n_rows > n_cols:
            g = rotate_cw(_inline_contexts(g, geo))
        out, stats = rebalance_plain_2d(g)
        depth = compute_geometry(out).depths[out.start]
        assert depth == stats.output_depth <= stats.input_depth, name
        assert out.size == stats.output_size, name
        if g.text_kind == "SLP2D":
            assert stats.input_depth == compute_geometry(g).depths[g.start], name
        if depth == stats.input_depth:
            assert stats.output_size <= stats.input_size, name
        if _shallow(stats.input_depth, stats.rows * stats.cols):
            assert stats.output_size <= stats.input_size, name
        assert (expand(out) == expand(g)).all(), name

    def test_never_deeper_on_corpus(self, small_corpus):
        for name, g in small_corpus:
            self._check(g, name)

    def test_never_deeper_on_random_grammars(self):
        for seed in range(60):
            self._check(random_grammar(seed, 30 + seed, max_dim=24), seed)

    def test_never_deeper_on_random_tslps(self):
        for seed in range(300):
            self._check(random_tslp(seed), seed)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 3_000))
def test_rotate_then_margins_commute_with_numpy(seed):
    g = random_grammar(seed, 30, max_dim=16)
    m = expand(g)
    r = rotate_cw(g)
    # top margin of the rotation is the reversed left column of the original
    got = expand(margin_slp(r, "top"))[0]
    assert (got == m[::-1, 0]).all()
