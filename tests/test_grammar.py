"""Builder, grammar containers, and structural validation."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridslp import (
    Apply,
    Compose,
    CtxConcat,
    DimensionMismatch,
    Grammar2D,
    GrammarBuilder,
    GridSlpError,
    HConcat,
    HoleConcat,
    ParameterError,
    Terminal,
    Tslp2D,
    VConcat,
    access_tslp,
    as_tslp,
    balance_to_tslp,
    build_fast,
    compute_geometry,
    expand,
    parse_grammar,
    validate,
)
from gridslp import grammar
from gridslp.grammar import (
    _post_order,
    children,
    reachable_topo,
    rule_size,
)

from conftest import example_tslp, fresh_geometry, random_tslp


class TestBuilder:
    def test_terminal_dims(self):
        b = GrammarBuilder(dedup=False)
        t = b.terminal("x")
        assert b.dims(t) == (1, 1)

    def test_h_concat_requires_equal_heights(self):
        b = GrammarBuilder(dedup=False)
        x = b.terminal("x")
        col = b.v(x, x)
        with pytest.raises(DimensionMismatch):
            b.h(x, col)

    def test_v_concat_requires_equal_widths(self):
        b = GrammarBuilder(dedup=False)
        x = b.terminal("x")
        row = b.h(x, x)
        with pytest.raises(DimensionMismatch):
            b.v(x, row)

    def test_dedup_reuses_identical_productions(self):
        b = GrammarBuilder(dedup=True)
        x = b.terminal("x")
        assert b.terminal("x") == x
        r1 = b.h(x, x)
        r2 = b.h(x, x)
        assert r1 == r2
        assert len(b) == 2
        # Same operands on the other axis are a different production.
        assert b.v(x, x) != r1
        assert len(b) == 3

    def test_no_dedup_keeps_duplicates(self):
        b = GrammarBuilder(dedup=False)
        x = b.terminal("x")
        assert b.h(x, x) != b.h(x, x)

    def test_terminal_must_be_single_char(self):
        b = GrammarBuilder(dedup=False)
        with pytest.raises(ParameterError):
            b.terminal("ab")
        with pytest.raises(ParameterError):
            b.terminal("")

    def test_finish_plain(self):
        b = GrammarBuilder(dedup=False)
        x = b.terminal("x")
        g = b.finish(b.h(x, x))
        assert isinstance(g, Grammar2D) and not isinstance(g, Tslp2D)
        assert g.size == 3  # one alphabet symbol + two referenced symbols
        assert g.symbols == 2

    def test_finish_detects_contexts(self):
        t = example_tslp()
        assert isinstance(t, Tslp2D)
        assert t.symbols == 5
        assert t.size == 8

    def test_hole_concat_geometry_checked(self):
        b = GrammarBuilder(dedup=False)
        x = b.terminal("x")
        # Hole as large as the frame: nothing of the ground side remains.
        with pytest.raises(DimensionMismatch):
            b.hole_concat("H", "first", x, 1, 0)

    def test_hole_sizes_must_be_integers(self):
        b = GrammarBuilder(dedup=False)
        x = b.terminal("x")
        for p, q in ((1.0, 1), (1, True)):
            with pytest.raises(DimensionMismatch, match="not integers"):
                b.hole_concat("H", "first", x, p, q)

    def test_apply_requires_matching_hole(self):
        b = GrammarBuilder(dedup=False)
        x = b.terminal("x")
        row = b.h(x, x)
        ctx = b.hole_concat("H", "first", x, 1, 1)  # hole is 1x1
        with pytest.raises(DimensionMismatch):
            b.apply(ctx, row)  # 1x2 plug does not fit

    def test_chain(self):
        b = GrammarBuilder(dedup=False)
        x = b.terminal("x")
        root = b.chain("H", [x, x, x, x, x])
        assert b.dims(root) == (1, 5)
        assert b.dims(b.chain("V", [None, x, None, x])) == (2, 1)
        with pytest.raises(ParameterError):
            b.chain("V", [None])

    @pytest.mark.parametrize("axis", ["H", "V"])
    def test_repeat_tiles_in_logarithmic_symbols(self, axis):
        for count in range(1, 71):
            b = GrammarBuilder(dedup=True)
            top = b.h(b.terminal("a"), b.terminal("b"))
            block = b.v(top, b.h(b.terminal("c"), b.terminal("d")))
            before = len(b)
            root = b.repeat(axis, block, count)
            assert len(b) - before <= 2 * count.bit_length(), count
            want = np.tile(expand(b.finish(block)),
                           (1, count) if axis == "H" else (count, 1))
            assert (expand(b.finish(root)) == want).all(), count
        with pytest.raises(ParameterError):
            GrammarBuilder().repeat(axis, 0, 0)

    def test_seeded_builder_extends(self):
        t = example_tslp()
        b = GrammarBuilder.seeded(t)
        x = b.terminal("0")
        g2 = b.finish_tslp(t.start)
        assert g2.symbols >= t.symbols
        # Seeding must preserve the original productions verbatim.
        assert g2.rules[: t.symbols] == t.rules

    def test_seeded_dedup_finds_every_concat(self):
        t = random_tslp(4)
        b = GrammarBuilder.seeded(t)
        kinds = set()
        for r in t.rules:
            if r.kind == "h":
                assert t.rules[b.h(r.left, r.right)] == r
            elif r.kind == "v":
                assert t.rules[b.v(r.top, r.bottom)] == r
            kinds.add(r.kind)
        assert {"h", "v"} <= kinds
        assert len(b) == t.symbols

    @pytest.mark.parametrize("axis", ["h", "horizontal"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda b, x, axis: b.chain(axis, [x, x]),
            lambda b, x, axis: b.repeat(axis, x, 3),
            lambda b, x, axis: b.balanced(axis, [x, x, x]),
            lambda b, x, axis: GrammarBuilder.seeded(b.finish(x)).balanced(
                axis, [x, x]),
        ],
        ids=["chain", "repeat", "balanced", "concat_gadget"],
    )
    def test_bad_axis_rejected(self, build, axis):
        # Any axis but "H" or "V" is an error, never a silent vertical build.
        b = GrammarBuilder()
        x = b.terminal("x")
        with pytest.raises(ParameterError):
            build(b, x, axis)


class TestContainers:
    def test_as_tslp_view(self, small_corpus):
        for name, g in small_corpus:
            t = as_tslp(g)
            assert isinstance(t, Tslp2D)
            assert t.rules == g.rules and t.start == g.start

    def test_rule_size(self):
        assert rule_size(Terminal("x")) == 1
        assert rule_size(HConcat(0, 1)) == 2
        assert rule_size(VConcat(0, 1)) == 2
        assert rule_size(Apply(0, 1)) == 2
        assert rule_size(CtxConcat("V", "second", 1, 0)) == 2
        assert rule_size(Compose(2, 4)) == 2

    def test_children(self):
        assert children(Terminal("x")) == ()
        assert children(HConcat(3, 5)) == (3, 5)
        assert children(HoleConcat("H", "first", 7, 1, 1)) == (7,)
        assert children(Compose(1, 2)) == (1, 2)

    def test_labels_default(self):
        g = Grammar2D(rules=(Terminal("x"),), start=0)
        assert g.labels == ("S0",)


class TestTraversal:
    def test_reachable_topo_children_first(self, small_corpus):
        for name, g in small_corpus:
            order = reachable_topo(g.rules, g.start)
            pos = {s: i for i, s in enumerate(order)}
            assert order[-1] == g.start
            for s in order:
                for c in children(g.rules[s]):
                    assert pos[c] < pos[s], name

    def test_reachable_is_iterative(self):
        # A chain much deeper than the interpreter recursion limit.
        b = GrammarBuilder(dedup=False)
        s = b.terminal("a")
        a = s
        for _ in range(50_000):
            s = b.h(s, a)
        g = b.finish(s)
        order = reachable_topo(g.rules, g.start)
        assert len(order) == g.symbols


class TestValidate:
    def test_corpus_is_valid(self, small_corpus):
        for name, g in small_corpus:
            rep = validate(g)
            assert rep.ok, f"{name}: {rep}"
            # The table validation kept equals one computed afresh.
            assert compute_geometry(g) == fresh_geometry(g), name

    def test_undefined_symbol_reported(self):
        g = Grammar2D(rules=(HConcat(1, 2), Terminal("x"), None), start=0)
        rep = validate(g)
        assert not rep.ok
        assert any(v.code == "undefined" for v in rep.violations)

    def test_cycle_reported(self):
        g = Grammar2D(rules=(HConcat(1, 1), HConcat(0, 0)), start=0)
        rep = validate(g)
        assert not rep.ok
        assert any(v.code == "cycle" for v in rep.violations)

    def test_dim_mismatch_reported(self):
        # 1x1 beside 2x1 under an h-concat.
        g = Grammar2D(
            rules=(Terminal("x"), VConcat(0, 0), HConcat(0, 1)), start=2
        )
        rep = validate(g)
        assert any(v.code == "dimension" for v in rep.violations)
        # No table is kept for a grammar with violations, and computing
        # one still raises.
        with pytest.raises(GridSlpError):
            compute_geometry(g)

    def test_plain_grammar_rejects_context_kinds(self):
        g = Grammar2D(
            rules=(Terminal("x"), HoleConcat("H", "first", 0, 1, 1)), start=1
        )
        rep = validate(g)
        assert not rep.ok

    def test_tslp_start_must_be_ground(self):
        t = Tslp2D(
            rules=(Terminal("x"), HoleConcat("H", "first", 0, 1, 1)), start=1
        )
        rep = validate(t)
        assert any(v.code == "start" for v in rep.violations)

    def test_hole_marker_collision_flagged_for_tslp(self):
        b = GrammarBuilder(dedup=False)
        x = b.terminal("#")
        ctx = b.hole_concat("H", "first", x, 1, 1)
        t = b.finish_tslp(b.apply(ctx, x))
        rep = validate(t)
        assert not rep.ok

    def test_hole_marker_allowed_in_plain(self):
        b = GrammarBuilder(dedup=False)
        x = b.terminal("#")
        g = b.finish(b.h(x, x))
        assert validate(g).ok

    def test_builder_raises_overflow_eagerly(self):
        b = GrammarBuilder(dedup=False)
        s = b.terminal("x")
        with pytest.raises(OverflowError):
            for _ in range(63):
                s = b.h(s, s)  # width doubles past 2^62

    @pytest.mark.parametrize("g", [
        Grammar2D((Terminal("ab"), Terminal("c"), HConcat(0, 1)), 2),
        Grammar2D((Terminal(""), Terminal("c"), HConcat(0, 1)), 2),
        Grammar2D((Terminal(5), Terminal("c"), HConcat(0, 1)), 2),
        Tslp2D((Terminal("a"), HoleConcat("X", "middle", 0, 1, 1), Apply(1, 0)), 2),
        Tslp2D((Terminal("a"), HoleConcat("H", "middle", 0, 1, 1), Apply(1, 0)), 2),
        Tslp2D((Terminal("a"), HoleConcat("H", "first", 0, 1, 1),
                CtxConcat("D", "first", 1, 0), Apply(2, 0)), 3),
        Tslp2D((Terminal("a"), HoleConcat("H", "first", 0, 1, 1),
                CtxConcat("V", "both", 1, 0), Apply(2, 0)), 3),
        Tslp2D((Terminal("a"), HoleConcat("H", "first", 0, 1.0, 1), Apply(1, 0)), 2),
        Tslp2D((Terminal("a"), HoleConcat("H", "first", 0, 1, True), Apply(1, 0)), 2),
    ], ids=["long-terminal", "empty-terminal", "int-terminal", "hole-axis",
            "hole-side", "ctx-axis", "ctx-side", "float-hole-size", "bool-hole-size"])
    def test_malformed_fields_reported(self, g):
        """Fields the builder rejects as parameters are kind violations."""
        rep = validate(g)
        assert [v.code for v in rep.violations] == ["kind"], str(rep)

    def test_overflow_flagged_by_validate(self):
        # Assembled by hand so the oversized grammar exists to be validated.
        rules = [Terminal("x")]
        for i in range(63):
            rules.append(HConcat(i, i))
        g = Grammar2D(rules=tuple(rules), start=63)
        rep = validate(g)
        assert any(v.code == "overflow" for v in rep.violations)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(1, 80))
def test_random_grammars_always_validate(seed, size):
    from gridslp import random_grammar

    g = random_grammar(seed, size, max_dim=32)
    assert g.symbols == size
    assert validate(g).ok


#: Modules that may name the holed production kinds: the one that defines
#: them (with their layout) and the text format that spells them.
KIND_MODULES = {"grammar.py", "textio.py", "__init__.py"}

HOLED_KIND_NAMES = re.compile(
    r"""["'](apply|hole|ctxcat|compose)["']"""
    r"|\b(Apply|HoleConcat|CtxConcat|Compose)\b"
    r"|\.(ctx|arg|outer|inner)\b|hole_side|ctx_side"
)


def test_only_grammar_and_textio_name_holed_kinds():
    """Everything else follows ``layout`` entries instead of the kinds."""
    src = Path(__file__).resolve().parent.parent / "src" / "gridslp"
    hits = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        if path.name not in KIND_MODULES
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if HOLED_KIND_NAMES.search(line)
    ]
    assert not hits, "\n".join(hits)


class TestGeometryCache:
    TEXT = "SLP2D v1\nstart T\nA T 0\nB T 1\nC H A B\nT V C C\n"

    def test_computed_once(self):
        g = parse_grammar(self.TEXT)
        assert compute_geometry(g) is compute_geometry(g)
        assert compute_geometry(g) == fresh_geometry(g)

    def test_validate_keeps_its_table(self, monkeypatch):
        g = parse_grammar(self.TEXT)
        want = fresh_geometry(g)
        assert validate(g).ok
        calls = []
        monkeypatch.setattr(grammar, "_check", lambda *a, **k: calls.append(1))
        geo = compute_geometry(g)
        assert calls == [] and compute_geometry(g) is geo
        assert geo == want

    def test_callers_table_is_never_kept(self):
        """Each call reads the table it is given and leaves the grammar's
        own unset, so a later compute_geometry makes a new one."""
        calls = [
            lambda t, geo: build_fast(t, 3.0, geo),
            lambda t, geo: access_tslp(t, 1, 2, geo=geo),
            lambda t, geo: expand(t, geo=geo),
            lambda t, geo: balance_to_tslp(t, geo),
        ]
        for call in calls:
            for t in (parse_grammar(self.TEXT), example_tslp()):
                geo = fresh_geometry(t)
                call(t, geo)
                assert compute_geometry(t) is not geo
                assert compute_geometry(t) == geo

    def test_cache_is_invisible(self):
        cached, plain = parse_grammar(self.TEXT), parse_grammar(self.TEXT)
        compute_geometry(cached)
        assert cached == plain
        assert hash(cached) == hash(plain)
        assert repr(cached) == repr(plain)


class TestIdOrder:
    """Where every reference points to a lower id, the walks use id order."""

    def test_forward_reference_takes_the_walk(self, monkeypatch):
        walks = []

        def counted(*args, **kwargs):
            walks.append(1)
            return _post_order(*args, **kwargs)

        monkeypatch.setattr(grammar, "_post_order", counted)
        back = parse_grammar(TestGeometryCache.TEXT)
        fwd = parse_grammar(
            "SLP2D v1\nstart T\nT V C C\nC H A B\nA T 0\nB T 1\n")
        assert validate(back).ok and walks == []
        assert validate(fwd).ok and walks == [1]
        geo = compute_geometry(fwd)
        assert geo == fresh_geometry(fwd)
        # The same symbols, listed in the reverse order.
        assert [geo.dims(s) for s in range(4)] == [
            compute_geometry(back).dims(s) for s in (3, 2, 0, 1)]
        assert (expand(fwd) == expand(back)).all()

    #: Violations as (code, symbol, message), in the order validate reports
    #: them; the depth-first walk of earlier versions gave the same lists,
    #: except that it reported a cycle symbol once per back reference.
    MALFORMED = {
        "SLP2D v1\nstart S\nA T x\nS H A B\n": [
            ("undefined", 1, "reference to undefined symbol B")],
        "SLP2D v1\nstart S\nA T x\nS H S A\n": [
            ("cycle", 1, "symbol participates in a reference cycle")],
        "SLP2D v1\nstart S\nS H P P\nP H S S\n": [
            ("cycle", 0, "symbol participates in a reference cycle")],
        "SLP2D v1\nstart S\nA T x\nB V A A\nC H A B\nD H B A\nS V C D\n": [
            ("dimension", 2, "h-concat heights differ: 1 vs 2"),
            ("dimension", 3, "h-concat heights differ: 2 vs 1")],
        "SLP2D v1\nstart S\nS V C D\nC H A B\nD H B A\nB V A A\nA T x\n": [
            ("dimension", 2, "h-concat heights differ: 2 vs 1"),
            ("dimension", 1, "h-concat heights differ: 1 vs 2")],
        "TSLP2D v1\nstart S\nX T #\nK HH L X 1 1\nS A K X\n": [
            ("marker", 0, "terminal uses the hole marker '#'; pick a "
             "different marker or alphabet")],
    }

    def test_violation_lists_unchanged(self):
        for text, want in self.MALFORMED.items():
            g = parse_grammar(text)
            got = [(v.code, v.symbol, v.message) for v in validate(g).violations]
            assert got == want, text
        g = Grammar2D(rules=(Terminal("x"), None, HConcat(0, 1)), start=2)
        assert [(v.code, v.symbol) for v in validate(g).violations] == [
            ("undefined", 2)]


def test_only_grammar_names_the_cache():
    """The kept table is written only in ``grammar``, where a full table is
    computed (``validate`` and ``compute_geometry``) or handed on
    (``GrammarBuilder.finish``, ``as_tslp`` and ``_with_geometry``), and
    no other module calls ``_with_geometry``."""
    src = Path(__file__).resolve().parent.parent / "src" / "gridslp"
    hits = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        if path.name != "grammar.py"
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\b_(with_)?geometry\b", line)
    ]
    assert not hits, "\n".join(hits)
