"""Builder, grammar containers, and structural validation."""

from __future__ import annotations

import ast
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
    linearize_rows,
    parse_grammar,
    rebalance_plain_2d,
    validate,
)
from gridslp import grammar
from gridslp.grammar import (
    _post_order,
    children,
    rule_size,
)

from conftest import example_tslp, fresh_geometry, random_tslp, reachable_topo


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

    def test_hole_concat_rejects_a_bad_side(self):
        b = GrammarBuilder(dedup=False)
        x = b.terminal("x")
        with pytest.raises(ParameterError) as e:
            b.hole_concat("H", "middle", x, 1, 1)
        assert str(e.value) == "hole_side must be 'first' or 'second', got 'middle'"

    def test_finish_rejects_a_context_start(self):
        b = GrammarBuilder(dedup=False)
        ctx = b.hole_concat("H", "first", b.terminal("x"), 1, 1)
        with pytest.raises(DimensionMismatch) as e:
            b.finish(ctx)
        assert str(e.value) == "start symbol must be ground"

    @pytest.mark.parametrize("finish", ["finish", "finish_tslp"])
    def test_finish_rejects_a_start_out_of_range(self, finish):
        b = GrammarBuilder()
        b.h(b.terminal("a"), b.terminal("b"))
        for start in (-1, len(b)):
            with pytest.raises(ParameterError) as e:
                getattr(b, finish)(start)
            assert str(e.value) == f"start symbol {start} is out of range"

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

    def test_finish_class_follows_the_holes(self):
        """``finish`` makes a TSLP iff some symbol has a hole, so a seed's
        undefined symbol, which has no production, is no obstacle."""
        undefined = Grammar2D((Terminal("x"), None, HConcat(0, 0)), 2)
        g = GrammarBuilder.seeded(undefined).finish(2)
        assert type(g) is Grammar2D and g.rules == undefined.rules
        assert expand(g).tolist() == [["x", "x"]]
        t = example_tslp()
        assert type(GrammarBuilder.seeded(t).finish(t.start)) is Tslp2D
        b = GrammarBuilder()
        assert type(b.finish(b.terminal("x"))) is Grammar2D

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
            order = reachable_topo(compute_geometry(g), g.start)
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
        order = reachable_topo(compute_geometry(g), g.start)
        assert len(order) == g.symbols

    # ``_post_order`` on hand-made child lists, -1 for no child.

    def test_one_child(self):
        # 1 has only a first child, as a hole-concat has.
        assert _post_order([-1, 0], [-1, -1], [1]) == [0, 1]
        assert _post_order([-1, 0, 1], [-1, -1, 0], [2]) == [0, 1, 2]

    def test_shared_subtree_listed_once(self):
        first, second = [-1, 0, 1, 2], [-1, 0, 1, 1]
        assert _post_order(first, second, [3]) == [0, 1, 2, 3]

    def test_second_subtree_first(self):
        # 4 = (2, 3), 2 = (0, 0), 3 = (1, 1).
        first, second = [-1, -1, 0, 1, 2], [-1, -1, 0, 1, 3]
        assert _post_order(first, second, [4]) == [1, 3, 0, 2, 4]

    def test_roots_share_one_state(self):
        # 2 = (0, 1) and 3 = (1, 0): each root lists what the ones before
        # it did not, and a root already listed adds nothing.
        first, second = [-1, -1, 0, 1], [-1, -1, 1, 0]
        assert _post_order(first, second, [2, 3]) == [1, 0, 2, 3]
        assert _post_order(first, second, [3, 2]) == [0, 1, 3, 2]
        assert _post_order(first, second, [2, 0, 3]) == [1, 0, 2, 3]
        assert _post_order(first, second, [0, 2]) == [0, 1, 2]

    def test_on_cycle_once_per_back_reference(self):
        seen = []
        # 0 -> 1 -> (0, 0): two references back to 0.
        assert _post_order([1, 0], [-1, 0], [0], seen.append) == [1, 0]
        assert seen == [0, 0]
        seen.clear()
        # A self-loop on both sides, and 2 = (1, 1) reaching it.
        assert _post_order([-1, 1, 1], [-1, 1, 1], [2], seen.append) == [1, 2]
        assert seen == [1, 1]
        seen.clear()
        # A symbol met again once done closes no cycle.
        assert _post_order([-1, 0, 1], [-1, 0, 0], [2], seen.append) == [0, 1, 2]
        assert seen == []


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

    @pytest.mark.parametrize("rule,code,message", [
        (HConcat(1, 0), "kind", "concat operands must be ground"),
        (HoleConcat("H", "first", 1, 1, 1), "kind",
         "hole-concat ground operand is a context"),
        (HoleConcat("H", "first", 2, 1, 1), "dimension",
         "hole height 1 != ground height 2"),
        (HoleConcat("V", "first", 3, 1, 1), "dimension",
         "hole width 1 != ground width 2"),
        (CtxConcat("H", "first", 0, 0), "kind",
         "ctx-concat needs (context, ground) operands"),
        (CtxConcat("H", "first", 1, 2), "dimension", "h-concat heights differ: 1 vs 2"),
        (CtxConcat("V", "first", 1, 0), "dimension", "v-concat widths differ: 2 vs 1"),
        (Compose(1, 0), "kind", "compose needs two context operands"),
        (Apply(0, 0), "kind", "apply needs (context, ground) operands"),
    ], ids=["concat-of-context", "hole-on-context", "hole-height", "hole-width",
            "ctxcat-without-context", "ctxcat-heights", "ctxcat-widths",
            "compose-of-ground", "apply-to-ground"])
    def test_misfit_reported(self, rule, code, message):
        """Each operand misfit ``layout`` finds is one violation, at its
        symbol; the symbols below it are x (1x1), a 1x2 context with a 1x1
        hole, a 2x1 column and a 1x2 row."""
        x, ctx = Terminal("x"), HoleConcat("H", "first", 0, 1, 1)
        t = Tslp2D((x, ctx, VConcat(0, 0), HConcat(0, 0), rule), 0)
        assert validate(t).violations == (grammar.Violation(code, 4, "S4", message),)

    @pytest.mark.parametrize("start", [-1, 1])
    def test_start_out_of_range_reported(self, start):
        rep = validate(Grammar2D((Terminal("x"),), start))
        assert rep.violations == (grammar.Violation(
            "undefined", start, str(start), "start symbol id out of range"),)

    @pytest.mark.parametrize("start", [-1, 2, "undefined"])
    @pytest.mark.parametrize("entry", [
        lambda g, geo: compute_geometry(g),
        lambda g, geo: access_tslp(g, 1, 1, geo),
        lambda g, geo: build_fast(g, geo=geo),
        linearize_rows,
        balance_to_tslp,
        rebalance_plain_2d,
        lambda g, geo: expand(g, geo=geo),
    ], ids=["compute_geometry", "access_tslp", "build_fast", "linearize_rows",
            "balance_to_tslp", "rebalance_plain_2d", "expand"])
    def test_start_out_of_range_refused(self, entry, start):
        """A start id out of range, or in range but undefined, is never read
        as another symbol's (-1 was the last one's): not with a kept table,
        and not with a table handed in as ``geo=``, here the one of the same
        rules at start 0."""
        if start == "undefined":
            rules, start = (Terminal("a"), None), 1
            message = "[undefined] S1: start symbol has no production"
        else:
            rules = (Terminal("a"), Terminal("b"))
            message = f"[undefined] {start}: start symbol id out of range"
        table = compute_geometry(Grammar2D(rules, 0))
        kept = grammar._with_geometry(Grammar2D(rules, start), table)
        for g, geo in ((Grammar2D(rules, start), None), (kept, None),
                       (Grammar2D(rules, start), table)):
            with pytest.raises(GridSlpError) as e:
                entry(g, geo)
            assert str(e.value) == message

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


#: The kind lists, which no module outside grammar and textio reads.
KIND_LISTS = {"PLAIN_KINDS", "CONTEXT_KINDS"}


def test_only_grammar_and_textio_name_holed_kinds():
    """Everything else follows ``layout`` entries instead of the kinds or
    the productions."""
    src = Path(__file__).resolve().parent.parent / "src" / "gridslp"
    hits = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        if path.name not in KIND_MODULES
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if HOLED_KIND_NAMES.search(line)
    ]
    assert not hits, "\n".join(hits)
    # Outside grammar and textio, nothing reads a production's kind, the
    # kind lists or a grammar's productions (``.rules``).
    hits = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name not in ("grammar.py", "textio.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("kind", "rules")
        or isinstance(node, ast.Name) and node.id in KIND_LISTS
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

    def test_walk_skips_an_unreferenced_undefined_symbol(self):
        """A forward reference takes the walk, whose roots are the defined
        symbols only: an undefined one nothing references is not laid out."""
        g = Grammar2D((HConcat(1, 1), Terminal("x"), None), 0)
        assert validate(g).ok
        assert compute_geometry(g).dims(0) == (1, 2)
        assert compute_geometry(g).entries[2] is None

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
