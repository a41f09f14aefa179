"""The array linearization and the list-reading fold against their scalar
references (``reference_rebalance``): equal grammars, stats and text.  The
linearization numbers its row pairs round by round, the reference one
``h`` call at a time, so those two (and the plans over them) are compared
exactly once one side is renumbered through the id bijection that walking
both DAGs down from corresponding roots finds."""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from gridslp import (
    DIM_BOUND,
    GeometryTable,
    GrammarBuilder,
    HConcat,
    Terminal,
    balance_1d,
    balance_to_tslp,
    build_spiral,
    compute_geometry,
    emit_grammar,
    linearize_rows,
    random_grammar,
    rebalance_plain_2d,
    rotate_cw,
)
from gridslp import transforms
from gridslp.balance import (
    KEEP_SLACK, _dag_of, _inline_contexts, _keep, _plan, _shallow)
from gridslp.grammar import children

import reference_rebalance as ref
from conftest import random_tslp, reachable_topo

#: (N, c) of the spirals 2^8..2^11 at c = 1, 2, 3 that ``build_spiral`` can
#: make: at c ≥ 2 the sides below 2^10 leave no room for a ShiftBin block.
SPIRALS = [(n, c) for n in (256, 512, 1024, 2048) for c in (1, 2, 3)
           if c == 1 or n >= 1024]


def _chained(g, times=40):
    b = GrammarBuilder.seeded(g)
    return b.finish(b.chain("H", [g.start] * times))


def _wide(g):
    """``g`` with contexts inlined, rotated so that it is no taller than
    wide."""
    g = _inline_contexts(g)
    h, w = compute_geometry(g).dims(g.start)
    return rotate_cw(g) if h > w else g


def _bijection(got_rules, want_rules, got_roots, want_roots) -> list[int]:
    """``f[s]``, the id in ``want_rules`` of ``got_rules``' symbol ``s``,
    found by walking both DAGs down from corresponding roots; asserts that
    it is a bijection of all symbols."""
    f = [-1] * len(got_rules)
    stack = list(zip(got_roots, want_roots))
    while stack:
        a, b = stack.pop()
        if f[a] < 0:
            f[a] = b
            stack += zip(children(got_rules[a]), children(want_rules[b]))
        assert f[a] == b
    assert sorted(f) == list(range(len(want_rules)))
    return f


def _renumbered(g, f):
    """The 1D grammar ``g`` with symbol ``s`` renamed ``f[s]``."""
    rules = [None] * len(g.rules)
    for s, r in enumerate(g.rules):
        rules[f[s]] = HConcat(f[r.left], f[r.right]) if r.kind == "h" else r
    return dataclasses.replace(g, rules=tuple(rules), start=f[g.start])


def _assert_same_linearization(lin, want):
    """``lin`` equals ``want``, grammar and text, through the id bijection."""
    lin = _renumbered(lin, _bijection(lin.rules, want.rules, [lin.start], [want.start]))
    assert lin == want
    assert emit_grammar(lin) == emit_grammar(want)


def _assert_same_rebalance(g):
    """The rebalance and the linearization of ``g`` equal the references',
    grammar, stats and text (the linearization through the id bijection);
    returns the stats and the linearization."""
    got, want = rebalance_plain_2d(g), ref.rebalance_plain_2d(g)
    assert got == want
    assert emit_grammar(got[0]) == emit_grammar(want[0])
    lin = linearize_rows(g)
    _assert_same_linearization(lin, ref.linearize_rows(g))
    return got[1], lin


@pytest.mark.parametrize("n,c", SPIRALS)
def test_spirals(n, c):
    g = build_spiral(n, c)
    stats, lin = _assert_same_rebalance(g)
    assert stats.output_depth < stats.input_depth
    assert balance_1d(lin) == ref.balance_1d(lin)
    assert balance_to_tslp(g) == ref.balance_to_tslp(g)


def test_chained_differential_corpus():
    for seed in range(150):
        deep = _chained(_wide(random_tslp(seed)))
        stats, _ = _assert_same_rebalance(deep)
        assert stats.output_depth < stats.input_depth, seed


def test_chained_random_grammars():
    for seed in range(40):
        _assert_same_rebalance(_chained(_wide(random_grammar(seed, 50, max_dim=24))))


def _shallow_string_grid():
    """A vertical chain of 64 balanced rows of 64: deep in 2D, so the
    rebalance runs, but its row-major string passes the keep test."""
    rng = random.Random(7)
    m = ["".join(rng.choice("ab") for _ in range(64)) for _ in range(64)]
    b = GrammarBuilder(dedup=True)
    return b.finish(b.chain("V", [
        b.balanced("H", [b.terminal(c) for c in row]) for row in m]))


def test_shallow_string_fallback():
    g = _shallow_string_grid()
    lin = linearize_rows(g)
    assert _shallow(compute_geometry(lin).depths[lin.start], 64 * 64)
    _assert_same_rebalance(g)


def test_every_output_symbol_is_reachable():
    """The N rows are the fold's only roots, so the rebalance's output holds
    no symbol its start does not reach."""
    grammars = [build_spiral(n, c) for n, c in SPIRALS]
    grammars += [_chained(_wide(random_tslp(seed))) for seed in range(150)]
    grammars += [_chained(_wide(random_grammar(seed, 50, max_dim=24)))
                 for seed in range(40)]
    for i, g in enumerate(grammars):
        out, _ = rebalance_plain_2d(g)
        assert len(reachable_topo(compute_geometry(out), out.start)) == out.symbols, i


def test_balance_to_tslp_on_chained_grammars():
    for seed in range(20):
        g = _chained(random_grammar(seed, 50, max_dim=24))
        assert balance_to_tslp(g) == ref.balance_to_tslp(g), seed


def _plan_as_reference(plan, dag, f=None):
    """The library's plan in the reference's form: order, marks, splits
    (heavy, light, axis, side, light area), canon and requested, with
    symbol ``s`` renamed ``f[s]`` (by default itself)."""
    if f is None:
        f = range(len(plan.mark))
    mark = bytearray(len(plan.mark))
    for z, m in enumerate(plan.mark):
        mark[f[z]] = m
    split = {f[z]: (f[plan.heavy[z]], f[plan.light[z]], dag.op[z], plan.side[z],
                    dag.area[plan.light[z]])
             for z in plan.order if plan.heavy[z] >= 0}
    canon = {f[h]: f[z] for h, z in enumerate(plan.canon) if z >= 0}
    requested = {f[z] for z, r in enumerate(plan.requested) if r}
    return [f[z] for z in plan.order], mark, split, canon, requested


def _assert_same_plans(g):
    """The plan over ``g``'s own symbols (``balance_to_tslp``'s) and over
    its linearized rows (the rebalance's, where the rebalance takes ``g``:
    no taller than wide, and at most 2**62 cells) equal the scalar
    references'."""
    geo = compute_geometry(g)
    dag = _dag_of(geo)
    assert _plan_as_reference(_plan(dag, [g.start]), dag) == ref._plan(
        g.rules, geo, [g.start])
    h, w = geo.dims(g.start)
    if h > w or h * w > 1 << 62:
        return
    dag, rows = transforms._linearize(g, geo)
    lin = GrammarBuilder(dedup=True)
    want_rows = ref._rows(lin, g, geo)
    rules = [HConcat(x, y) if x >= 0 else Terminal(c)
             for x, y, c in zip(dag.left, dag.right, dag.op)]
    f = _bijection(rules, lin.rules, rows, want_rows)
    assert [f[s] for s in rows] == want_rows
    assert _plan_as_reference(_plan(dag, rows), dag, f) == ref._plan(
        lin.rules, compute_geometry(lin.finish(want_rows[0])), want_rows)


@pytest.mark.parametrize("family", ["differential", "chained-differential",
                                    "chained-random", "spirals"])
def test_plan_matches_reference(family):
    if family == "differential":
        grammars = [_inline_contexts(random_tslp(seed)) for seed in range(150)]
    elif family == "chained-differential":
        grammars = [_chained(_wide(random_tslp(seed))) for seed in range(150)]
    elif family == "chained-random":
        grammars = [_chained(_wide(random_grammar(seed, 50, max_dim=24)))
                    for seed in range(40)]
    else:
        grammars = [build_spiral(n, c) for n, c in SPIRALS]
    for g in grammars:
        _assert_same_plans(g)


def _wide_tall_rows():
    """100 equal rows stacked, each ``big + 20 a`` beside ``big + 21 a``
    with ``big`` 2**60 a's: the rows and the stack fail the keep test, the
    stack's area passes 2**63, and a row's two halves differ in area by 1,
    below a float's resolution there."""
    b = GrammarBuilder(dedup=True)
    a = b.terminal("a")
    big = b.repeat("H", a, 1 << 60)
    left, right = b.chain("H", [big] + [a] * 20), b.chain("H", [big] + [a] * 21)
    row = b.h(left, right)
    return b.finish(b.chain("V", [row] * 100)), row, left, right


def test_plan_is_exact_past_int64_areas():
    g, row, left, right = _wide_tall_rows()
    geo = compute_geometry(g)
    assert geo.area(g.start) > 1 << 63
    assert not _shallow(geo.depths[g.start], geo.area(g.start))
    _assert_same_plans(g)
    plan = _plan(_dag_of(geo), [g.start])
    assert (plan.heavy[row], plan.light[row], plan.side[row]) == (right, left, "second")
    assert balance_to_tslp(g) == ref.balance_to_tslp(g)


class TestPairKeyBound:
    def test_small_key_raises_instead_of_wrapping(self, monkeypatch):
        g = _chained(random_grammar(3, 50, max_dim=24))
        want = ref.linearize_rows(g)
        bits = (want.symbols - 1).bit_length()
        # Ids up to 2**bits - 1 fit: the same grammar comes out.
        monkeypatch.setattr(transforms, "PAIR_BITS", bits)
        _assert_same_linearization(linearize_rows(g), want)
        # Past 8 ids a 3-bit key would wrap.
        monkeypatch.setattr(transforms, "PAIR_BITS", 3)
        with pytest.raises(OverflowError, match="pair key"):
            linearize_rows(g)


def _sides_around(k: int) -> list[tuple[int, int]]:
    """Sides of at most 2^62 whose areas straddle the step of area - 1 to
    bit length k + 1: 2^k - 2^j and 2^k (below it) and 2^k + 2^j (above
    it, for k < 124), with 2^j the smallest width that keeps the height
    within 2^62."""
    sides = [(1 << min(k, 62), 1 << max(0, k - 62))]
    if k:
        j = max(0, k - 62)
        sides.append(((1 << (k - j)) - 1, 1 << j))
    if k < 124:
        j = max(0, k - 61)
        sides.append(((1 << (k - j)) + 1, 1 << j))
    return sides


def test_keep_list_is_exact_to_2_124():
    """The keep test the plan reads, precomputed per symbol, equals
    ``_shallow`` at areas straddling every bit-length step of area - 1 up
    to 2^124, around each threshold depth: a 2D area (two sides of up to
    2^62) is past int64."""
    sides = [hw for k in range(125) for hw in _sides_around(k)]
    assert max(max(hw) for hw in sides) <= DIM_BOUND
    triples = [(d, h, w) for h, w in sides
               for d in range(max(1, (h * w - 1).bit_length() + KEEP_SLACK - 2),
                              (h * w - 1).bit_length() + KEEP_SLACK + 3)]
    pairs = [(d, h * w) for d, h, w in triples]
    assert {(a - 1).bit_length() for _, a in pairs} == set(range(125))
    n = len(pairs)
    d, h, w = zip(*triples)
    geo = GeometryTable(h, w, (None,) * n, d, ("a",) * n)
    keep = _dag_of(geo).keep
    assert keep == [_shallow(d, a) for d, a in pairs]
    assert any(keep) and not all(keep)
    # The linearization's array test, on the areas below 2**62 it meets.
    fits = [(d, a) for d, a in pairs if a < 1 << 62]
    depth, area = np.array(fits).T
    assert _keep(depth, area).tolist() == [_shallow(d, a) for d, a in fits]
    side = 1 << 62
    geo = GeometryTable((side, side), (side, side), (None, None), (130, 131), ("a", "a"))
    assert _dag_of(geo).keep == [True, False]
