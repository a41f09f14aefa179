"""Materialization: correctness against references, hole markers, area caps."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from gridslp import matrix
from gridslp import (
    AreaLimitExceeded,
    Grammar2D,
    GrammarBuilder,
    HConcat,
    InternalHoleHit,
    ParameterError,
    Terminal,
    access_tslp,
    build_bin,
    build_shiftbin,
    build_spiral,
    compute_geometry,
    expand,
    matrix_to_text,
    max_cells_default,
)

from conftest import example_tslp, glyph_quadtree, random_tslp
from reference_gadgets import reference_bin, reference_shiftbin


def test_expand_matches_reference_small():
    for n in range(0, 5):
        assert (expand(build_bin(n)) == reference_bin(n)).all()
        assert (expand(build_shiftbin(n)) == reference_shiftbin(n)).all()


def test_expand_subsymbol():
    b = GrammarBuilder(dedup=False)
    x = b.terminal("x")
    y = b.terminal("y")
    g = b.finish(b.h(x, y))
    assert expand(g, x).tolist() == [["x"]]
    assert expand(g, y).tolist() == [["y"]]
    assert expand(g).tolist() == [["x", "y"]]


def test_expand_rejects_a_symbol_out_of_range_or_undefined():
    g = build_bin(2)
    for sym in (-1, -g.symbols, g.symbols):
        with pytest.raises(ParameterError):
            expand(g, sym)
    undefined = Grammar2D((Terminal("x"), None, HConcat(0, 0)), 2)
    assert expand(undefined).tolist() == [["x", "x"]]
    with pytest.raises(ParameterError):
        expand(undefined, 1)


def test_context_expansion_marks_hole():
    t = example_tslp()
    ctx = next(s for s, r in enumerate(t.rules) if r is not None and r.kind == "hole")
    m = expand(t, ctx)
    assert m.shape == (2, 2)
    assert m[0].tolist() == ["#", "#"]
    assert m[1].tolist() == ["0", "1"]


def test_custom_hole_marker():
    t = example_tslp()
    ctx = next(s for s, r in enumerate(t.rules) if r is not None and r.kind == "hole")
    m = expand(t, ctx, hole_marker="@")
    assert m[0].tolist() == ["@", "@"]


def test_malformed_hole_marker_rejected():
    t = example_tslp()
    ctx = next(s for s, r in enumerate(t.rules) if r is not None and r.kind == "hole")
    for marker in ("ab", "", None):
        with pytest.raises(ParameterError):
            expand(t, ctx, hole_marker=marker)


def test_area_cap_enforced():
    b = GrammarBuilder(dedup=False)
    s = b.terminal("x")
    for _ in range(20):
        s = b.h(s, s)
    g = b.finish(s)  # 1 x 2^20
    with pytest.raises(AreaLimitExceeded):
        expand(g, max_cells=1 << 10)
    # and the default cap can be overridden upward explicitly
    assert expand(g, max_cells=1 << 21).shape == (1, 1 << 20)


def test_max_cells_env_override(monkeypatch):
    monkeypatch.setenv("GRIDSLP_MAX_CELLS", "12345")
    assert max_cells_default() == 12345
    monkeypatch.setenv("GRIDSLP_MAX_CELLS", "junk")
    with pytest.raises(AreaLimitExceeded):
        max_cells_default()
    monkeypatch.delenv("GRIDSLP_MAX_CELLS")
    assert max_cells_default() == 1 << 26


def matrix_from_text(text: str) -> np.ndarray:
    """Parse ``matrix_to_text``'s row-per-line form; lines must have equal
    length."""
    lines = text.splitlines()
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("empty matrix text")
    width = len(lines[0])
    if any(len(line) != width for line in lines):
        raise ValueError("ragged matrix text")
    out = np.empty((len(lines), width), dtype="<U1")
    for i, line in enumerate(lines):
        out[i, :] = list(line)
    return out


def test_matrix_text_round_trip():
    m = reference_bin(3)
    assert (matrix_from_text(matrix_to_text(m)) == m).all()


def test_matrix_text_of_wide_characters_and_views():
    """Each line is the row's characters joined, for terminals above U+00FF
    and outside the BMP and for a non-contiguous view."""
    m = np.array([["\u0101", "\u4e2d", "#"], ["\U0001F600", "#", "\u0101"]], dtype="<U1")
    for view in (m, m.T, m[:, ::2]):
        assert matrix_to_text(view) == "\n".join("".join(row) for row in view)


def test_matrix_from_text_rejects_ragged():
    with pytest.raises(ValueError):
        matrix_from_text("ab\nabc")


def test_deep_grammar_expands_iteratively():
    # Depth far beyond the recursion limit must still materialize.
    b = GrammarBuilder(dedup=False)
    a = b.terminal("a")
    s = a
    for _ in range(30_000):
        s = b.h(s, a)
    g = b.finish(s)
    assert expand(g).shape == (1, 30_001)


def test_cache_cap_does_not_change_the_expansion(monkeypatch):
    """Caching nothing, only single cells or only blocks of up to four cells
    paints what the default cap paints, hole markers included, for every
    symbol of the differential corpus and the spirals 2^8..2^10."""
    cases = [(t, s) for t in map(random_tslp, range(300)) for s in range(t.symbols)]
    cases += [(g, g.start) for g in (build_spiral(1 << k) for k in (8, 9, 10))]
    want = [expand(t, s) for t, s in cases]
    for cap in (0, 1, 4):
        monkeypatch.setattr(matrix, "_MEMO_CELLS", cap)
        for i, ((t, s), w) in enumerate(zip(cases, want)):
            got = expand(t, s)
            assert got.shape == w.shape and (got == w).all(), (cap, i)


@pytest.mark.parametrize("apply_first", [False, True])
def test_context_cached_with_its_hole_open(apply_first):
    """One expansion paints the context C = [hole, x] twice: under an apply
    that fills its hole with y, and inside a compose that leaves its hole
    open.  Whichever comes first caches C's block, which must hold the hole
    marker, not y."""
    b = GrammarBuilder()
    x, y, g = b.terminal("x"), b.terminal("y"), b.terminal("g")
    c = b.hole_concat("H", "first", x, 1, 1)
    filled = b.apply(c, y)
    opened = b.compose(b.hole_concat("V", "first", b.h(g, g), 1, 2), c)
    if apply_first:
        # A compose paints its outer context, which holds the apply, first.
        top = b.compose(b.hole_concat("V", "first", filled, 2, 2), opened)
    else:
        # A context concat paints its context, the compose, first.
        top = b.ctx_concat("V", "first", opened, filled)
    t = b.finish_tslp(b.apply(top, x))
    assert expand(t, top).tolist() == [["#", "x"], ["g", "g"], ["y", "x"]]


def _walk_only(monkeypatch):
    monkeypatch.setattr(matrix, "_CELLS_PER_SYMBOL", float("inf"))


def _always_batch(monkeypatch):
    monkeypatch.setattr(matrix, "_CELLS_PER_SYMBOL", 0)
    monkeypatch.setattr(matrix, "_SYMBOLS_PER_LAYOUT", 0)


def _batches(g, sym) -> bool:
    geo = compute_geometry(g)
    return matrix._build(geo, sym, geo.area(sym)) is not None


def test_batched_build_matches_the_walk(monkeypatch):
    """With the batching rule forced on, every symbol of the differential
    corpus and the spirals 2^8..2^10 expands as the walk alone paints it,
    hole markers included."""
    cases = [(t, s) for t in map(random_tslp, range(300)) for s in range(t.symbols)]
    cases += [(g, g.start) for g in (build_spiral(1 << k) for k in (8, 9, 10))]
    _walk_only(monkeypatch)
    want = [expand(t, s) for t, s in cases]
    _always_batch(monkeypatch)
    assert all(_batches(t, s) for t, s in cases[-3:])
    for i, ((t, s), w) in enumerate(zip(cases, want)):
        got = expand(t, s)
        assert got.dtype == w.dtype and got.shape == w.shape and (got == w).all(), i


def test_glyph_quadtree_batches_by_itself():
    m, g = glyph_quadtree()
    assert _batches(g, g.start)
    assert expand(g).tolist() == [list(row) for row in m]


@pytest.mark.parametrize("batch", [False, True])
def test_wide_characters_on_both_paths(monkeypatch, batch):
    """Terminals and a hole marker above U+00FF, one outside the BMP,
    expand cell for cell as ``access_tslp`` reads them, batched or walked."""
    wide = {"a": "\u0101", "b": "\U0001F600", "c": "c", "d": "\u4e2d"}
    marker = "\u2588"
    (_always_batch if batch else _walk_only)(monkeypatch)
    built = set()
    for seed in range(40):
        t = random_tslp(seed)
        t = dataclasses.replace(t, rules=tuple(
            Terminal(wide[r.char]) if r.kind == "term" else r for r in t.rules))
        for s in range(t.symbols):
            ts = dataclasses.replace(t, start=s)
            built.add(_batches(ts, s))
            got = expand(ts, hole_marker=marker)
            for x, y in np.ndindex(*got.shape):
                try:
                    want = access_tslp(ts, x + 1, y + 1)[0]
                except InternalHoleHit:
                    want = marker
                assert got[x, y] == want, (seed, s, x, y)
    assert built == ({False, True} if batch else {False})
