"""Acceptance suite: one test per shipping criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every verdict line;
without ``-s`` pytest shows the lines only for failing criteria.

Sampling policy (shared across the suite): expansions of at most 10^4 cells
are compared exhaustively; larger ones get 10^4 seeded uniform positions.
"""

from __future__ import annotations

import math
import random

import pytest

from gridslp import (
    access_fast,
    access_plain,
    access_tslp,
    balance_1d,
    balance_to_tslp,
    build_bin,
    build_cnm,
    build_cnm_sequence,
    build_fast,
    build_shiftbin,
    build_spiral,
    compute_geometry,
    emit_grammar,
    expand,
    margin_slp,
    parse_grammar,
    random_grammar,
    rebalance_plain_2d,
    validate,
)

from conftest import acceptance_corpus, caterpillar
from reference_gadgets import (
    distinct_blocks, reference_bin, reference_cnm, reference_shiftbin)
from reference_index import PredecessorSet

SAMPLE_CAP = 10_000


def _verdict(tag: str, ok: bool, detail: str) -> bool:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def _positions(h: int, w: int, seed: int):
    """Every cell when the area fits the cap, else 10^4 seeded samples."""
    if h * w <= SAMPLE_CAP:
        return [(x, y) for x in range(1, h + 1) for y in range(1, w + 1)]
    rng = random.Random(seed)
    return [
        (rng.randrange(1, h + 1), rng.randrange(1, w + 1)) for _ in range(SAMPLE_CAP)
    ]


@pytest.fixture(scope="module")
def corpus():
    return acceptance_corpus()


@pytest.fixture(scope="module")
def spiral_16384_balanced():
    g = build_spiral(1 << 14)
    t, stats = balance_to_tslp(g)
    return g, t, stats


def test_gadget_expansions_match_references():
    mismatches = 0
    for n in range(1, 9):
        mismatches += int(not (expand(build_bin(n)) == reference_bin(n)).all())
        mismatches += int(
            not (expand(build_shiftbin(n)) == reference_shiftbin(n)).all()
        )
    pairs = 0
    for n_rows in (16, 32, 64, 128, 256):
        for n_cols in (16, 32, 64, 128, 256):
            pairs += 1
            mismatches += int(
                not (expand(build_cnm(n_rows, n_cols)) == reference_cnm(n_rows, n_cols)).all()
            )
    ok = mismatches == 0
    assert _verdict(
        "gadget-oracles",
        ok,
        f"bin/shiftbin n=1..8 and cnm over {pairs} (N,M) pairs, "
        f"{mismatches} mismatched grammars",
    )


def test_distinct_block_counts_are_exact():
    checked = 0
    for n in range(1, 9):
        m = reference_shiftbin(n)
        rows = 1 << (n + 1)
        for r in range(1, rows + 1):
            row = "".join(m[r - 1])
            assert distinct_blocks(row, n) == min(r, rows - r), (n, r)
            checked += 1
    assert _verdict(
        "block-counts",
        True,
        f"min(r, 2^(n+1)-r) on all {checked} rows, n=1..8, zero deviations",
    )


def test_plain_rebalance_depth_and_size_budgets():
    details = []
    for exp in (8, 10):
        n = 1 << exp
        g = build_spiral(n)
        out, stats = rebalance_plain_2d(g)
        assert validate(out).ok
        depth_budget = 4 * math.log2(n * n)
        size_budget = 8 * stats.input_size * n
        assert stats.output_depth <= depth_budget, (n, stats.output_depth)
        assert stats.output_size <= size_budget, (n, stats.output_size)
        if n * n <= (1 << 16):
            assert (expand(out) == expand(g)).all()
            how = "full expansion"
        else:
            geo_g, geo_o = compute_geometry(g), compute_geometry(out)
            for x, y in _positions(n, n, seed=exp):
                assert (
                    access_plain(g, x, y, geo=geo_g)[0]
                    == access_plain(out, x, y, geo=geo_o)[0]
                )
            how = f"{SAMPLE_CAP} sampled accesses"
        details.append(
            f"N={n}: depth {stats.output_depth}<={depth_budget:.0f}, "
            f"size {stats.output_size}<={size_budget}, equal by {how}"
        )
    assert _verdict("rebalance-2d", True, "; ".join(details))


def test_balanced_tslp_flatness_across_spiral_family(spiral_16384_balanced):
    depth_ratios = []
    size_ratios = []
    for exp in (8, 10, 12, 14):
        n = 1 << exp
        if exp == 14:
            g, t, stats = spiral_16384_balanced
        else:
            g = build_spiral(n)
            t, stats = balance_to_tslp(g)
        geo_g, geo_t = compute_geometry(g), compute_geometry(t)
        for x, y in _positions(n, n, seed=40 + exp):
            assert (
                access_plain(g, x, y, geo=geo_g)[0]
                == access_tslp(t, x, y, geo=geo_t)[0]
            ), (n, x, y)
        depth_ratios.append(stats.output_depth / math.log2(n * n))
        size_ratios.append(stats.output_size / stats.input_size)
    depth_flat = max(depth_ratios) / min(depth_ratios)
    size_flat = max(size_ratios) / min(size_ratios)
    ok = depth_flat <= 1.5 and size_flat <= 1.5
    assert _verdict(
        "balance-flatness",
        ok,
        f"N=2^8..2^14 sampled-equal; depth/log2(NM) flatness {depth_flat:.3f}, "
        f"size/input flatness {size_flat:.3f}, both <= 1.5",
    )


def test_one_dimensional_balance_budgets():
    details = []
    for exp in (6, 8, 10):
        g_links = 1 << exp
        g = caterpillar(g_links)
        out = balance_1d(g)
        geo = compute_geometry(out)
        assert "".join(expand(out)[0]) == "a" * (g_links + 1)
        depth = geo.depths[out.start]
        depth_budget = 3 * math.log2(g_links + 1) + 10
        size_budget = 16 * g_links
        assert depth <= depth_budget, (g_links, depth)
        assert out.size <= size_budget, (g_links, out.size)
        details.append(
            f"g={g_links}: depth {depth}<={depth_budget:.1f}, size {out.size}<={size_budget}"
        )
    assert _verdict("balance-1d", True, "; ".join(details))


def test_three_access_paths_agree_with_visit_bounds(corpus, spiral_16384_balanced):
    queries = 0
    worst_margin = None
    for name, g in corpus:
        geo = compute_geometry(g)
        h, w = geo.dims(g.start)
        t, _ = balance_to_tslp(g, geo)
        tgeo = compute_geometry(t)
        idx = build_fast(t, 3.0, geo=tgeo)
        limit = math.ceil(tgeo.depths[t.start] / idx.params.levels) + 1
        for x, y in _positions(h, w, seed=17):
            c_plain = access_plain(g, x, y, geo=geo)[0]
            c_tslp = access_tslp(t, x, y, geo=tgeo)[0]
            c_fast, visits = access_fast(idx, x, y)
            assert c_plain == c_tslp == c_fast, (name, x, y)
            assert visits <= limit, (name, x, y, visits, limit)
            queries += 1
            margin = limit - visits
            if worst_margin is None or margin < worst_margin:
                worst_margin = margin

    _, t14, _ = spiral_16384_balanced
    tgeo = compute_geometry(t14)
    idx = build_fast(t14, 3.0, geo=tgeo)
    n = 1 << 14
    rng = random.Random(18)
    pos = [(rng.randrange(1, n + 1), rng.randrange(1, n + 1)) for _ in range(SAMPLE_CAP)]
    mean_fast = sum(access_fast(idx, x, y)[1] for x, y in pos) / len(pos)
    mean_tslp = sum(access_tslp(t14, x, y, geo=tgeo)[1] for x, y in pos) / len(pos)
    ok = mean_fast <= mean_tslp / 2
    assert _verdict(
        "access-agreement",
        ok,
        f"{queries} triple-checked queries over {len(corpus)} grammars, all visit "
        f"bounds hold (tightest slack {worst_margin}); at N=16384 eps=3 mean fast "
        f"visits {mean_fast:.2f} <= {mean_tslp / 2:.2f} (half of tslp)",
    )


def test_margin_grammars_small_and_faithful(corpus):
    checked = 0
    for name, g in corpus:
        geo = compute_geometry(g)
        h, w = geo.dims(g.start)
        small = h * w <= SAMPLE_CAP
        m = expand(g, geo=geo) if small else None
        for side in ("top", "bottom", "left", "right"):
            s = margin_slp(g, side)
            assert s.size <= g.size, (name, side, s.size, g.size)
            strip = expand(s)[0]
            if small:
                want = {
                    "top": m[0, :],
                    "bottom": m[-1, :],
                    "left": m[:, 0],
                    "right": m[:, -1],
                }[side]
                assert (strip == want).all(), (name, side)
            else:
                rng = random.Random(19)
                for _ in range(SAMPLE_CAP // 4):
                    i = rng.randrange(len(strip))
                    x, y = {
                        "top": (1, i + 1),
                        "bottom": (h, i + 1),
                        "left": (i + 1, 1),
                        "right": (i + 1, w),
                    }[side]
                    assert strip[i] == access_plain(g, x, y, geo=geo)[0], (name, side, i)
            checked += 1
    assert _verdict(
        "margins",
        True,
        f"{checked} side grammars: size <= |G| and expansion matches the border",
    )


def test_size_signatures():
    # C_{N,M} family: doubling the row exponent must not double the symbols.
    c_hi = build_cnm(1 << 16, 1 << 10).symbols
    c_lo = build_cnm(1 << 8, 1 << 10).symbols
    cnm_ok = c_hi <= 2 * c_lo
    assert _verdict(
        "size-signature-cnm",
        cnm_ok,
        f"N=2^16,M=2^10 has {c_hi} symbols <= 2x{c_lo} at N=2^8 (log growth)",
    )

    # Appending rows in steps: cost per extra root stays a small constant.
    s8 = build_cnm_sequence(64, 32, 32, 8)[0].symbols
    s16 = build_cnm_sequence(64, 32, 32, 16)[0].symbols
    fitted = (s16 - s8) / 8
    seq_ok = fitted <= 8
    assert _verdict(
        "size-signature-cnmseq",
        seq_ok,
        f"k=16 minus k=8 is {s16 - s8} symbols, {fitted:.0f}/step (linear in k)",
    )

    # Spiral family: a 256x growth in N costs no more than proportional growth
    # in log2(N), i.e. symbols/log2(N) is flat (max/min <= 1.5, the bound
    # balance-flatness puts on depth) at every power of two from 2^8 to 2^16.
    # A two-point "2^16 within 2x of 2^8" budget cannot state this: the count
    # is about A*log2(N) + B with B < 0 (parts sized by the layer thickness,
    # such as the ShiftBin blocks and zero rectangles, grow with N), and
    # 16A + B <= 2(8A + B) needs B >= 0.  log^2(N) growth scores exactly 2.0.
    ratios = {e: build_spiral(1 << e).symbols / e for e in range(8, 17)}
    spiral_flat = max(ratios.values()) / min(ratios.values())
    spiral_ok = spiral_flat <= 1.5
    verdict = _verdict(
        "size-signature-spiral",
        spiral_ok,
        "symbols/log2(N) "
        + ", ".join(f"2^{e}:{r:.2f}" for e, r in ratios.items())
        + f"; flatness {spiral_flat:.3f} <= 1.5",
    )
    assert cnm_ok and seq_ok and verdict


def test_infrastructure_roundtrip_predecessor_fuzz(corpus):
    for name, g in corpus:
        h = parse_grammar(emit_grammar(g))
        assert h.rules == g.rules and h.start == g.start and h.labels == g.labels, name

    rng = random.Random(23)
    for _ in range(100_000):
        n_keys = rng.randrange(1, 40)
        keys = sorted(rng.sample(range(10_000), n_keys))
        x = rng.randrange(-10, 10_010)
        best = None
        for key in keys:
            if key <= x:
                best = key
        assert PredecessorSet(tuple(keys)).pred(x) == best

    for seed in range(100):
        g = random_grammar(seed, 50, max_dim=24)
        assert validate(g).ok, seed
        m = expand(g)
        h, w = m.shape
        geo = compute_geometry(g)
        for x, y in _positions(h, w, seed=seed)[:500]:
            assert access_plain(g, x, y, geo=geo)[0] == m[x - 1, y - 1], seed
        t, _ = balance_to_tslp(g, geo)
        assert (expand(t) == m).all(), seed
    assert _verdict(
        "infrastructure",
        True,
        "round-trip identity on the corpus, predecessor == linear scan on 10^5 "
        "cases, 100-seed fuzz (validate + access + balance equivalence)",
    )
