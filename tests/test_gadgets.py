"""Gadget constructions against their brute-force reference matrices."""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from gridslp import (
    ParameterError,
    build_bin,
    build_cnm,
    build_cnm_sequence,
    build_shiftbin,
    build_spiral,
    cnm_block_exponent,
    compute_geometry,
    emit_grammar,
    expand,
    random_grammar,
    rotate_cw,
    spiral_params,
    validate,
)

from reference_gadgets import (
    distinct_blocks, reference_bin, reference_cnm, reference_shiftbin)


class TestBin:
    def test_matches_reference(self):
        for n in range(0, 7):
            got = expand(build_bin(n))
            ref = reference_bin(n)
            assert got.shape == ref.shape == (2**n, n + 2), n
            assert (got == ref).all(), n

    def test_symbol_count_linear(self):
        # 6n + 1 exactly: the counter needs a constant number of fresh
        # productions per bit (two constant columns, two halves, one join,
        # one delimiter doubling).
        for n in range(1, 12):
            assert build_bin(n).symbols == 6 * n + 1, n

    def test_row_r_spells_r_minus_one(self):
        m = expand(build_bin(5))
        for r in range(2**5):
            word = "".join(m[r][1:-1])
            assert word == format(r, "05b")
            assert m[r][0] == m[r][-1] == "$"

    def test_parameter_floor(self):
        with pytest.raises(ParameterError):
            build_bin(-1)


class TestShiftBin:
    def test_matches_reference(self):
        for n in range(0, 6):
            got = expand(build_shiftbin(n))
            ref = reference_shiftbin(n)
            assert got.shape == ref.shape == (2 ** (n + 1), 2**n * (n + 2)), n
            assert (got == ref).all(), n

    def test_symbol_count_linear(self):
        # 13n + 1 exactly for n >= 1; the doubling scheme adds a fixed
        # production budget per level (n = 0 is the tiny base case).
        assert build_shiftbin(0).symbols == 5
        for n in range(1, 9):
            assert build_shiftbin(n).symbols == 13 * n + 1, n

    def test_blocks_shift_down_one_row_per_column_block(self):
        n = 3
        m = reference_shiftbin(n)
        bw = n + 2
        for j in range(2**n):
            block = m[:, j * bw : (j + 1) * bw]
            # Bin occupies rows j+1 .. j+2^n (1-based), zeros elsewhere.
            assert (block[j : j + 2**n] == reference_bin(n)).all(), j
            rest = np.delete(block, slice(j, j + 2**n), axis=0)
            assert (rest == "0").all(), j


class TestDistinctBlocks:
    def test_lemma_counts_exhaustive(self):
        # Row r of ShiftBin contains exactly min(r, 2^(n+1) - r) distinct
        # delimited words; the very last row is all zeros.
        for n in range(0, 7):
            m = reference_shiftbin(n)
            rows = 2 ** (n + 1)
            for r in range(1, rows + 1):
                row = "".join(m[r - 1])
                want = min(r, rows - r) if r < rows else 0
                assert distinct_blocks(row, n) == want, (n, r)

    def test_oracle_on_handmade_strings(self):
        assert distinct_blocks("$01$", 2) == 1
        assert distinct_blocks("$01$01$", 2) == 1
        assert distinct_blocks("$01$10$", 2) == 2
        assert distinct_blocks("$01$$10$", 2) == 2
        assert distinct_blocks("0000", 2) == 0
        assert distinct_blocks("$0x$", 2) == 0  # non-bit payload


class TestCnm:
    def test_block_exponent(self):
        # Largest m with 2^m (m+2) <= M/2.
        for M in (4, 8, 16, 32, 64, 128, 256, 512, 1024):
            m = cnm_block_exponent(M)
            assert 2**m * (m + 2) <= M // 2
            assert 2 ** (m + 1) * (m + 3) > M // 2
        assert cnm_block_exponent(512) == 5

    def test_block_exponent_floor(self):
        with pytest.raises(ParameterError):
            cnm_block_exponent(3)
        assert cnm_block_exponent(4) == 0

    def test_matches_reference_grid(self):
        for N in (16, 32, 64):
            for M in (16, 32, 64):
                got = expand(build_cnm(N, M))
                ref = reference_cnm(N, M)
                assert got.shape == ref.shape == (N, M), (N, M)
                assert (got == ref).all(), (N, M)

    def test_degenerate_narrow_case(self):
        # N < 2M': the right column block carries no complete ShiftBin copy.
        got = expand(build_cnm(16, 256))
        assert (got == reference_cnm(16, 256)).all()

    def test_public_floor(self):
        with pytest.raises(ParameterError):
            build_cnm(16, 7)


class TestCnmSequence:
    def test_roots_match_references(self):
        g, roots = build_cnm_sequence(64, 32, 32, 4)
        assert validate(g).ok
        assert g.start == roots[-1]
        for i, root in enumerate(roots):
            ref = reference_cnm(64 + i * 32, 32)
            assert (expand(g, root) == ref).all(), i

    def test_roots_match_references_block_aligned_step(self):
        # Step a multiple of the 2M' block period: single shared chain.
        m = cnm_block_exponent(64)
        step = 2 ** (m + 1) * 4
        g, roots = build_cnm_sequence(128, 64, step, 3)
        for i, root in enumerate(roots):
            assert (expand(g, root) == reference_cnm(128 + i * step, 64)).all(), i

    def test_marginal_cost_constant(self):
        sizes = [
            build_cnm_sequence(256, 64, 64, k)[0].symbols for k in range(0, 9)
        ]
        diffs = {sizes[i + 1] - sizes[i] for i in range(len(sizes) - 1)}
        assert len(diffs) == 1, sizes  # exactly linear in k

    def test_step_must_be_block_multiple(self):
        with pytest.raises(ParameterError):
            build_cnm_sequence(64, 32, 3, 2)


class TestSpiral:
    def test_params_family(self):
        # Frozen parameter table for the c=1 acceptance family.
        want = {
            256: (16, 4, 1),
            1024: (20, 12, 2),
            4096: (24, 40, 4),
            16384: (28, 144, 8),
            65536: (32, 512, 32),
        }
        for N, (lam, delta, mp) in want.items():
            p = spiral_params(N, 1)
            assert (p.lam, p.delta, p.m_prime) == (lam, delta, mp), N

    def test_params_invariants(self):
        """Wherever M' = 1 fits Δ′/2, Δ ≥ Δ′/2, Δ re-derives M' and the
        centre is non-empty; spiral_params relies on this and checks none."""
        for e in range(1, 65):
            for c in range(1, 17):
                if Fraction(1 << e, 16 * c * e) < 2:
                    with pytest.raises(ParameterError, match="no ShiftBin block"):
                        spiral_params(1 << e, c)
                    continue
                p = spiral_params(1 << e, c)
                assert p.delta * 2 >= p.delta_prime, (e, c)  # Δ ≥ Δ′/2
                assert p.delta % (2 * p.m_prime) == 0, (e, c)
                assert 1 << cnm_block_exponent(p.delta) == p.m_prime, (e, c)
                assert p.center_width > 0 and p.center_height > 0, (e, c)

    def test_spiral_is_square_and_valid(self):
        g = build_spiral(256)
        assert validate(g).ok
        geo = compute_geometry(g)
        assert geo.dims(g.start) == (256, 256)

    def test_spiral_against_layered_reference(self):
        # Independent assembly: materialized C strips rotated and layered
        # with plain array ops, no grammar machinery.
        N = 256
        p = spiral_params(N, 1)
        lam, delta = p.lam, p.delta
        n_base = N - (2 * lam - 1) * delta

        def strip(m):
            return reference_cnm(n_base + (2 * lam - 1 - m) * delta, delta)

        center_h = N - (2 * lam - 1) * delta
        center_w = N - 2 * lam * delta
        inner = np.full((center_h, center_w), "0", dtype="<U1")
        for i in range(lam - 1, -1, -1):
            if i < lam - 1:
                inner = np.vstack([np.rot90(strip(2 * i + 2), k=-1), inner])
            f2 = np.hstack([strip(2 * i + 1), inner])
            f1 = np.vstack([f2, np.rot90(strip(2 * i + 1), k=-1)])
            inner = np.hstack([f1, strip(2 * i)])
        assert (expand(build_spiral(N)) == inner).all()

    def test_power_of_two_required(self):
        with pytest.raises(ParameterError):
            build_spiral(300)

    #: sha256 of the emitted text; the benchmark's spiral workloads build
    #: the 4096 grammar, so a change here changes what they measure.
    EMITTED_SHA256 = {
        256: "69a89f18586b7fd508402a864cc64ca12d86a7792d0c22c14e837f1761e7cfd0",
        1024: "c9c46dad23f1da08d0239eddba881a1fe39a21754d339ea3f61e463523bf3c3d",
        4096: "553639838b4cfb210f3596294d8c376522a90cef4ff974dd1d3677bd83cc96dc",
    }

    @pytest.mark.parametrize("n", sorted(EMITTED_SHA256))
    def test_emitted_text_pinned(self, n):
        text = emit_grammar(build_spiral(n))
        assert hashlib.sha256(text.encode()).hexdigest() == self.EMITTED_SHA256[n]


class TestRandomGrammar:
    def test_deterministic(self):
        a = random_grammar(5, 30, max_dim=16)
        b = random_grammar(5, 30, max_dim=16)
        assert a.rules == b.rules and a.start == b.start

    def test_size_exact_and_valid(self):
        for seed in range(20):
            g = random_grammar(seed, 25, max_dim=16)
            assert g.symbols == 25
            assert validate(g).ok

    @pytest.mark.parametrize("g,max_dim", [(0, 64), (5, 0), (5, -1)])
    def test_counts_below_one_refused(self, g, max_dim):
        with pytest.raises(ParameterError, match="must be ≥ 1"):
            random_grammar(0, g, max_dim=max_dim)

    def test_dims_capped(self):
        for seed in range(20):
            g = random_grammar(seed, 60, max_dim=20)
            geo = compute_geometry(g)
            for s, r in enumerate(g.rules):
                if r is not None:
                    assert geo.heights[s] <= 20 and geo.widths[s] <= 20

    # sha256 of the emitted text, for (seed, g, max_dim).
    EMITTED_SHA256 = {
        (1, 4000, 256): "aaeee8187b59959ed2481a24fd17f7dcb1d9caf37a272ca250495c7a3fdb8394",
        (3, 400, 64): "189c1c274d18007ab3d494ff10b0bdb63423e95d5fe9a9d69c6f4dff88c79d9f",
        (7, 50, 24): "0f1aa0036ea3e5c1edf00fb503c8d13960071d7be570b7e9d8f290e63d17b161",
    }

    @pytest.mark.parametrize("args", list(EMITTED_SHA256))
    def test_emitted_bytes_pinned(self, args):
        text = emit_grammar(random_grammar(*args))
        assert hashlib.sha256(text.encode()).hexdigest() == self.EMITTED_SHA256[args]

    def test_rotation_of_cnm_matches_numpy(self):
        g = build_cnm(32, 16)
        assert (expand(rotate_cw(g)) == np.rot90(expand(g), k=-1)).all()
