"""Structured corpus: hard-to-compress matrices and the grammars for them.

The matrices here stress different parts of the package.  ``Bin`` enumerates
all n-bit words between ``$`` markers; ``ShiftBin`` repeats it in
progressively shifted column blocks so middle rows contain many distinct
words; the ``C`` matrices stack shifted copies into two offset vertical
strips; the spiral nests ``C`` strips and their clockwise rotations, laid
out from the strips' own geometry table, around a shrinking square.
Each ``build_*`` grammar is checked against an independent oracle that
fills a numpy matrix cell by cell straight from the definition; the oracles
live with the tests (``tests/reference_gadgets.py``), so neither borrows
from the other.

``random_grammar`` generates seeded, dimension-bounded plain grammars for
fuzzing the generic machinery.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .grammar import Grammar2D, GrammarBuilder, ParameterError, compute_geometry


def _block_exponent_for(budget: Fraction) -> int:
    """Largest m with 2^m (m+2) ≤ budget; ParameterError if even m=0 fails."""
    if budget < 2:
        raise ParameterError(f"no ShiftBin block fits a budget of {budget}")
    m = 0
    while (1 << (m + 1)) * (m + 3) <= budget:
        m += 1
    return m


def cnm_block_exponent(M: int) -> int:
    """Largest m with 2^m (m+2) ≤ M/2 — the ShiftBin size a width-M C packs."""
    if M < 4:
        raise ParameterError(f"C matrix needs width ≥ 4 to fit two strips, got {M}")
    return _block_exponent_for(Fraction(M, 2))


# ---------------------------------------------------------------------------
# Shared construction helpers (all take an open builder so gadgets can share
# structure through deduplication)


def _zero_rect(b: GrammarBuilder, zero: int, h: int, w: int) -> int:
    """An all-zero h x w block in O(log h + log w) symbols."""
    return b.repeat("V", b.repeat("H", zero, w), h)


# ---------------------------------------------------------------------------
# Bin and ShiftBin


def _bin_into(b: GrammarBuilder, n: int) -> int:
    """Add the Bin construction for 2^n rows; returns the root symbol."""
    dollar = b.terminal("$")
    if n == 0:
        return b.h(dollar, dollar)
    zero = b.terminal("0")
    one = b.terminal("1")
    # Constant-bit columns; index i has height 2^(i-1).
    zcol = [None, zero]
    ocol = [None, one]
    for i in range(2, n + 1):
        zcol.append(b.v(zcol[i - 1], zcol[i - 1]))
        ocol.append(b.v(ocol[i - 1], ocol[i - 1]))
    # s derives all i-bit words stacked in numeric order; extending to i+1
    # bits prefixes a constant column to each half.
    s = b.v(zero, one)
    for i in range(1, n):
        s0 = b.h(zcol[i + 1], s)
        s1 = b.h(ocol[i + 1], s)
        s = b.v(s0, s1)
    dcol = dollar
    for _ in range(n):
        dcol = b.v(dcol, dcol)
    return b.h(b.h(dcol, s), dcol)


def build_bin(n: int) -> Grammar2D:
    """Grammar of O(n) symbols deriving the 2^n x (n+2) Bin matrix."""
    if not (0 <= n <= 20):
        raise ParameterError(f"bit width n must be in [0, 20], got {n}")
    b = GrammarBuilder(dedup=True)
    return b.finish(_bin_into(b, n))


def _shiftbin_into(b: GrammarBuilder, n: int) -> int:
    """Add the ShiftBin construction for block size 2^n; returns the root."""
    a = _bin_into(b, n)  # block 0: Bin at the top of its column block
    zero = b.terminal("0")
    # A plain chain of n + 2 zeros, which keeps the symbol count exact.
    zrow = b.chain("H", [zero] * (n + 2))
    # Doubling step: the left half keeps the shifts, the right half gets the
    # same blocks pushed a further 2^(i-1) rows down.
    zi = zrow  # zeros, 2^(i-1) x 2^(i-1)(n+2)
    for i in range(1, n + 1):
        a = b.h(b.v(a, zi), b.v(zi, a))
        if i < n:
            tall = b.v(zi, zi)
            zi = b.h(tall, tall)
    bottom = zrow
    for _ in range(n):
        bottom = b.h(bottom, bottom)
    return b.v(a, bottom)


def build_shiftbin(n: int) -> Grammar2D:
    """Grammar of O(n) symbols deriving the 2^(n+1) x 2^n(n+2) ShiftBin."""
    if not (0 <= n <= 20):
        raise ParameterError(f"bit width n must be in [0, 20], got {n}")
    b = GrammarBuilder(dedup=True)
    return b.finish(_shiftbin_into(b, n))


# ---------------------------------------------------------------------------
# The C matrices and their extension sequence


def build_cnm(N: int, M: int) -> Grammar2D:
    """Grammar of O(log N + log M) symbols deriving the N x M C matrix."""
    if M < 8:
        raise ParameterError(f"C matrix width must be ≥ 8, got {M}")
    return build_cnm_sequence(N, M, 1 << cnm_block_exponent(M), 0)[0]


def build_cnm_sequence(
    N: int, M: int, b_step: int, k: int
) -> tuple[Grammar2D, list[int]]:
    """One grammar with roots deriving C(N + i·b_step, M) for i = 0..k.

    Growing a C matrix by a whole number of 2M'-row block periods appends
    that many more ShiftBin copies to each strip and keeps the padding rows
    unchanged, so consecutive roots share everything but a constant number
    of productions; the grammar totals O(log N + log M + k) symbols.
    ``b_step`` must be a positive multiple of M' and at most N.  The
    returned grammar's start symbol is the last root.
    """
    m = cnm_block_exponent(M)
    mp = 1 << m
    W = mp * (m + 2)
    if b_step <= 0 or b_step % mp:
        raise ParameterError(f"step {b_step} is not a positive multiple of M'={mp}")
    if N < mp:
        raise ParameterError(f"C matrix needs height ≥ M'={mp}, got {N}")
    if b_step > N:
        raise ParameterError(f"step {b_step} exceeds the base height {N}")
    if k < 0:
        raise ParameterError(f"sequence length k must be ≥ 0, got {k}")

    b = GrammarBuilder(dedup=True)
    sb = _shiftbin_into(b, m)
    zero = b.terminal("0")
    wide = M - W
    wsb = b.h(sb, _zero_rect(b, zero, 2 * mp, M - 2 * W)) if M > 2 * W else sb
    top_zeros = _zero_rect(b, zero, mp, wide)

    # When the step is a whole number of block periods the paddings agree for
    # every root and one growing chain serves them all; an odd multiple of M'
    # alternates between two padding patterns, so two chains interleave.
    stride = 1 if b_step % (2 * mp) == 0 else 2
    copies = stride * b_step // (2 * mp)
    if k >= stride:
        grow_l = b.repeat("V", sb, copies)
        grow_r = b.repeat("V", wsb, copies)

    roots: list[int | None] = [None] * (k + 1)
    for parity in range(stride):
        if parity > k:
            break
        base = N + parity * b_step
        k_left = base // (2 * mp)
        pad_left = base - 2 * mp * k_left
        k_right = (base - mp) // (2 * mp)
        pad_right = (base - mp) - 2 * mp * k_right
        pads_left = _zero_rect(b, zero, pad_left, W) if pad_left else None
        pads_right = _zero_rect(b, zero, pad_right, wide) if pad_right else None

        stack_left = b.repeat("V", sb, k_left) if k_left else None
        tops = b.chain(
            "V", [top_zeros, b.repeat("V", wsb, k_right) if k_right else None]
        )

        i = parity
        while True:
            left = b.chain("V", [stack_left, pads_left])
            right = b.chain("V", [tops, pads_right])
            roots[i] = b.h(left, right)
            i += stride
            if i > k:
                break
            stack_left = grow_l if stack_left is None else b.v(stack_left, grow_l)
            tops = b.v(tops, grow_r)

    return b.finish(roots[-1]), roots


# ---------------------------------------------------------------------------
# The spiral family


@dataclass(frozen=True)
class SpiralParams:
    """Derived layer parameters for the N x N spiral at depth constant c.

    ``delta_prime`` is the ideal layer thickness N/(8c·log2 N); ``delta``
    rounds it down to a multiple of the full block period 2·m_prime (where
    ``m_prime`` is the largest power of two with M'(log2 M' + 2) ≤
    delta_prime/2), staying within a factor two; ``lam`` is the number of
    nested layers.  The period-aligned rounding keeps every strip in the
    C sequence on the same padding pattern.
    """

    n: int
    c: int
    delta_prime: Fraction
    lam: int
    m_prime: int
    delta: int

    @property
    def center_height(self) -> int:
        return self.n - (2 * self.lam - 1) * self.delta

    @property
    def center_width(self) -> int:
        return self.n - 2 * self.lam * self.delta


def spiral_params(N: int, c: int = 1) -> SpiralParams:
    """Derive the spiral parameters for side length N.

    Once M' fits delta'/2, delta ≥ delta'/2, the block size re-derived from
    delta is M' again and the centre block is non-empty, so none is checked
    here; ``TestSpiral.test_params_invariants`` asserts all three.
    """
    if N < 2 or N & (N - 1):
        raise ParameterError(f"spiral side must be a power of two ≥ 2, got {N}")
    if c < 1:
        raise ParameterError(f"depth constant c must be ≥ 1, got {c}")
    logn = N.bit_length() - 1
    lam = math.ceil(2 * c * logn)
    delta_prime = Fraction(N, 8 * c * logn)
    mp = 1 << _block_exponent_for(delta_prime / 2)
    delta = 2 * mp * math.floor(delta_prime / (2 * mp))
    return SpiralParams(N, c, delta_prime, lam, mp, delta)


def build_spiral(N: int, c: int = 1) -> Grammar2D:
    """Grammar of O(log N) symbols deriving the N x N spiral matrix.

    Layer i (side N − 2iΔ) wraps C strips clockwise around layer i+1: the
    full-height strip on the right, a rotated one on the bottom, then left,
    then top; the innermost square is all zeros.  All strips come from one
    C-sequence grammar; its clockwise rotation is added to the same builder
    from the sequence's own geometry table, at most one symbol per symbol.
    """
    sp = spiral_params(N, c)
    lam, delta = sp.lam, sp.delta
    seq, roots = build_cnm_sequence(sp.center_height, delta, delta, 2 * lam - 1)

    # rmap[s] derives exp(s) rotated clockwise: a second child beside the
    # first goes below it (left columns become top rows), one below the first
    # goes to its left (top rows become right columns).
    b = GrammarBuilder.seeded(seq)
    rmap: list[int] = []
    for e in compute_geometry(seq).entries:
        if e.__class__ is str:
            rmap.append(b.terminal(e))
        else:
            x, y = rmap[e[0]], rmap[e[5]]
            rmap.append(b.v(x, y) if e[7] > 0 else b.h(y, x))

    def strip(m: int) -> int:
        # Vertical C strip of height N − m·delta.
        return roots[2 * lam - 1 - m]

    def strip_rot(m: int) -> int:
        return rmap[roots[2 * lam - 1 - m]]

    zero = b.terminal("0")
    inner = _zero_rect(b, zero, sp.center_height, sp.center_width)
    for i in reversed(range(lam)):
        if i < lam - 1:
            inner = b.v(strip_rot(2 * i + 2), inner)  # top strip of layer i+1's wrap
        f2 = b.h(strip(2 * i + 1), inner)  # left strip
        f1 = b.v(f2, strip_rot(2 * i + 1))  # bottom strip
        inner = b.h(f1, strip(2 * i))  # right strip completes layer i
    return b.finish(inner)


# ---------------------------------------------------------------------------
# Fuzz corpus


def random_grammar(seed: int, g: int, max_dim: int = 64) -> Grammar2D:
    """A deterministic valid plain grammar with exactly ``g`` symbols.

    Bottom-up: each new symbol is a terminal or a concat of two existing
    symbols with compatible dimensions, never exceeding ``max_dim`` on either
    side.  The start symbol is the one with the largest derived area (ties to
    the newest), so fuzz queries exercise real structure.
    """
    if g < 1 or max_dim < 1:
        raise ParameterError(f"symbol count and max_dim must be ≥ 1, got {g}, {max_dim}")
    rng = random.Random(seed)
    alphabet = "01ab"
    b = GrammarBuilder(dedup=False)
    b.terminal(rng.choice(alphabet))
    # Each height's (id, width) and each width's (id, height) pairs, in id
    # order, so a filtered bucket lists the candidates a scan of every id
    # finds, in the same order, and every rng.choice is unchanged.
    by_h, by_w = {1: [(0, 1)]}, {1: [(0, 1)]}
    while len(b) < g:
        if rng.random() < 0.2:
            sym = b.terminal(rng.choice(alphabet))
        else:
            axis = rng.choice("HV")
            first = rng.randrange(len(b))
            h1, w1 = b.dims(first)
            if axis == "H":
                cands = [s for s, w in by_h[h1] if w1 + w <= max_dim]
            else:
                cands = [s for s, h in by_w[w1] if h1 + h <= max_dim]
            if not cands:
                sym = b.terminal(rng.choice(alphabet))
            else:
                second = rng.choice(cands)
                sym = (b.h if axis == "H" else b.v)(first, second)
        h, w = b.dims(sym)
        by_h.setdefault(h, []).append((sym, w))
        by_w.setdefault(w, []).append((sym, h))
    start = max(range(len(b)), key=lambda s: (b.dims(s)[0] * b.dims(s)[1], s))
    return b.finish(start)
