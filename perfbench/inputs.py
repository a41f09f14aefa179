"""Workload inputs: the grammar under test, its oracle, and query positions.

Everything here is a function of the workload seed alone; the library only
ever sees the generated grammars, files and coordinates.
"""

from __future__ import annotations

import numpy as np

from gridslp import Grammar2D, HConcat, Terminal, VConcat, build_spiral, expand

SPIRAL_SIDE = 4096

QUADTREE_SIDE = 1024
GLYPH_SIDE = 16
GLYPHS = 24
NOISE_SHARE = 0.002

WINDOW_SIDE = 32
#: Windows are spread over a STRATA x STRATA grid of the matrix, one per
#: grid cell in turn, so that every seed queries shallow and deep parts of
#: the spiral alike: over seeds 1-10, the median plain-access visits of
#: the windows spread (IQR/median) 0.14 at uniform origins and 0.09 on this
#: grid.  A 6x6 grid (36 windows) cut that to 0.04, but left each window
#: too few repetitions in a run to keep the p99s steady.
STRATA = 4


def spiral_grammar() -> Grammar2D:
    """The N=4096 spiral gadget: 612 symbols, depth 120."""
    return build_spiral(SPIRAL_SIDE)


def quadtree_matrix(seed: int) -> np.ndarray:
    """A 1024x1024 {0,1} matrix tiled from 24 random 16x16 glyphs.

    0.2% of the positions (drawn with replacement) are then set to 1, so most
    tiles repeat exactly while a few thousand cells break the repetition.
    """
    rng = np.random.default_rng([seed, 1])
    bank = rng.integers(0, 2, size=(GLYPHS, GLYPH_SIDE, GLYPH_SIDE), dtype=np.uint8)
    tiles = QUADTREE_SIDE // GLYPH_SIDE
    pick = rng.integers(0, GLYPHS, size=(tiles, tiles))
    m = bank[pick].transpose(0, 2, 1, 3).reshape(QUADTREE_SIDE, QUADTREE_SIDE)
    noise = round(NOISE_SHARE * QUADTREE_SIDE * QUADTREE_SIDE)
    m[rng.integers(0, QUADTREE_SIDE, noise), rng.integers(0, QUADTREE_SIDE, noise)] = 1
    return m


def quadtree_grammar(m: np.ndarray) -> Grammar2D:
    """Hash-cons a 2^k x 2^k {0,1} matrix bottom-up into a plain grammar.

    Each quadtree node becomes V(H(nw, ne), H(sw, se)); equal blocks share one
    symbol, so the grammar has one symbol per distinct block and depth 2k+1.
    """
    if m.shape[0] != m.shape[1] or m.shape[0] & (m.shape[0] - 1):
        raise ValueError(f"quadtree input must be a square power of two, got {m.shape}")
    rules: list = [Terminal("0"), Terminal("1")]

    def combine(a: np.ndarray, b: np.ndarray, make) -> np.ndarray:
        n = len(rules)
        keys, inverse = np.unique((a * n + b).ravel(), return_inverse=True)
        rules.extend(make(k // n, k % n) for k in keys.tolist())
        return (inverse + n).reshape(a.shape)

    ids = m.astype(np.int64)
    while ids.shape[0] > 1:
        rows = combine(ids[:, 0::2], ids[:, 1::2], HConcat)
        ids = combine(rows[0::2, :], rows[1::2, :], VConcat)
    return Grammar2D(rules=tuple(rules), start=int(ids[0, 0]))


def char_codes(m: np.ndarray) -> np.ndarray:
    """A '<U1' character matrix as uint8 codes (the alphabet is ASCII)."""
    return m.view(np.uint32).astype(np.uint8)


def spiral_oracle(g: Grammar2D) -> np.ndarray:
    """Cell codes of the unbalanced spiral's full expansion."""
    return char_codes(expand(g))


def quadtree_oracle(m: np.ndarray) -> np.ndarray:
    """Cell codes of the source matrix, independent of the library."""
    return m + np.uint8(ord("0"))


class Positions:
    """An endless seeded stream of 1-based query batches over an h x w matrix.

    ``window=False`` draws uniform random cells; ``window=True`` yields every
    cell of a 32x32 window in row-major order, the k-th window at a random
    origin inside cell k mod 16 of a 4x4 grid over the matrix.
    """

    def __init__(self, seed: int, h: int, w: int, window: bool, batch: int = 1024):
        self.rng = np.random.default_rng([seed, 2])
        self.h, self.w, self.window, self.batch = h, w, window, batch
        self.count = 0

    def next(self) -> tuple[list[int], list[int]]:
        if self.window:
            gi, gj = divmod(self.count % STRATA**2, STRATA)
            self.count += 1
            ch, cw = self.h // STRATA, self.w // STRATA
            ox = gi * ch + int(self.rng.integers(1, ch - WINDOW_SIDE + 2))
            oy = gj * cw + int(self.rng.integers(1, cw - WINDOW_SIDE + 2))
            span = np.arange(WINDOW_SIDE)
            xs = np.repeat(span + ox, WINDOW_SIDE)
            ys = np.tile(span + oy, WINDOW_SIDE)
        else:
            xs = self.rng.integers(1, self.h + 1, self.batch)
            ys = self.rng.integers(1, self.w + 1, self.batch)
        return xs.tolist(), ys.tolist()
