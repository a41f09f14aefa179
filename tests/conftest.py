"""Shared fixtures: corpus grammars, chain builders, sampling helpers."""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from gridslp import (
    Apply,
    Compose,
    CtxConcat,
    GrammarBuilder,
    HConcat,
    HoleConcat,
    Terminal,
    Tslp2D,
    VConcat,
    balance_to_tslp,
    build_bin,
    build_cnm,
    build_cnm_sequence,
    build_shiftbin,
    build_spiral,
    compute_geometry,
    emit_grammar,
    expand,
    random_grammar,
)
from gridslp.grammar import _post_order, children


def fresh_geometry(g):
    """``g``'s geometry table, from a fresh pass over a copy of ``g``, so
    without reading or filling the table kept on ``g``."""
    return compute_geometry(dataclasses.replace(g))


def rule_order(rules, roots) -> list[int]:
    """``grammar._post_order`` from ``roots`` over each symbol's children
    as its production names them (``children``), not as the geometry
    table's entries do, for the references that read productions."""
    kids = [(-1, -1) if r is None else children(r) + (-1, -1) for r in rules]
    return _post_order([k[0] for k in kids], [k[1] for k in kids], roots)


def reachable_topo(geo, root: int) -> list[int]:
    """The symbols ``root`` reaches, children before parents, read off the
    entries of the geometry table ``geo``."""
    E = geo.entries
    first = [e[0] if e.__class__ is tuple else -1 for e in E]
    second = [-1 if e.__class__ is not tuple or e[5] is None else e[5] for e in E]
    return _post_order(first, second, (root,))


def near_bound_grammar():
    """A (2^62 - 1) x 2^61 grammar of doubling chains: rows of the block
    ``ac/da`` repeated, over one row of ``cd``."""
    b = GrammarBuilder()
    a, c, d = b.terminal("a"), b.terminal("c"), b.terminal("d")
    block = b.v(b.h(a, c), b.h(d, a))
    rows = b.repeat("V", b.repeat("H", block, 1 << 60), (1 << 61) - 1)
    return b.finish(b.v(rows, b.repeat("H", b.h(c, d), 1 << 60)))


def caterpillar(n_links: int, text: str | None = None) -> "Grammar2D":
    """Left-leaning chain of ``n_links`` horizontal concatenations.

    With no ``text`` the string is a^(n_links+1); otherwise the chain spells
    ``text`` (one link per character after the first).  Either way the
    derivation tree is a path, so depth is linear in size — the worst case
    every balancer is supposed to fix.
    """
    b = GrammarBuilder(dedup=False)
    if text is None:
        a = b.terminal("a")
        s = a
        for _ in range(n_links):
            s = b.h(s, a)
    else:
        s = b.terminal(text[0])
        for ch in text[1:]:
            s = b.h(s, b.terminal(ch))
    return b.finish(s)


def row_caterpillar(rows: int, cols: int, seed: int = 0) -> "Grammar2D":
    """Rows chained vertically, each row an h-chain: depth Θ(rows + cols)."""
    rng = random.Random(seed)
    b = GrammarBuilder(dedup=False)
    out = None
    for _ in range(rows):
        row = b.terminal(rng.choice("01"))
        for _ in range(cols - 1):
            row = b.h(row, b.terminal(rng.choice("01")))
        out = row if out is None else b.v(out, row)
    return b.finish(out)


def example_tslp():
    """The two-by-two worked example: T = Apply(hole-over-row, row)."""
    b = GrammarBuilder(dedup=False)
    zero = b.terminal("0")
    one = b.terminal("1")
    row = b.h(zero, one)
    ctx = b.hole_concat("V", "first", row, 1, 2)
    return b.finish_tslp(b.apply(ctx, row))


def sample_positions(n_rows: int, n_cols: int, count: int, seed: int):
    """Deterministic uniform (x, y) samples, 1-based."""
    rng = random.Random(seed)
    return [(rng.randint(1, n_rows), rng.randint(1, n_cols)) for _ in range(count)]


@pytest.fixture(scope="session")
def small_corpus():
    """Grammars small enough for full-expansion comparisons everywhere."""
    return [
        ("bin3", build_bin(3)),
        ("shiftbin3", build_shiftbin(3)),
        ("cnm_32x64", build_cnm(32, 64)),
        ("cnm_64x32", build_cnm(64, 32)),
        ("spiral_256", build_spiral(256)),
        ("rand11", random_grammar(11, 40, max_dim=24)),
        ("rand12", random_grammar(12, 60, max_dim=32)),
        ("example_tslp", example_tslp()),
    ]


def acceptance_corpus():
    """The shared acceptance corpus: named gadgets plus 100 seeded grammars."""
    entries = [
        ("spiral_4096", build_spiral(1 << 12)),
        ("shiftbin_8", build_shiftbin(8)),
        ("cnm_16x16", build_cnm(16, 16)),
        ("cnm_64x128", build_cnm(64, 128)),
        ("cnm_256x256", build_cnm(256, 256)),
    ]
    entries += [(f"random_{s}", random_grammar(s, 50, max_dim=24)) for s in range(100)]
    return entries


#: Tokens a mutation may put in place of another: opcodes known and unknown,
#: sides, numbers and malformed labels.
FUZZ_TOKENS = ("T", "H", "V", "A", "HH", "HV", "CH", "CV", "C", "Q", "start", "#",
               "L", "R", "B", "X", "0", "1", "2", "-1", "1.5", "99999999999",
               "S0", "S1", "a-b", "é", "SLP2D", "TSLP2D", "v1")


def mutate_text(text: str, rng: random.Random) -> str:
    """``text`` with one to three seeded mutations: lines dropped,
    duplicated or swapped; tokens dropped, duplicated, swapped or replaced
    (opcodes, sides, numbers, labels); or the text truncated."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        toks = lines[i].split()
        op = rng.randrange(8)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3:
            lines = lines[:i] + [lines[i][:rng.randrange(len(lines[i]) + 1)]]
        elif not toks:
            continue
        elif op == 4:
            del toks[rng.randrange(len(toks))]
        elif op == 5:
            k = rng.randrange(len(toks))
            toks.insert(k, toks[k])
        elif op == 6:
            j, k = rng.randrange(len(toks)), rng.randrange(len(toks))
            toks[j], toks[k] = toks[k], toks[j]
        else:
            toks[rng.randrange(len(toks))] = rng.choice(FUZZ_TOKENS)
        if op >= 4:
            lines[i] = rng.choice((" ", "\t", "  ")).join(toks)
    return rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("\n", "", "\n# end\n"))


def fuzz_sources():
    """(name, text) of the grammars the fuzz mutates: plain and holed."""
    balanced, _ = balance_to_tslp(row_caterpillar(6, 10))
    grammars = [
        ("spiral_256", build_spiral(256)),
        ("cnm_16x16", build_cnm(16, 16)),
        ("caterpillar_30", caterpillar(30)),
        ("random_5", random_grammar(5, 40, max_dim=16)),
        ("random_tslp_3", random_tslp(3)),
        ("balanced_row_caterpillar", balanced),
    ]
    return [(name, emit_grammar(g)) for name, g in grammars]


@pytest.fixture(scope="session")
def fuzz_texts():
    """(source name, mutated text) pairs, the same on every run."""
    rng = random.Random(20251019)
    return [(name, mutate_text(text, rng))
            for name, text in fuzz_sources() for _ in range(40)]


@pytest.fixture(scope="session")
def spiral_1024():
    return build_spiral(1024)


@pytest.fixture(scope="session")
def seq_corpus():
    g, roots = build_cnm_sequence(64, 32, 32, 4)
    return g, roots


def grids_equal(g, reference: np.ndarray) -> bool:
    got = expand(g)
    return got.shape == reference.shape and bool((got == reference).all())


def full_dims(g):
    geo = compute_geometry(g)
    return geo.heights[g.start], geo.widths[g.start]


def _quadtree(m: list[str], b: GrammarBuilder, x: int, y: int, n: int) -> int:
    """Hash-consed quadtree of the n×n block of ``m`` at (x, y), 0-based."""
    if n == 1:
        return b.terminal(m[x][y])
    k = n // 2
    q = [_quadtree(m, b, x + dx, y + dy, k) for dx in (0, k) for dy in (0, k)]
    return b.v(b.h(q[0], q[1]), b.h(q[2], q[3]))


def glyph_quadtree():
    """A seeded 64×64 matrix of 4×4 glyphs and its hash-consed quadtree
    (depth 13, already shallow)."""
    rng = random.Random(7)
    glyphs = [["".join(rng.choice("ab") for _ in range(4)) for _ in range(4)]
              for _ in range(5)]
    tiles = [[rng.randrange(5) for _ in range(16)] for _ in range(16)]
    m = ["".join(glyphs[tiles[i // 4][j // 4]][i % 4][j % 4] for j in range(64))
         for i in range(64)]
    b = GrammarBuilder(dedup=True)
    return m, b.finish(_quadtree(m, b, 0, 0, 64))


def random_tslp(seed: int, height: int | None = None, width: int | None = None):
    """A seeded random TSLP over all seven production kinds.

    Rules are assembled directly, with dimensions and hole positions tracked
    here rather than by the library, so a test comparing this grammar's
    derivation against an independent painter checks the library's geometry
    instead of reusing it.  Every context is built top-down for a requested
    frame and hole: a bare hole beside a ground block where the frame minus
    the hole is one strip, a context beside a ground block cut off on either
    side of either axis, or a composition through an intermediate rectangle.
    Ground blocks are concatenations or applications.  Symbols of equal
    shape are reused at random, so the result is a DAG.  With ``height=1``
    only horizontal productions are possible.
    """
    rng = random.Random(seed)
    height = height or rng.randint(1, 9)
    width = width or rng.randint(1, 9)
    rules: list = []
    grounds: dict[tuple[int, int], list[int]] = {}
    contexts: dict[tuple[int, ...], list[int]] = {}

    def add(rule, pool, key) -> int:
        rules.append(rule)
        pool.setdefault(key, []).append(len(rules) - 1)
        return len(rules) - 1

    def ground(h: int, w: int, budget: int) -> int:
        seen = grounds.get((h, w))
        if seen and rng.random() < 0.4:
            return rng.choice(seen)
        if h == w == 1:
            return add(Terminal(rng.choice("abcd")), grounds, (1, 1))
        ops = (["h"] if w > 1 else []) + (["v"] if h > 1 else [])
        if budget > 0:
            ops += ["apply", "apply"]
        op = rng.choice(ops)
        if op == "h":
            k = rng.randint(1, w - 1)
            rule = HConcat(ground(h, k, budget - 1), ground(h, w - k, budget - 1))
        elif op == "v":
            k = rng.randint(1, h - 1)
            rule = VConcat(ground(k, w, budget - 1), ground(h - k, w, budget - 1))
        else:
            while True:
                p, q = rng.randint(1, h), rng.randint(1, w)
                if p * q < h * w:
                    break
            r, c = rng.randint(1, h - p + 1), rng.randint(1, w - q + 1)
            cx = context(h, w, p, q, r, c, budget - 1)
            rule = Apply(cx, ground(p, q, budget - 1))
        return add(rule, grounds, (h, w))

    def context(h, w, p, q, r, c, budget) -> int:
        key = (h, w, p, q, r, c)
        seen = contexts.get(key)
        if seen and rng.random() < 0.4:
            return rng.choice(seen)
        ops = []
        # A bare hole: the frame minus the hole is one full-length strip.
        if p == h and c == 1:
            ops.append(("hole", "H", "first"))
        if p == h and c + q - 1 == w:
            ops.append(("hole", "H", "second"))
        if q == w and r == 1:
            ops.append(("hole", "V", "first"))
        if q == w and r + p - 1 == h:
            ops.append(("hole", "V", "second"))
        # A context beside a ground block, cut anywhere the cut misses the
        # hole and leaves the context's frame strictly larger than the hole.
        for k in range(1, w):
            if k >= c + q - 1 and h * k > p * q:
                ops.append(("ctxcat", "H", "first", k))
            if k < c and h * (w - k) > p * q:
                ops.append(("ctxcat", "H", "second", k))
        for k in range(1, h):
            if k >= r + p - 1 and k * w > p * q:
                ops.append(("ctxcat", "V", "first", k))
            if k < r and (h - k) * w > p * q:
                ops.append(("ctxcat", "V", "second", k))
        if budget > 0:
            ops += [("compose",)] * 3
        op = rng.choice(ops)
        if op[0] == "compose":
            # An intermediate rectangle strictly between hole and frame.
            r1, c1 = rng.randint(1, r), rng.randint(1, c)
            r2, c2 = rng.randint(r + p - 1, h), rng.randint(c + q - 1, w)
            mh, mw = r2 - r1 + 1, c2 - c1 + 1
            if p * q < mh * mw < h * w:
                outer = context(h, w, mh, mw, r1, c1, budget - 1)
                inner = context(mh, mw, p, q, r - r1 + 1, c - c1 + 1, budget - 1)
                return add(Compose(outer, inner), contexts, key)
            op = rng.choice([o for o in ops if o[0] != "compose"])
        if op[0] == "hole":
            _, axis, side = op
            gh, gw = (h, w - q) if axis == "H" else (h - p, w)
            rule = HoleConcat(axis, side, ground(gh, gw, budget - 1), p, q)
        else:
            _, axis, side, k = op
            # k cells of the cut axis go to the first operand.
            if axis == "H":
                first, rest = (h, k), (h, w - k)
                hole_at = (r, c) if side == "first" else (r, c - k)
            else:
                first, rest = (k, w), (h - k, w)
                hole_at = (r, c) if side == "first" else (r - k, c)
            cdims, gdims = (first, rest) if side == "first" else (rest, first)
            cx = context(*cdims, p, q, *hole_at, budget - 1)
            rule = CtxConcat(axis, side, cx, ground(*gdims, budget - 1))
        return add(rule, contexts, key)

    start = ground(height, width, 4)
    return Tslp2D(rules=tuple(rules), start=start)
