"""Core types for two-dimensional straight-line programs.

A plain 2D SLP is an acyclic grammar over single-character matrices: every
symbol carries exactly one production, which is either a 1x1 terminal, a
horizontal concatenation of two symbols of equal height, or a vertical
concatenation of two symbols of equal width.  The TSLP variant adds *context*
symbols deriving matrices with a single rectangular hole, together with
productions for building contexts (hole beside a ground matrix, context beside
a ground matrix, context composition) and for filling a context's hole with a
ground matrix (``Apply``).

Symbols are dense integer ids indexing ``rules``; the classes here are plain
frozen dataclasses so grammars hash, compare, and round-trip structurally.
Validation is total: it returns a report of violations instead of raising, so
callers (and the CLI) can surface every problem in a file at once.

Every production kind is stated once, in :func:`layout`: its frame, its
hole and where its children sit.  Everything downstream (expansion, random
access, the transforms, the accelerated index) navigates by these numbers
instead of materializing matrices, so each grammar's :class:`GeometryTable`
is made once, bottom-up and iteratively, in plain tuples, and kept on the
grammar: by the same pass that validates it, or by the
:class:`GrammarBuilder` that built it, which lays out each symbol as it is
added.  Dimensions are exact integers; one beyond 2**62, which the index
structures cannot address, is an overflow.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Union


class GridSlpError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatch(GridSlpError):
    """Concatenation or hole-filling with incompatible dimensions."""


class OutOfBounds(GridSlpError):
    """A queried position lies outside the derived matrix."""


class AreaLimitExceeded(GridSlpError):
    """A materialization would exceed the configured cell budget."""


class ParameterError(GridSlpError):
    """Gadget parameters outside the constructible range."""


class NotOneDimensional(GridSlpError):
    """A height-1 grammar was required but the input derives height > 1."""


class InternalHoleHit(GridSlpError):
    """Navigation reached the unfilled hole of a context symbol."""


class FormatError(GridSlpError):
    """Malformed grammar text."""


# ---------------------------------------------------------------------------
# Productions


@dataclass(frozen=True, slots=True)
class Terminal:
    """A 1x1 matrix holding one character."""

    kind: ClassVar[str] = "term"
    char: str


@dataclass(frozen=True, slots=True)
class HConcat:
    """Place ``left`` and ``right`` side by side (equal heights)."""

    kind: ClassVar[str] = "h"
    left: int
    right: int


@dataclass(frozen=True, slots=True)
class VConcat:
    """Stack ``top`` above ``bottom`` (equal widths)."""

    kind: ClassVar[str] = "v"
    top: int
    bottom: int


@dataclass(frozen=True, slots=True)
class Apply:
    """Fill the hole of context ``ctx`` with ground symbol ``arg``."""

    kind: ClassVar[str] = "apply"
    ctx: int
    arg: int


@dataclass(frozen=True, slots=True)
class HoleConcat:
    """A bare hole concatenated with a ground matrix.

    ``axis`` is ``"H"`` or ``"V"``; ``hole_side`` says whether the hole is the
    ``"first"`` operand (left / top) or the ``"second"``.  The hole's own
    dimensions ``hole_h`` x ``hole_w`` are explicit because a bare hole has no
    production to infer them from; the perpendicular dimension must match the
    ground operand.
    """

    kind: ClassVar[str] = "hole"
    axis: str
    hole_side: str
    ground: int
    hole_h: int
    hole_w: int


@dataclass(frozen=True, slots=True)
class CtxConcat:
    """A context concatenated with a ground matrix (hole stays in the context).

    ``ctx_side`` says whether the context is the ``"first"`` operand
    (left / top) or the ``"second"``.
    """

    kind: ClassVar[str] = "ctxcat"
    axis: str
    ctx_side: str
    ctx: int
    ground: int


@dataclass(frozen=True, slots=True)
class Compose:
    """Plug context ``inner`` into the hole of context ``outer``.

    The result derives ``outer``'s frame with ``inner``'s frame occupying the
    old hole; the surviving hole is ``inner``'s, translated into the frame.
    """

    kind: ClassVar[str] = "compose"
    outer: int
    inner: int


Production = Union[Terminal, HConcat, VConcat, Apply, HoleConcat, CtxConcat, Compose]

#: Production kinds a plain (hole-free) grammar may use.
PLAIN_KINDS = ("term", "h", "v")

#: Production kinds whose symbol derives a matrix with a hole.
CONTEXT_KINDS = ("hole", "ctxcat", "compose")


def children(rule: Production) -> tuple[int, ...]:
    """Symbol ids referenced by ``rule``, in operand order."""
    k = rule.kind
    if k == "term":
        return ()
    if k == "h":
        return (rule.left, rule.right)
    if k == "v":
        return (rule.top, rule.bottom)
    if k == "apply":
        return (rule.ctx, rule.arg)
    if k == "hole":
        return (rule.ground,)
    if k == "ctxcat":
        return (rule.ctx, rule.ground)
    if k == "compose":
        return (rule.outer, rule.inner)
    raise GridSlpError(f"unknown production kind {k!r}")


def rule_size(rule: Production) -> int:
    """Contribution of one production to grammar size (right-hand symbols)."""
    return 1 if rule.kind == "term" else 2


#: Frame dimensions beyond this bound are rejected as overflow.
DIM_BOUND = 1 << 62


class LayoutError(GridSlpError):
    """A production whose operands do not fit together.

    ``code`` is the violation code :func:`validate` reports for it:
    ``kind``, ``dimension``, ``hole`` or ``overflow``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _check_fields(what: str, axis: str, side: str) -> None:
    if axis not in ("H", "V") or side not in ("first", "second"):
        raise LayoutError("kind", f"{what} needs axis H or V and side first or "
                                  f"second, got {axis!r} and {side!r}")


def layout(rule: Production, H, W, HOLE) -> tuple:
    """Frame, hole and child placement of one production.

    ``H``, ``W`` and ``HOLE`` hold the operands' heights, widths and holes
    (``(hole_h, hole_w, hole_row, hole_col)`` with a 1-based origin, or
    ``None`` for ground symbols), indexed by symbol id.  Returns
    ``(h, w, hole, entry)``.  For a terminal ``entry`` is its character;
    otherwise it is ``(c1, x1, y1, x2, y2, c2, dx2, dy2)``: a cell (x, y) of
    the frame with x1 < x <= x2 and y1 < y <= y2 (box 1) is cell
    (x - x1, y - y1) of ``c1``, and every other cell is cell
    (x - dx2, y - dy2) of ``c2`` or, when ``c2`` is None, a cell of the
    symbol's own hole.  So each child sits at an offset, ``(x1, y1)`` or
    ``(dx2, dy2)``, and box 1 is ``c1``'s frame at its offset.  For apply and
    compose, box 1 is the argument (inner context) and ``c2`` the context at
    (0, 0), whose frame is the symbol's own and whose hole is box 1.

    This is the only place that knows each kind's operand kinds, dimension
    rules, frame, hole and child offsets.  Raises :class:`LayoutError` when
    the operands do not fit.
    """
    k = rule.kind
    if k == "term":
        if not isinstance(rule.char, str) or len(rule.char) != 1:
            raise LayoutError("kind", f"terminal {rule.char!r} is not one character")
        return 1, 1, None, rule.char
    if k == "h" or k == "v":
        a, b = (rule.left, rule.right) if k == "h" else (rule.top, rule.bottom)
        if HOLE[a] is not None or HOLE[b] is not None:
            raise LayoutError("kind", "concat operands must be ground")
        ha, wa = H[a], W[a]
        hole = None
        if k == "h":
            if ha != H[b]:
                raise LayoutError("dimension", f"h-concat heights differ: {ha} vs {H[b]}")
            h, w, entry = ha, wa + W[b], (a, 0, 0, ha, wa, b, 0, wa)
        else:
            if wa != W[b]:
                raise LayoutError("dimension", f"v-concat widths differ: {wa} vs {W[b]}")
            h, w, entry = ha + H[b], wa, (a, 0, 0, ha, wa, b, ha, 0)
    elif k == "hole":
        _check_fields("hole-concat", rule.axis, rule.hole_side)
        g, p, q = rule.ground, rule.hole_h, rule.hole_w
        if HOLE[g] is not None:
            raise LayoutError("kind", "hole-concat ground operand is a context")
        if p.__class__ is not int or q.__class__ is not int:  # bool is not int
            raise LayoutError("kind", f"hole dimensions {p!r}x{q!r} are not integers")
        if p < 1 or q < 1:
            raise LayoutError("hole", f"hole dimensions {p}x{q} must be positive")
        gh, gw = H[g], W[g]
        first = rule.hole_side == "first"
        # (hx, hy) and (gx, gy) are the offsets of the hole and the ground.
        if rule.axis == "H":
            if p != gh:
                raise LayoutError("dimension", f"hole height {p} != ground height {gh}")
            h, w = gh, q + gw
            hx, hy, gx, gy = (0, 0, 0, q) if first else (0, gw, 0, 0)
        else:
            if q != gw:
                raise LayoutError("dimension", f"hole width {q} != ground width {gw}")
            h, w = p + gh, gw
            hx, hy, gx, gy = (0, 0, p, 0) if first else (gh, 0, 0, 0)
        hole = (p, q, hx + 1, hy + 1)
        entry = (g, gx, gy, gx + gh, gy + gw, None, 0, 0)
    elif k == "ctxcat":
        _check_fields("ctx-concat", rule.axis, rule.ctx_side)
        c, g = rule.ctx, rule.ground
        if HOLE[c] is None or HOLE[g] is not None:
            raise LayoutError("kind", "ctx-concat needs (context, ground) operands")
        ch, cw, gh, gw = H[c], W[c], H[g], W[g]
        first = rule.ctx_side == "first"
        # (cx, cy) and (gx, gy) are the offsets of the context and the ground.
        if rule.axis == "H":
            if ch != gh:
                raise LayoutError("dimension", f"h-concat heights differ: {ch} vs {gh}")
            h, w = ch, cw + gw
            cx, cy, gx, gy = (0, 0, 0, cw) if first else (0, gw, 0, 0)
        else:
            if cw != gw:
                raise LayoutError("dimension", f"v-concat widths differ: {cw} vs {gw}")
            h, w = ch + gh, cw
            cx, cy, gx, gy = (0, 0, ch, 0) if first else (gh, 0, 0, 0)
        p, q, hr, hc = HOLE[c]
        hole = (p, q, hr + cx, hc + cy)
        entry = (g, gx, gy, gx + gh, gy + gw, c, cx, cy)
    elif k == "compose" or k == "apply":
        if k == "compose":
            c, a = rule.outer, rule.inner
            if HOLE[c] is None or HOLE[a] is None:
                raise LayoutError("kind", "compose needs two context operands")
        else:
            c, a = rule.ctx, rule.arg
            if HOLE[c] is None or HOLE[a] is not None:
                raise LayoutError("kind", "apply needs (context, ground) operands")
        p, q, hr, hc = HOLE[c]
        if (H[a], W[a]) != (p, q):
            what = "inner frame" if k == "compose" else "argument"
            raise LayoutError(
                "dimension", f"{what} {H[a]}x{W[a]} does not fit the hole {p}x{q}"
            )
        h, w = H[c], W[c]
        if k == "compose":
            p2, q2, r2, c2 = HOLE[a]
            hole = (p2, q2, hr + r2 - 1, hc + c2 - 1)
        else:
            hole = None
        entry = (a, hr - 1, hc - 1, hr + p - 1, hc + q - 1, c, 0, 0)
    else:
        raise LayoutError("kind", f"unknown production kind {k!r}")
    if h > DIM_BOUND or w > DIM_BOUND:
        raise LayoutError("overflow", f"dimension {max(h, w)} exceeds 2**62")
    return h, w, hole, entry


@dataclass(frozen=True)
class GeometryTable:
    """Per-symbol geometry, indexed by symbol id.

    ``holes[i]`` is ``(hole_h, hole_w, hole_row, hole_col)`` for context
    symbols (1-based position of the hole's top-left cell inside the frame)
    and ``None`` for ground symbols.  ``depths[i]`` is the height of the
    derivation tree below symbol ``i``, counting the terminal production as 1.
    ``entries[i]`` is the child placement :func:`layout` returns: the
    terminal's character, or ``(c1, x1, y1, x2, y2, c2, dx2, dy2)``, which
    every walk over the derivation (expansion, both access paths, the
    unwinding of the fast index) follows instead of the productions.
    Entries for undefined symbols are ``None``.
    """

    heights: tuple
    widths: tuple
    holes: tuple
    depths: tuple
    entries: tuple

    def dims(self, sym: int) -> tuple[int, int]:
        return (self.heights[sym], self.widths[sym])

    def area(self, sym: int) -> int:
        return self.heights[sym] * self.widths[sym]


LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"S{i}" for i in range(n))


@dataclass(frozen=True)
class Grammar2D:
    """A plain 2D straight-line program.

    ``rules[i]`` is the production for symbol ``i`` (``None`` marks a symbol
    that was referenced but never defined; validation reports it).  ``labels``
    are presentation names used by the text format, one per symbol.
    """

    text_kind: ClassVar[str] = "SLP2D"

    rules: tuple[Production | None, ...]
    start: int
    labels: tuple[str, ...] = field(default=())
    # The geometry table, once ``validate`` or ``compute_geometry`` has
    # computed it in full, or the one the ``GrammarBuilder`` that made the
    # grammar held; never a caller's table.
    _geometry: GeometryTable | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels", _default_labels(len(self.rules)))
        if len(self.labels) != len(self.rules):
            raise ValueError("labels and rules must have equal length")

    @property
    def size(self) -> int:
        """Total right-hand-side symbol count over all productions."""
        return sum(rule_size(r) for r in self.rules if r is not None)

    @property
    def symbols(self) -> int:
        return len(self.rules)

    def label(self, sym: int) -> str:
        return self.labels[sym]


@dataclass(frozen=True)
class Tslp2D(Grammar2D):
    """A 2D SLP with contexts (single-hole matrices) as first-class symbols.

    Whether a symbol is ground or a context is determined by its production
    kind; the start symbol must be ground.
    """

    text_kind: ClassVar[str] = "TSLP2D"


Grammar1D = Grammar2D
"""A 1D SLP is a 2D SLP whose every reachable symbol has height 1."""


def as_tslp(g: Grammar2D) -> Tslp2D:
    """View a plain grammar as a (context-free) TSLP with the same symbols
    and the same kept geometry table, if any."""
    if isinstance(g, Tslp2D):
        return g
    return _with_geometry(Tslp2D(g.rules, g.start, g.labels), g._geometry)


def _with_geometry(g: Grammar2D, geo: GeometryTable | None) -> Grammar2D:
    """``g`` with ``geo``, which must equal its geometry table, kept on it."""
    object.__setattr__(g, "_geometry", geo)
    return g


# ---------------------------------------------------------------------------
# Traversal helpers


def _post_order(rules, roots, on_cycle=None) -> list[int]:
    """Defined symbols below ``roots``, children before parents.

    Iterative, so derivations deeper than the recursion limit are fine;
    assumes in-range references (run :func:`validate` first on untrusted
    input).  A reference back to a symbol still being expanded closes a
    cycle; ``on_cycle(sym)`` is called with that symbol, if given, once per
    such reference.
    """
    order: list[int] = []
    # 0 unseen, 1 expanding (on the current path), 2 done.
    state = bytearray(len(rules))
    for root in roots:
        if state[root] or rules[root] is None:
            continue
        stack: list[tuple[int, bool]] = [(root, False)]
        while stack:
            sym, expanded = stack.pop()
            if expanded:
                state[sym] = 2
                order.append(sym)
                continue
            if state[sym]:
                continue
            state[sym] = 1
            stack.append((sym, True))
            for c in children(rules[sym]):
                if not state[c]:
                    if rules[c] is not None:
                        stack.append((c, False))
                elif on_cycle is not None and state[c] == 1:
                    on_cycle(c)
    return order


def reachable_topo(rules, start: int) -> list[int]:
    """Reachable symbols in dependency order (children before parents)."""
    return _post_order(rules, (start,))


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    """One validation failure, tied to the symbol it was detected at."""

    code: str
    symbol: int
    label: str
    message: str

    def __str__(self):
        return f"[{self.code}] {self.label}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    """Every violation found."""

    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


def _check(g: Grammar2D, out: list[Violation]) -> bool:
    """Append each kind, reference, cycle and layout violation of ``g`` to
    the empty list ``out``; with none, keep the geometry table on ``g``.

    One scan checks kinds and that references are in range and defined.
    Where every reference points to a lower id, as in every emitted file
    and builder-made grammar, id order lists children first; otherwise the
    depth-first walk over the sound rules does, and reports each symbol
    that closes a cycle once.  Layout is checked only below sound
    references, one :func:`layout` call per defined symbol in that order;
    a production whose operands do not fit is reported and left undefined,
    as is every symbol above it.
    """
    rules = g.rules
    n = len(rules)
    labels = g.labels
    plain = not isinstance(g, Tslp2D)

    def bad(code: str, sym: int, msg: str):
        out.append(Violation(code, sym, labels[sym], msg))

    backward = defined = True
    for sym, r in enumerate(rules):
        if r is None:
            defined = False
        elif plain and r.kind not in PLAIN_KINDS:
            bad("kind", sym, f"{r.kind} production not allowed in a plain grammar")
        else:
            for c in children(r):
                if not 0 <= c < n:
                    bad("undefined", sym, f"reference to out-of-range symbol {c}")
                elif rules[c] is None:
                    bad("undefined", sym, f"reference to undefined symbol {labels[c]}")
                elif c >= sym:
                    backward = False

    if not backward:
        # The cycle search leaves out the rules reported so far.
        sound = list(rules)
        for v in out:
            sound[v.symbol] = None
        cyclic: set[int] = set()

        def cycle(c: int):
            if c not in cyclic:
                cyclic.add(c)
                bad("cycle", c, "symbol participates in a reference cycle")

        order = _post_order(sound, range(n), cycle)
    elif defined:
        order = range(n)
    else:
        order = [sym for sym, r in enumerate(rules) if r is not None]
    if out:
        return False
    H, W, HOLE, D, E = ([None] * n for _ in range(5))
    for sym in order:
        r = rules[sym]
        below = 0
        for c in children(r):
            d = D[c]
            if d is None:
                break  # cascade from a reported child failure
            if d > below:
                below = d
        else:
            try:
                H[sym], W[sym], HOLE[sym], E[sym] = layout(r, H, W, HOLE)
            except LayoutError as e:
                bad(e.code, sym, str(e))
                continue
            D[sym] = below + 1
    if out:
        return False
    _with_geometry(g, GeometryTable(*map(tuple, (H, W, HOLE, D, E))))
    return True


def validate(g: Grammar2D, hole_marker: str = "#") -> ValidationReport:
    """Check structural soundness of ``g`` and report every violation found.

    Checks: references in range and defined, global acyclicity (each
    symbol closing a cycle reported once), kind discipline (plain grammars
    use only terminal/concat productions; TSLP operands have the required
    ground/context kinds; terminals hold one character; axes and sides are
    known), dimension compatibility,
    hole geometry (hole strictly inside a nonempty frame), start symbol ground,
    dimension overflow beyond 2**62, and — for TSLPs — that ``hole_marker``
    does not occur as a terminal character (it must stay reserved for
    materializing unfilled holes).  All but the start and marker checks are
    :func:`compute_geometry`'s, and passing them keeps the geometry table
    they computed.
    """
    rules, labels, start = g.rules, g.labels, g.start
    if not (0 <= start < len(rules)):
        return ValidationReport((Violation(
            "undefined", start, str(start), "start symbol id out of range"),))
    out: list[Violation] = []
    _check(g, out)
    if rules[start] is None:
        out.append(Violation(
            "undefined", start, labels[start], "start symbol has no production"))
    elif rules[start].kind in CONTEXT_KINDS:
        out.append(Violation(
            "start", start, labels[start], "start symbol must be ground (hole-free)"))
    if isinstance(g, Tslp2D):
        out.extend(
            Violation("marker", sym, labels[sym],
                      f"terminal uses the hole marker {hole_marker!r}; pick a "
                      "different marker or alphabet")
            for sym, r in enumerate(rules)
            if r is not None and r.kind == "term" and r.char == hole_marker)
    return ValidationReport(tuple(out))


def compute_geometry(g: Grammar2D) -> GeometryTable:
    """Geometry of every defined symbol of a sound grammar.

    Computed once per grammar object: the table is kept on ``g`` (as
    :func:`validate` and :meth:`GrammarBuilder.finish` keep theirs) and
    returned again on later calls.  A grammar that fails a check of
    ``validate`` other than the start and hole-marker ones raises the first
    violation ``validate`` would report (:class:`OverflowError` for an
    overflow, :class:`GridSlpError` otherwise) and keeps nothing.
    """
    if g._geometry is None:
        out: list = []
        if not _check(g, out):
            v = out[0]
            raise (OverflowError if v.code == "overflow" else GridSlpError)(str(v))
    return g._geometry


# ---------------------------------------------------------------------------
# Builder


def _check_axis(axis: str) -> None:
    if axis not in ("H", "V"):
        raise ParameterError(f"axis must be 'H' or 'V', got {axis!r}")


def _check_side(side: str, what: str) -> None:
    if side not in ("first", "second"):
        raise ParameterError(f"{what} must be 'first' or 'second', got {side!r}")


class GrammarBuilder:
    """Incremental construction with eager dimension checking.

    Tracks the geometry of every added symbol (frame, hole, child placement
    and derivation depth) so dimension errors surface at the offending call,
    not at validation time, and so :meth:`finish` keeps that table on the
    grammar it returns, where :func:`compute_geometry` finds it without
    another pass.  With ``dedup=True`` structurally identical productions
    are shared, which the gadget builders rely on for their size bounds.

    Symbols are named at :meth:`finish`: a seeded builder keeps its seed's
    labels and names each added symbol ``S<id>``, with ``_`` appended while
    that clashes; a fresh builder's grammar gets the default labels.
    """

    def __init__(self, dedup: bool = True):
        self.rules: list[Production] = []
        # Per-symbol heights, widths and holes, as layout() reads them,
        # plus derivation depths and layout() entries.
        self._h: list[int] = []
        self._w: list[int] = []
        self._hole: list[tuple[int, int, int, int] | None] = []
        self._depth: list[int] = []
        self._entry: list = []
        self._dedup = dedup
        # Production -> id; a horizontal concat is keyed by its (left, right).
        self._index: dict = {}
        self._seed_labels: tuple[str, ...] = ()

    @classmethod
    def seeded(cls, g: Grammar2D) -> "GrammarBuilder":
        """A deduplicating builder preloaded with a validated grammar's symbols."""
        geo = compute_geometry(g)
        b = cls()
        b.rules = list(g.rules)
        b._seed_labels = g.labels
        b._h = list(geo.heights)
        b._w = list(geo.widths)
        b._hole = list(geo.holes)
        b._depth = list(geo.depths)
        b._entry = list(geo.entries)
        for i, rule in enumerate(g.rules):
            key = (rule.left, rule.right) if rule.__class__ is HConcat else rule
            b._index.setdefault(key, i)
        return b

    # -- geometry accessors -------------------------------------------------

    def dims(self, sym: int) -> tuple[int, int]:
        return self._h[sym], self._w[sym]

    def depth(self, sym: int) -> int:
        return self._depth[sym]

    def __len__(self) -> int:
        return len(self.rules)

    # -- internals ----------------------------------------------------------

    def _add(self, rule: Production, key=None) -> int:
        # A caller that has probed the index itself passes the key it missed.
        if key is None:
            key = rule
            if self._dedup:
                hit = self._index.get(key)
                if hit is not None:
                    return hit
        try:
            h, w, hole, entry = layout(rule, self._h, self._w, self._hole)
        except LayoutError as e:
            raise (OverflowError if e.code == "overflow" else DimensionMismatch)(
                str(e)
            ) from None
        if entry.__class__ is str:
            depth = 1
        else:
            depth = self._depth[entry[0]]
            c2 = entry[5]
            if c2 is not None and self._depth[c2] > depth:
                depth = self._depth[c2]
            depth += 1
        sym = len(self.rules)
        self.rules.append(rule)
        self._h.append(h)
        self._w.append(w)
        self._hole.append(hole)
        self._depth.append(depth)
        self._entry.append(entry)
        if self._dedup:
            self._index[key] = sym
        return sym

    # -- plain productions ----------------------------------------------------

    def terminal(self, char: str) -> int:
        if len(char) != 1:
            raise ParameterError("terminal payload must be a single character")
        return self._add(Terminal(char))

    def h(self, left: int, right: int) -> int:
        # Horizontal chains dominate the deduplicating builds, and most of
        # their joins repeat one already made.  Keyed by the bare pair, a
        # repeat is found without building an HConcat to look it up.
        key = (left, right)
        if self._dedup:
            hit = self._index.get(key)
            if hit is not None:
                return hit
        return self._add(HConcat(left, right), key)

    def v(self, top: int, bottom: int) -> int:
        return self._add(VConcat(top, bottom))

    # -- context productions --------------------------------------------------

    def hole_concat(
        self, axis: str, hole_side: str, ground: int, hole_h: int, hole_w: int
    ) -> int:
        _check_axis(axis)
        _check_side(hole_side, "hole_side")
        return self._add(HoleConcat(axis, hole_side, ground, hole_h, hole_w))

    def ctx_concat(self, axis: str, ctx_side: str, ctx: int, ground: int) -> int:
        _check_axis(axis)
        _check_side(ctx_side, "ctx_side")
        return self._add(CtxConcat(axis, ctx_side, ctx, ground))

    def compose(self, outer: int, inner: int) -> int:
        return self._add(Compose(outer, inner))

    def apply(self, ctx: int, arg: int) -> int:
        return self._add(Apply(ctx, arg))

    # -- k-ary convenience ----------------------------------------------------

    def _concat(self, axis: str):
        _check_axis(axis)
        return self.h if axis == "H" else self.v

    def chain(self, axis: str, parts: Iterable[int | None]) -> int:
        """Left-leaning fold along ``axis`` of the ``parts`` that are not None
        (ground symbols)."""
        parts = [p for p in parts if p is not None]
        if not parts:
            raise ParameterError("chain of zero parts")
        acc = parts[0]
        op = self._concat(axis)
        for nxt in parts[1:]:
            acc = op(acc, nxt)
        return acc

    def repeat(self, axis: str, sym: int, count: int) -> int:
        """``count`` copies of ``sym`` along ``axis`` in O(log count) symbols:
        the doublings of ``sym`` for the one bits of ``count``, chained."""
        if count < 1:
            raise ParameterError(f"repeat count must be positive, got {count}")
        op = self._concat(axis)
        pieces = []
        while count:
            if count & 1:
                pieces.append(sym)
            count >>= 1
            if count:
                sym = op(sym, sym)
        return self.chain(axis, pieces)

    def balanced(self, axis: str, parts: list[int]) -> int:
        """Complete binary concatenation tree over ``parts`` (index halving)."""
        if not parts:
            raise ParameterError("cannot concatenate zero parts")
        op = self._concat(axis)

        def build(lo: int, hi: int) -> int:
            if hi - lo == 1:
                return parts[lo]
            mid = lo + (hi - lo + 1) // 2
            return op(build(lo, mid), build(mid, hi))

        return build(0, len(parts))

    # -- finish ----------------------------------------------------------------

    def finish(self, start: int) -> Grammar2D:
        """The grammar of every symbol added so far, derived from ``start``,
        with a copy of this builder's geometry table kept on it."""
        if self._hole[start] is not None:
            raise DimensionMismatch("start symbol must be ground")
        # Every context symbol has a context kind, so the kinds decide.
        plain = all(r.kind in PLAIN_KINDS for r in self.rules)
        cls = Grammar2D if plain else Tslp2D
        g = cls(tuple(self.rules), start, self._labels())
        return _with_geometry(g, GeometryTable(*map(tuple, (
            self._h, self._w, self._hole, self._depth, self._entry))))

    def finish_tslp(self, start: int) -> Tslp2D:
        return as_tslp(self.finish(start))

    def _labels(self) -> tuple[str, ...]:
        if not self._seed_labels:
            return ()  # Grammar2D's defaults
        # Added names clash only with the seed's: each is S<its id> plus "_"s.
        used = set(self._seed_labels)
        labels = list(self._seed_labels)
        for sym in range(len(labels), len(self.rules)):
            label = f"S{sym}"
            while label in used:
                label += "_"
            labels.append(label)
        return tuple(labels)
