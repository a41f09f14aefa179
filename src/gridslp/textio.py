"""Line-oriented text format for grammars.

The first line is a format header (``SLP2D v1`` or ``TSLP2D v1``), one line
names the start symbol, and every other non-comment line defines one symbol::

    SLP2D v1
    start T
    # C derives A beside B; T stacks two copies of C.
    A T 0
    B T 1
    C H A B
    T V C C

Opcodes: ``T <char>`` terminal; ``H``/``V`` horizontal/vertical concat;
``A <ctx> <gnd>`` hole filling; ``HH <L|R> <gnd> <p> <q>`` and
``HV <T|B> <gnd> <p> <q>`` bare hole beside/above a ground symbol (side names
the hole's position, ``p q`` its dimensions); ``CH``/``CV <side> <ctx> <gnd>``
context-ground concat (side names the context's position); ``C <outer>
<inner>`` context composition.  Labels match ``[A-Za-z0-9_]+``, forward
references are allowed, comments are full lines starting with ``#``.  Parsing
is purely syntactic — run :func:`gridslp.grammar.validate` on the result.

Symbol ids are assigned in definition order, so emitting and re-parsing is the
identity on both structure and bytes.
"""

from __future__ import annotations

from .grammar import (
    Apply,
    Compose,
    CtxConcat,
    FormatError,
    Grammar2D,
    HConcat,
    HoleConcat,
    LABEL_RE,
    Terminal,
    Tslp2D,
    VConcat,
)

_HOLE_SIDE = {"H": {"L": "first", "R": "second"}, "V": {"T": "first", "B": "second"}}
_SIDE_CODE = {"H": {"first": "L", "second": "R"}, "V": {"first": "T", "second": "B"}}


def emit_grammar(g: Grammar2D) -> str:
    """Serialize ``g``; deterministic, one definition line per symbol id."""
    is_tslp = isinstance(g, Tslp2D)
    lines = [f"{g.text_kind} v1", f"start {g.labels[g.start]}"]
    lab = g.labels
    for sym, r in enumerate(g.rules):
        if r is None:
            raise FormatError(f"symbol {lab[sym]} has no production")
        if not LABEL_RE.match(lab[sym]):
            raise FormatError(f"label {lab[sym]!r} is not serializable")
        k = r.kind
        if k == "term":
            if len(r.char) != 1 or r.char.isspace():
                raise FormatError(
                    f"terminal {lab[sym]} payload {r.char!r} is not a single "
                    "non-whitespace character"
                )
            lines.append(f"{lab[sym]} T {r.char}")
        elif k == "h":
            lines.append(f"{lab[sym]} H {lab[r.left]} {lab[r.right]}")
        elif k == "v":
            lines.append(f"{lab[sym]} V {lab[r.top]} {lab[r.bottom]}")
        elif not is_tslp:
            raise FormatError(f"{k} production in a plain grammar (symbol {lab[sym]})")
        elif k == "apply":
            lines.append(f"{lab[sym]} A {lab[r.ctx]} {lab[r.arg]}")
        elif k == "hole":
            side = _SIDE_CODE[r.axis][r.hole_side]
            lines.append(
                f"{lab[sym]} H{r.axis} {side} {lab[r.ground]} {r.hole_h} {r.hole_w}"
            )
        elif k == "ctxcat":
            side = _SIDE_CODE[r.axis][r.ctx_side]
            lines.append(f"{lab[sym]} C{r.axis} {side} {lab[r.ctx]} {lab[r.ground]}")
        else:  # compose
            lines.append(f"{lab[sym]} C {lab[r.outer]} {lab[r.inner]}")
    return "\n".join(lines) + "\n"


def parse_grammar(text: str) -> Grammar2D:
    """Parse the text format; returns a plain grammar or TSLP per the header."""
    lines = text.splitlines()
    body: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(lines, 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        body.append((lineno, stripped.split()))
    if not body:
        raise FormatError("empty grammar text")

    lineno, header = body[0]
    if len(header) != 2 or header[1] != "v1" or header[0] not in ("SLP2D", "TSLP2D"):
        raise FormatError(f"line {lineno}: expected 'SLP2D v1' or 'TSLP2D v1' header")
    is_tslp = header[0] == "TSLP2D"

    start_label: str | None = None
    defs: list[tuple[int, list[str]]] = []
    for lineno, toks in body[1:]:
        if toks[0] == "start":
            if start_label is not None:
                raise FormatError(f"line {lineno}: duplicate start line")
            if len(toks) != 2:
                raise FormatError(f"line {lineno}: start takes exactly one label")
            start_label = toks[1]
        else:
            defs.append((lineno, toks))
    if start_label is None:
        raise FormatError("missing start line")

    # Ids follow definition order; referenced-but-undefined labels get
    # trailing ids with a None production for validation to report.
    ids: dict[str, int] = {}
    for lineno, toks in defs:
        label = toks[0]
        if not LABEL_RE.match(label):
            raise FormatError(f"line {lineno}: bad label {label!r}")
        if label in ids:
            raise FormatError(f"line {lineno}: symbol {label} redefined")
        ids[label] = len(ids)

    labels = [lab for lab, _ in sorted(ids.items(), key=lambda kv: kv[1])]
    rules: list = [None] * len(ids)

    def ref(label: str, lineno: int) -> int:
        sym = ids.get(label)
        if sym is None:
            # A defined label was checked at its definition.
            if not LABEL_RE.match(label):
                raise FormatError(f"line {lineno}: bad label {label!r}")
            sym = len(ids)
            ids[label] = sym
            labels.append(label)
            rules.append(None)
        return sym

    def num(tok: str, lineno: int) -> int:
        try:
            return int(tok)
        except ValueError:
            raise FormatError(f"line {lineno}: expected an integer, got {tok!r}")

    def arity(toks, n, lineno):
        if len(toks) != n:
            raise FormatError(
                f"line {lineno}: opcode {toks[1]} takes {n - 2} arguments"
            )

    for lineno, toks in defs:
        sym = ids[toks[0]]
        if len(toks) < 2:
            raise FormatError(f"line {lineno}: missing opcode")
        op = toks[1]
        if op == "T":
            arity(toks, 3, lineno)
            if len(toks[2]) != 1:
                raise FormatError(
                    f"line {lineno}: terminal payload must be a single character"
                )
            rules[sym] = Terminal(toks[2])
        elif op == "H":
            arity(toks, 4, lineno)
            rules[sym] = HConcat(ref(toks[2], lineno), ref(toks[3], lineno))
        elif op == "V":
            arity(toks, 4, lineno)
            rules[sym] = VConcat(ref(toks[2], lineno), ref(toks[3], lineno))
        elif op in ("A", "HH", "HV", "CH", "CV", "C"):
            if not is_tslp:
                raise FormatError(
                    f"line {lineno}: opcode {op} requires a TSLP2D header"
                )
            if op == "A":
                arity(toks, 4, lineno)
                rules[sym] = Apply(ref(toks[2], lineno), ref(toks[3], lineno))
            elif op in ("HH", "HV"):
                arity(toks, 6, lineno)
                axis = op[1]
                side = _HOLE_SIDE[axis].get(toks[2])
                if side is None:
                    raise FormatError(f"line {lineno}: bad side {toks[2]!r} for {op}")
                rules[sym] = HoleConcat(
                    axis, side, ref(toks[3], lineno), num(toks[4], lineno), num(toks[5], lineno)
                )
            elif op in ("CH", "CV"):
                arity(toks, 5, lineno)
                axis = op[1]
                side = _HOLE_SIDE[axis].get(toks[2])
                if side is None:
                    raise FormatError(f"line {lineno}: bad side {toks[2]!r} for {op}")
                rules[sym] = CtxConcat(
                    axis, side, ref(toks[3], lineno), ref(toks[4], lineno)
                )
            else:
                arity(toks, 4, lineno)
                rules[sym] = Compose(ref(toks[2], lineno), ref(toks[3], lineno))
        else:
            raise FormatError(f"line {lineno}: unknown opcode {op!r}")

    start = ref(start_label, 0)
    cls = Tslp2D if is_tslp else Grammar2D
    return cls(rules=tuple(rules), start=start, labels=tuple(labels))
