"""The line-at-a-time grammar parser, kept as the oracle for the library's.

``parse_grammar`` is ``gridslp.textio.parse_grammar`` as it was before
parsing became whole-text passes: it reads one line at a time, checking
and building each production as it goes.  The library parser must return
an equal grammar (rules, start, labels and class) for every text this one
accepts, and raise ``FormatError`` with the identical message for every
text it rejects; ``tests/test_textio.py`` and ``tests/test_fuzz.py``
compare the two.
"""

from __future__ import annotations

from gridslp.grammar import (
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
            start_label, start_lineno = toks[1], lineno
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

    start = ref(start_label, start_lineno)
    cls = Tslp2D if is_tslp else Grammar2D
    return cls(rules=tuple(rules), start=start, labels=tuple(labels))
