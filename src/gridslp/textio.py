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
identity on both structure and bytes.  A label referenced but never defined
gets a trailing id, in order of first reference, the start label last.

Parsing is a few passes over the whole text rather than a loop over lines:
one split per line, the label table and its checks in one step, and one
comprehension that builds every production with inline id lookups.  Only
when a pass finds a fault are the lines scanned, to report the first fault
in the order a line-at-a-time reading meets it, so ids, labels and every
error message and line number are those of that reading.
"""

from __future__ import annotations

from operator import itemgetter

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
#: Tokens on a definition line, by opcode: label, opcode, then arguments.
_ARITY = {"T": 3, "H": 4, "V": 4, "A": 4, "C": 4, "HH": 6, "HV": 6, "CH": 5, "CV": 5}
_PLAIN_OPS = frozenset(("T", "H", "V"))
#: The tokens of an opcode's line that name symbols.
_REFS = {"T": slice(0), "H": slice(2, 4), "V": slice(2, 4), "A": slice(2, 4),
         "C": slice(2, 4), "HH": slice(3, 4), "HV": slice(3, 4), "CH": slice(3, 5),
         "CV": slice(3, 5)}
_SIDE_CODE = {axis: {side: code for code, side in sides.items()}
              for axis, sides in _HOLE_SIDE.items()}


def emit_grammar(g: Grammar2D) -> str:
    """Serialize ``g``; deterministic, one definition line per symbol id."""
    is_tslp = isinstance(g, Tslp2D)
    lines = [f"{g.text_kind} v1", f"start {g.labels[g.start]}"]
    lab = g.labels
    bad = -1 if _all_labels(lab) else next(
        sym for sym, name in enumerate(lab) if not _all_labels([name]))
    for sym, r in enumerate(g.rules):
        if r is None:
            raise FormatError(f"symbol {lab[sym]} has no production")
        if sym == bad:
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


class _Ids(dict):
    """Label to symbol id; an undefined label gets the next id when first
    referenced, so undefined labels follow the defined ones in that order."""

    def __missing__(self, label: str) -> int:
        if not LABEL_RE.match(label):
            raise ValueError(label)
        sym = self[label] = len(self)
        return sym


def parse_grammar(text: str) -> Grammar2D:
    """Parse the text format; returns a plain grammar or TSLP per the header."""
    body = [t for line in text.splitlines() if (t := line.split()) and t[0][0] != "#"]
    if not body:
        raise FormatError("empty grammar text")

    header = body[0]
    if len(header) != 2 or header[1] != "v1" or header[0] not in ("SLP2D", "TSLP2D"):
        raise FormatError(f"line {_lineno(text, 0)}: expected 'SLP2D v1' or 'TSLP2D v1' header")
    is_tslp = header[0] == "TSLP2D"

    heads = list(map(itemgetter(0), body))
    starts = heads.count("start")
    if not starts:
        raise FormatError("missing start line")
    s = heads.index("start")
    if len(body[s]) != 2:
        raise FormatError(f"line {_lineno(text, s)}: start takes exactly one label")
    if starts > 1:
        s2 = heads.index("start", s + 1)
        raise FormatError(f"line {_lineno(text, s2)}: duplicate start line")
    defs = body[1:s] + body[s + 1:]
    labels = heads[1:s] + heads[s + 1:]

    def fail(d: int, message: str):
        raise FormatError(f"line {_lineno(text, d + 1 if d + 1 < s else d + 2)}: {message}")

    # Ids follow definition order; a label that is referenced but never
    # defined gets a trailing id with a None production for validation to
    # report.
    ids = _Ids(zip(labels, range(len(labels))))
    if len(ids) < len(labels) or not _all_labels(labels):
        fail(*_label_fault(labels))

    # Every check below covers all lines at once, and the productions are
    # built only after the opcodes and argument counts pass; when anything
    # fails, ``_production_fault`` finds the first faulty line.
    try:
        ops = list(map(itemgetter(1), defs))
        chars = [t[2] for t, op in zip(defs, ops) if op == "T"]
        if (list(map(_ARITY.get, ops)) != list(map(len, defs))
                or not (is_tslp or _PLAIN_OPS.issuperset(ops))
                or len("".join(chars)) != len(chars)):
            raise ValueError("an opcode, argument count or terminal is wrong")
        rules = [
            HConcat(ids[t[2]], ids[t[3]]) if op == "H"
            else VConcat(ids[t[2]], ids[t[3]]) if op == "V"
            else Terminal(t[2]) if op == "T"
            else Apply(ids[t[2]], ids[t[3]]) if op == "A"
            else Compose(ids[t[2]], ids[t[3]]) if op == "C"
            else CtxConcat(op[1], _HOLE_SIDE[op[1]][t[2]], ids[t[3]], ids[t[4]])
            if op[0] == "C"
            else HoleConcat(op[1], _HOLE_SIDE[op[1]][t[2]], ids[t[3]], int(t[4]), int(t[5]))
            for t, op in zip(defs, ops)
        ]
    except (IndexError, KeyError, ValueError):
        fail(*_production_fault(defs, is_tslp))

    start_label = body[s][1]
    if not LABEL_RE.match(start_label):
        raise FormatError(f"line {_lineno(text, s)}: bad label {start_label!r}")
    start = ids[start_label]
    rules += [None] * (len(ids) - len(rules))
    cls = Tslp2D if is_tslp else Grammar2D
    return cls(rules=tuple(rules), start=start, labels=tuple(ids))


def _lineno(text: str, k: int) -> int:
    """Line number of the ``k``-th line that is neither blank nor a comment."""
    return [n for n, line in enumerate(text.splitlines(), 1)
            if (t := line.split()) and t[0][0] != "#"][k]


def _all_labels(names) -> bool:
    """Whether every one of ``names`` matches ``LABEL_RE``, in one regex run:
    joined, non-empty labels match it exactly when each one does."""
    return not names or ("" not in names and LABEL_RE.match("".join(names)) is not None)


def _label_fault(labels: list[str]) -> tuple[int, str]:
    """The first defined label that is malformed or defined twice."""
    seen = set()
    for d, label in enumerate(labels):
        if not LABEL_RE.match(label):
            return d, f"bad label {label!r}"
        if label in seen:
            return d, f"symbol {label} redefined"
        seen.add(label)
    raise AssertionError("no faulty label")


def _production_fault(defs: list[list[str]], is_tslp: bool) -> tuple[int, str]:
    """The first definition line the parser refuses, with its message.

    A line's checks run in the order a line-at-a-time reading makes them:
    opcode, header, argument count, then the arguments left to right.
    """
    for d, t in enumerate(defs):
        if len(t) < 2:
            return d, "missing opcode"
        op = t[1]
        n = _ARITY.get(op)
        if n is None:
            return d, f"unknown opcode {op!r}"
        if not is_tslp and op not in _PLAIN_OPS:
            return d, f"opcode {op} requires a TSLP2D header"
        if len(t) != n:
            return d, f"opcode {op} takes {n - 2} arguments"
        if op == "T" and len(t[2]) != 1:
            return d, "terminal payload must be a single character"
        if len(op) == 2 and t[2] not in _HOLE_SIDE[op[1]]:  # HH, HV, CH, CV
            return d, f"bad side {t[2]!r} for {op}"
        for x in t[_REFS[op]]:  # defined labels all match, so x is undefined
            if not LABEL_RE.match(x):
                return d, f"bad label {x!r}"
        if op in ("HH", "HV"):
            for x in t[4:]:
                try:
                    int(x)
                except ValueError:
                    return d, f"expected an integer, got {x!r}"
    raise AssertionError("no faulty line")
