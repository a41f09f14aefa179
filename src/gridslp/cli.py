"""Command-line front end: deterministic, scriptable subcommands.

Every command is a pure function of its flags (``verify`` errs with
probability below 2^-63): repeated runs produce byte-identical output.
Machine-readable results are JSON on stdout; grammars and matrices are the
plain text formats of the serialization layer.  Exit codes: 0 success, 1
validation or equivalence failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .access import access_tslp, first_difference
from .balance import balance_to_tslp
from .bench import bench_access
from .fastaccess import access_fast, build_fast
from .gadgets import (
    build_bin,
    build_cnm,
    build_cnm_sequence,
    build_shiftbin,
    build_spiral,
    random_grammar,
)
from .grammar import (
    FormatError,
    Grammar2D,
    GridSlpError,
    ParameterError,
    Tslp2D,
    compute_geometry,
    validate,
)
from .matrix import DEFAULT_MAX_CELLS, expand, matrix_to_text
from .textio import emit_grammar, parse_grammar
from .transforms import linearize_rows, margin_slp, rebalance_plain_2d, rotate_cw


def _read_text(path: str) -> str:
    """The UTF-8 text of ``path`` (``-``: stdin); undecodable bytes are a
    :class:`FormatError` that names the file and the byte offset."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as f:
            data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        name = "stdin" if path == "-" else path
        raise FormatError(f"{name}: not UTF-8 at byte {e.start}") from None


def _write_text(text: str, path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def _load(path: str) -> Grammar2D:
    """The grammar in ``path``, validated, which keeps its geometry table."""
    g = parse_grammar(_read_text(path))
    report = validate(g)
    if not report.ok:
        raise GridSlpError(f"{path}: invalid grammar\n{report}")
    return g


def _emit(args, grammar, stats=None) -> int:
    """Print ``stats`` as JSON to stderr under ``--stats``; write the grammar."""
    if stats is not None and args.stats:
        print(json.dumps(stats, indent=2), file=sys.stderr)
    _write_text(emit_grammar(grammar), args.output)
    return 0


# Each gadget's builder and the flags it is called with, in order.  A flag
# whose default is None is required; ``cnmseq`` keeps only the grammar.
GADGETS = {
    "bin": (build_bin, ("n",)),
    "shiftbin": (build_shiftbin, ("n",)),
    "cnm": (build_cnm, ("n", "m")),
    "cnmseq": (lambda *flags: build_cnm_sequence(*flags)[0], ("n", "m", "b", "k")),
    "spiral": (build_spiral, ("n", "c")),
    "random": (random_grammar, ("seed", "size", "max_dim")),
}


def cmd_gen(args) -> int:
    builder, flags = GADGETS[args.gadget]
    for name in flags:
        if getattr(args, name) is None:
            raise ParameterError(f"--gadget {args.gadget} requires --{name}")
    return _emit(args, builder(*(getattr(args, name) for name in flags)))


def cmd_stats(args) -> int:
    g = _load(args.file)
    geo = compute_geometry(g)
    info = {
        "kind": g.text_kind,
        "symbols": g.symbols,
        "size": g.size,
        "depth": geo.depths[g.start],
        "height": geo.heights[g.start],
        "width": geo.widths[g.start],
        "holed": isinstance(g, Tslp2D),
    }
    _write_text(json.dumps(info, indent=2), args.output)
    return 0


def cmd_expand(args) -> int:
    m = expand(_load(args.file), max_cells=args.max_cells)
    _write_text(matrix_to_text(m), args.output)
    return 0


def cmd_access(args) -> int:
    g = _load(args.file)
    if args.fast:
        ch, visits = access_fast(build_fast(g, epsilon=args.epsilon), args.x, args.y)
    else:
        ch, visits = access_tslp(g, args.x, args.y)
    _write_text(f"{ch} {visits}", args.output)
    return 0


def cmd_balance(args) -> int:
    t, stats = balance_to_tslp(_load(args.file))
    summary = {
        "inputSize": stats.input_size,
        "inlinedSize": stats.inlined_size,
        "outputSize": stats.output_size,
        "inputDepth": stats.input_depth,
        "outputDepth": stats.output_depth,
        "area": stats.area,
        "paths": stats.path_count,
        "requests": stats.request_count,
        "kept": stats.kept_count,
    }
    return _emit(args, t, summary)


def cmd_linearize(args) -> int:
    return _emit(args, linearize_rows(_load(args.file)))


def cmd_rebalance(args) -> int:
    out, stats = rebalance_plain_2d(_load(args.file))
    summary = {
        "rows": stats.rows,
        "cols": stats.cols,
        "inputSize": stats.input_size,
        "inputDepth": stats.input_depth,
        "outputSize": stats.output_size,
        "outputDepth": stats.output_depth,
    }
    return _emit(args, out, summary)


def cmd_rotate(args) -> int:
    return _emit(args, rotate_cw(_load(args.file)))


def cmd_margins(args) -> int:
    return _emit(args, margin_slp(_load(args.file), args.side))


def cmd_verify(args) -> int:
    a, b = _load(args.file), _load(args.against)
    dims_a, dims_b = compute_geometry(a).dims(a.start), compute_geometry(b).dims(b.start)
    if dims_a != dims_b:
        print(f"dimension mismatch: {dims_a} vs {dims_b}", file=sys.stderr)
        return 1
    if (cell := first_difference(a, b)) is None:
        print(f"equal ({dims_a[0]}x{dims_a[1]}, fingerprint)")
        return 0
    (ca, _), (cb, _) = access_tslp(a, *cell), access_tslp(b, *cell)
    print(f"mismatch at ({cell[0]},{cell[1]}): {ca!r} vs {cb!r}", file=sys.stderr)
    return 1


def cmd_bench(args) -> int:
    g = _load(args.file)
    idx = build_fast(g, epsilon=args.epsilon)
    report = bench_access(idx, args.queries, args.seed)
    _write_text(json.dumps(report, indent=2), args.output)
    return 0


def _command(sub, name: str, func, help: str, file: bool = True):
    """A subparser for ``name`` that runs ``func``, with its input ``file``."""
    p = sub.add_parser(name, help=help)
    if file:
        p.add_argument("file")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridslp",
        description="Build, transform, and query grammar-compressed 2D strings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "gen", cmd_gen, "generate a gadget or random grammar", file=False)
    p.add_argument("--gadget", required=True, choices=list(GADGETS))
    p.add_argument("--n", type=int, default=None, help="size parameter")
    p.add_argument("--m", type=int, default=None, help="width parameter (cnm)")
    p.add_argument("--b", type=int, default=None, help="row step (cnmseq)")
    p.add_argument("--k", type=int, default=None, help="sequence length (cnmseq)")
    p.add_argument("--c", type=int, default=1, help="depth constant (spiral)")
    p.add_argument("--seed", type=int, default=0, help="rng seed (random)")
    p.add_argument("--size", type=int, default=64, help="target size (random)")
    p.add_argument("--max-dim", type=int, default=64, help="dimension cap (random)")

    _command(sub, "stats", cmd_stats, "grammar summary as JSON")

    p = _command(sub, "expand", cmd_expand, "write the full matrix")
    p.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help=f"area cap (default {DEFAULT_MAX_CELLS}, or env GRIDSLP_MAX_CELLS)",
    )

    p = _command(sub, "access", cmd_access, "one cell by position")
    p.add_argument("x", type=int)
    p.add_argument("y", type=int)
    p.add_argument("--fast", action="store_true", help="use the unwound index")
    p.add_argument("--epsilon", type=float, default=3.0)

    p = _command(
        sub, "balance", cmd_balance, "equivalent grammar with holes, low depth"
    )
    p.add_argument("--stats", action="store_true", help="print stats to stderr")

    _command(
        sub, "linearize", cmd_linearize, "1D grammar of the row-major flattening"
    )

    p = _command(
        sub,
        "rebalance",
        cmd_rebalance,
        "equivalent plain grammar, low depth and never deeper "
        "(shallow input comes back as it is)",
    )
    p.add_argument("--stats", action="store_true", help="print stats to stderr")

    _command(sub, "rotate", cmd_rotate, "rotate the expansion 90° clockwise")

    p = _command(sub, "margins", cmd_margins, "1D grammar of one margin")
    p.add_argument("--side", required=True, choices=["top", "bottom", "left", "right"])

    p = _command(sub, "verify", cmd_verify, "compare two grammars' expansions")
    p.add_argument("--against", required=True)

    p = _command(sub, "bench", cmd_bench, "time the descent and the index access paths")
    p.add_argument("--queries", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=3.0)

    # -o comes last in every command's options; verify writes no output file.
    for name, p in sub.choices.items():
        if name != "verify":
            p.add_argument("-o", "--output", help="output file (default stdout)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (GridSlpError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
