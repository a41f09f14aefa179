"""Command-line front end: deterministic, scriptable subcommands.

Every command is a pure function of its flags (plus seed where sampling is
involved): repeated runs produce byte-identical output.  Machine-readable
results are JSON on stdout; grammars and matrices are the plain text formats
of the serialization layer.  Exit codes: 0 success, 1 validation or
equivalence failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

import numpy as np

from .access import access_tslp
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
    Grammar2D,
    GridSlpError,
    ParameterError,
    Tslp2D,
    compute_geometry,
    validate,
)
from .matrix import DEFAULT_MAX_CELLS, expand, matrix_to_text, max_cells_default
from .textio import FormatError, emit_grammar, parse_grammar
from .transforms import linearize_rows, margin_slp, rebalance_plain_2d, rotate_cw


class _Fail(Exception):
    """Internal: carry an exit code and message out of a subcommand."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


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
        raise _Fail(1, f"{path}: invalid grammar\n{report}")
    return g


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ParameterError(f"--gadget {args.gadget} requires --{name}")


def cmd_gen(args) -> int:
    if args.gadget in ("bin", "shiftbin", "spiral"):
        _require(args, "n")
    elif args.gadget == "cnm":
        _require(args, "n", "m")
    elif args.gadget == "cnmseq":
        _require(args, "n", "m", "b", "k")
    if args.gadget == "bin":
        g = build_bin(args.n)
    elif args.gadget == "shiftbin":
        g = build_shiftbin(args.n)
    elif args.gadget == "cnm":
        g = build_cnm(args.n, args.m)
    elif args.gadget == "cnmseq":
        g, _roots = build_cnm_sequence(args.n, args.m, args.b, args.k)
    elif args.gadget == "spiral":
        g = build_spiral(args.n, args.c)
    else:
        g = random_grammar(args.seed, args.size, max_dim=args.max_dim)
    _write_text(emit_grammar(g), args.output)
    return 0


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
    if args.stats:
        print(
            json.dumps(
                {
                    "inputSize": stats.input_size,
                    "inlinedSize": stats.inlined_size,
                    "outputSize": stats.output_size,
                    "inputDepth": stats.input_depth,
                    "outputDepth": stats.output_depth,
                    "area": stats.area,
                    "paths": stats.path_count,
                    "requests": stats.request_count,
                    "kept": stats.kept_count,
                },
                indent=2,
            ),
            file=sys.stderr,
        )
    _write_text(emit_grammar(t), args.output)
    return 0


def cmd_linearize(args) -> int:
    _write_text(emit_grammar(linearize_rows(_load(args.file))), args.output)
    return 0


def cmd_rebalance(args) -> int:
    out, stats = rebalance_plain_2d(_load(args.file))
    if args.stats:
        print(
            json.dumps(
                {
                    "rows": stats.rows,
                    "cols": stats.cols,
                    "inputSize": stats.input_size,
                    "inputDepth": stats.input_depth,
                    "outputSize": stats.output_size,
                    "outputDepth": stats.output_depth,
                },
                indent=2,
            ),
            file=sys.stderr,
        )
    _write_text(emit_grammar(out), args.output)
    return 0


def cmd_rotate(args) -> int:
    _write_text(emit_grammar(rotate_cw(_load(args.file))), args.output)
    return 0


def cmd_margins(args) -> int:
    _write_text(emit_grammar(margin_slp(_load(args.file), args.side)), args.output)
    return 0


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise ParameterError(f"--samples must be at least 1, got {args.samples}")
    a, b = _load(args.file), _load(args.against)
    dims_a, dims_b = compute_geometry(a).dims(a.start), compute_geometry(b).dims(b.start)
    if dims_a != dims_b:
        print(f"dimension mismatch: {dims_a} vs {dims_b}", file=sys.stderr)
        return 1
    h, w = dims_a
    cap = args.max_cells if args.max_cells is not None else max_cells_default()
    if h * w <= cap:
        ma, mb = expand(a, max_cells=cap), expand(b, max_cells=cap)
        if np.array_equal(ma, mb):
            print(f"equal ({h}x{w}, full expansion)")
            return 0
        diff = np.argwhere(ma != mb)[0]
        x, y = int(diff[0]) + 1, int(diff[1]) + 1
        print(
            f"mismatch at ({x},{y}): {ma[x - 1][y - 1]!r} vs {mb[x - 1][y - 1]!r}",
            file=sys.stderr,
        )
        return 1
    rng = random.Random(args.seed)
    for _ in range(args.samples):
        x = rng.randrange(1, h + 1)
        y = rng.randrange(1, w + 1)
        ca, _ = access_tslp(a, x, y)
        cb, _ = access_tslp(b, x, y)
        if ca != cb:
            print(f"mismatch at ({x},{y}): {ca!r} vs {cb!r}", file=sys.stderr)
            return 1
    print(f"equal ({h}x{w}, {args.samples} sampled positions, seed {args.seed})")
    return 0


def cmd_bench(args) -> int:
    g = _load(args.file)
    idx = build_fast(g, epsilon=args.epsilon)
    report = bench_access(g, idx, args.queries, args.seed)
    _write_text(json.dumps(report, indent=2), args.output)
    return 0


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridslp",
        description="Build, transform, and query grammar-compressed 2D strings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a gadget or random grammar")
    p.add_argument(
        "--gadget",
        required=True,
        choices=["bin", "shiftbin", "cnm", "cnmseq", "spiral", "random"],
    )
    p.add_argument("--n", type=int, default=None, help="size parameter")
    p.add_argument("--m", type=int, default=None, help="width parameter (cnm)")
    p.add_argument("--b", type=int, default=None, help="row step (cnmseq)")
    p.add_argument("--k", type=int, default=None, help="sequence length (cnmseq)")
    p.add_argument("--c", type=int, default=1, help="depth constant (spiral)")
    p.add_argument("--seed", type=int, default=0, help="rng seed (random)")
    p.add_argument("--size", type=int, default=64, help="target size (random)")
    p.add_argument("--max-dim", type=int, default=64, help="dimension cap (random)")
    _add_output(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stats", help="grammar summary as JSON")
    p.add_argument("file")
    _add_output(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("expand", help="write the full matrix")
    p.add_argument("file")
    p.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help=f"area cap (default {DEFAULT_MAX_CELLS}, or env GRIDSLP_MAX_CELLS)",
    )
    _add_output(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("access", help="one cell by position")
    p.add_argument("file")
    p.add_argument("x", type=int)
    p.add_argument("y", type=int)
    p.add_argument("--fast", action="store_true", help="use the unwound index")
    p.add_argument("--epsilon", type=float, default=3.0)
    _add_output(p)
    p.set_defaults(func=cmd_access)

    p = sub.add_parser("balance", help="equivalent grammar with holes, low depth")
    p.add_argument("file")
    p.add_argument("--stats", action="store_true", help="print stats to stderr")
    _add_output(p)
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("linearize", help="1D grammar of the row-major flattening")
    p.add_argument("file")
    _add_output(p)
    p.set_defaults(func=cmd_linearize)

    p = sub.add_parser(
        "rebalance",
        help="equivalent plain grammar, low depth and never deeper "
        "(shallow input comes back as it is)",
    )
    p.add_argument("file")
    p.add_argument("--stats", action="store_true", help="print stats to stderr")
    _add_output(p)
    p.set_defaults(func=cmd_rebalance)

    p = sub.add_parser("rotate", help="rotate the expansion 90° clockwise")
    p.add_argument("file")
    _add_output(p)
    p.set_defaults(func=cmd_rotate)

    p = sub.add_parser("margins", help="1D grammar of one margin")
    p.add_argument("file")
    p.add_argument("--side", required=True, choices=["top", "bottom", "left", "right"])
    _add_output(p)
    p.set_defaults(func=cmd_margins)

    p = sub.add_parser("verify", help="compare two grammars' expansions")
    p.add_argument("file")
    p.add_argument("--against", required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-cells", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time the descent and the index access paths")
    p.add_argument("file")
    p.add_argument("--queries", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=3.0)
    _add_output(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Fail as e:
        print(e, file=sys.stderr)
        return e.code
    except ParameterError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FormatError, GridSlpError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
