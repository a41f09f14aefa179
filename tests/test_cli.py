"""Command-line interface: every subcommand through ``main(argv)``."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from gridslp import (
    GrammarBuilder,
    build_cnm,
    build_shiftbin,
    build_spiral,
    emit_grammar,
    expand,
    parse_grammar,
    random_grammar,
)
from gridslp.cli import main
from gridslp.matrix import DEFAULT_MAX_CELLS

from conftest import example_tslp


@pytest.fixture()
def run(capsys):
    """Invoke the CLI and return (exit_code, stdout, stderr)."""

    def _run(*argv):
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture()
def shiftbin_file(tmp_path):
    p = tmp_path / "sb2.slp"
    p.write_text(emit_grammar(build_shiftbin(2)))
    return str(p)


@pytest.fixture()
def example_file(tmp_path):
    p = tmp_path / "example.tslp"
    p.write_text(emit_grammar(example_tslp()))
    return str(p)


class TestGen:
    @pytest.mark.parametrize(
        "argv,dims",
        [
            (("gen", "--gadget", "bin", "--n", 3), (8, 5)),
            (("gen", "--gadget", "shiftbin", "--n", 2), (8, 16)),
            (("gen", "--gadget", "cnm", "--n", 16, "--m", 16), (16, 16)),
            (("gen", "--gadget", "cnmseq", "--n", 32, "--m", 16, "--b", 16, "--k", 3), (80, 16)),
            (("gen", "--gadget", "spiral", "--n", 256), (256, 256)),
            (("gen", "--gadget", "random", "--seed", 7, "--size", 30, "--max-dim", 16), None),
        ],
    )
    def test_generates_parseable_grammar(self, run, argv, dims):
        code, out, err = run(*argv)
        assert code == 0, err
        g = parse_grammar(out)
        if dims is not None:
            assert expand(g).shape == dims

    def test_output_file(self, run, tmp_path):
        target = tmp_path / "g.slp"
        code, out, err = run("gen", "--gadget", "bin", "--n", 2, "-o", str(target))
        assert code == 0 and out == ""
        parse_grammar(target.read_text())

    def test_missing_parameter_is_usage_error(self, run):
        code, out, err = run("gen", "--gadget", "cnm", "--n", 16)
        assert code == 2
        assert "m" in err

    def test_bad_gadget_parameter(self, run):
        code, out, err = run("gen", "--gadget", "bin", "--n", -1)
        assert code == 2


class TestStats:
    def test_worked_example(self, run, example_file):
        code, out, err = run("stats", example_file)
        assert code == 0
        info = json.loads(out)
        assert info == {
            "kind": "TSLP2D",
            "symbols": 5,
            "size": 8,
            "depth": 4,
            "height": 2,
            "width": 2,
            "holed": True,
        }

    def test_plain_grammar(self, run, shiftbin_file):
        info = json.loads(run("stats", shiftbin_file)[1])
        assert info["kind"] == "SLP2D"
        assert info["holed"] is False
        assert (info["height"], info["width"]) == (8, 16)

    def test_missing_file(self, run):
        code, out, err = run("stats", "/nonexistent/g.slp")
        assert code == 2
        assert "error" in err

    def test_malformed_grammar(self, run, tmp_path):
        p = tmp_path / "bad.slp"
        p.write_text("SLP2D v1\nstart S0\nS0 Q x y\n")
        code, out, err = run("stats", str(p))
        assert code == 1


class TestExpandAccess:
    def test_expand_matches_library(self, run, shiftbin_file):
        code, out, err = run("expand", shiftbin_file)
        assert code == 0
        rows = [line for line in out.splitlines() if line]
        m = expand(build_shiftbin(2))
        assert rows == ["".join(r) for r in m]

    def test_expand_cell_cap(self, run, shiftbin_file):
        code, out, err = run("expand", shiftbin_file, "--max-cells", 10)
        assert code == 1
        assert "cells" in err

    def test_access_each_path_agrees(self, run, example_file, shiftbin_file):
        for f in (example_file, shiftbin_file):
            g = parse_grammar(open(f).read())
            m = expand(g)
            plain = run("access", f, 1, 2)
            fast = run("access", f, 1, 2, "--fast")
            assert plain[0] == fast[0] == 0
            assert plain[1].split()[0] == fast[1].split()[0] == m[0, 1]

    def test_access_computes_geometry_once(self, run, monkeypatch, tmp_path):
        import gridslp.grammar as grammar

        calls = []
        real = grammar._check

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(grammar, "_check", counted)
        p = tmp_path / "sp.slp"
        p.write_text(emit_grammar(build_spiral(256)))
        for fast in ((), ("--fast",)):
            del calls[:]
            code, out, err = run("access", p, 100, 200, *fast)
            assert code == 0
            assert len(calls) == 1, fast

    def test_access_out_of_bounds(self, run, shiftbin_file):
        code, out, err = run("access", shiftbin_file, 0, 1)
        assert code == 1

    def test_access_usage_error(self, run, shiftbin_file):
        with pytest.raises(SystemExit) as exc:
            main(["access", shiftbin_file, "1"])
        assert exc.value.code == 2


class TestTransforms:
    def test_balance_stats_json(self, run, tmp_path):
        p = tmp_path / "cnm.slp"
        p.write_text(emit_grammar(build_cnm(32, 32)))
        code, out, err = run("balance", str(p), "--stats")
        assert code == 0
        t = parse_grammar(out)
        assert (expand(t) == expand(build_cnm(32, 32))).all()
        stats = json.loads(err)
        assert set(stats) == {
            "inputSize",
            "inlinedSize",
            "outputSize",
            "inputDepth",
            "outputDepth",
            "area",
            "paths",
            "requests",
            "kept",
        }
        assert stats["area"] == 32 * 32
        # Already shallow: every symbol is kept, none is folded.
        assert stats["paths"] == 0
        assert stats["kept"] > 0
        assert stats["outputDepth"] == stats["inputDepth"]

    def test_rebalance_stats_json(self, run, tmp_path):
        p = tmp_path / "cnm.slp"
        p.write_text(emit_grammar(build_cnm(32, 64)))
        code, out, err = run("rebalance", str(p), "--stats")
        assert code == 0
        stats = json.loads(err)
        assert (stats["rows"], stats["cols"]) == (32, 64)
        out_g = parse_grammar(out)
        assert (expand(out_g) == expand(build_cnm(32, 64))).all()

    def test_rebalance_keeps_shallow_input_text(self, run, tmp_path):
        p = tmp_path / "cnm.slp"
        text = emit_grammar(build_cnm(32, 64))
        p.write_text(text)
        code, out, err = run("rebalance", str(p))
        assert code == 0
        assert out == text

    def test_rebalance_tall_input_is_usage_error(self, run, tmp_path):
        p = tmp_path / "tall.slp"
        p.write_text(emit_grammar(build_cnm(64, 32)))
        code, out, err = run("rebalance", str(p))
        assert code == 2
        assert "rotate" in err

    def test_rotate(self, run, shiftbin_file):
        code, out, err = run("rotate", shiftbin_file)
        assert code == 0
        rotated = parse_grammar(out)
        assert (expand(rotated) == np.rot90(expand(build_shiftbin(2)), k=-1)).all()

    @pytest.mark.parametrize("side", ["top", "bottom", "left", "right"])
    def test_margins(self, run, shiftbin_file, side):
        code, out, err = run("margins", shiftbin_file, "--side", side)
        assert code == 0
        strip = expand(parse_grammar(out))
        m = expand(build_shiftbin(2))
        want = {
            "top": m[0, :],
            "bottom": m[-1, :],
            "left": m[:, 0],
            "right": m[:, -1],
        }[side]
        assert strip.shape[0] == 1
        assert (strip[0] == want).all()

    def test_linearize(self, run, shiftbin_file):
        code, out, err = run("linearize", shiftbin_file)
        assert code == 0
        flat = expand(parse_grammar(out))
        m = expand(build_shiftbin(2))
        assert (flat[0] == m.reshape(-1)).all()


class TestVerify:
    def test_reflexive(self, run, shiftbin_file):
        code, out, err = run("verify", shiftbin_file, "--against", shiftbin_file)
        assert code == 0
        assert "equal" in out

    def test_equivalent_grammars(self, run, tmp_path):
        a = tmp_path / "a.slp"
        b = tmp_path / "b.tslp"
        g = build_cnm(16, 32)
        a.write_text(emit_grammar(g))
        from gridslp import balance_to_tslp

        b.write_text(emit_grammar(balance_to_tslp(g)[0]))
        code, out, err = run("verify", str(a), "--against", str(b))
        assert code == 0

    def test_mismatch(self, run, tmp_path):
        a = tmp_path / "a.slp"
        b = tmp_path / "b.slp"
        a.write_text("SLP2D v1\nstart S2\nS0 T x\nS1 T y\nS2 H S0 S1\n")
        b.write_text("SLP2D v1\nstart S2\nS0 T x\nS1 T z\nS2 H S0 S1\n")
        code, out, err = run("verify", str(a), "--against", str(b))
        assert code == 1
        assert "mismatch at (1,2)" in err

    def test_dimension_mismatch(self, run, tmp_path):
        a = tmp_path / "a.slp"
        b = tmp_path / "b.slp"
        a.write_text("SLP2D v1\nstart S0\nS0 T x\n")
        b.write_text("SLP2D v1\nstart S1\nS0 T x\nS1 H S0 S0\n")
        code, out, err = run("verify", str(a), "--against", str(b))
        assert code == 1
        assert "dimension mismatch" in err

    def test_sampled_when_over_cap(self, run, tmp_path):
        a = tmp_path / "a.slp"
        g = build_cnm(32, 32)
        a.write_text(emit_grammar(g))
        code, out, err = run(
            "verify", str(a), "--against", str(a), "--max-cells", 100, "--samples", 50
        )
        assert code == 0
        assert "sampled" in out

    def test_sampled_mismatch_when_over_cap(self, run, tmp_path):
        paths = []
        for char in "xy":
            b = GrammarBuilder(dedup=True)
            root = b.repeat("V", b.repeat("H", b.terminal(char), 32), 32)
            paths.append(tmp_path / f"{char}.slp")
            paths[-1].write_text(emit_grammar(b.finish(root)))
        code, out, err = run(
            "verify", paths[0], "--against", paths[1], "--max-cells", 100,
            "--samples", 5,
        )
        assert code == 1
        assert out == ""
        assert "mismatch at" in err

    @pytest.mark.parametrize("samples", [0, -5])
    def test_sample_count_below_one_is_usage_error(self, run, tmp_path, samples):
        """Zero samples would report "equal" without comparing a cell."""
        a = tmp_path / "a.slp"
        a.write_text(emit_grammar(build_cnm(32, 32)))
        code, out, err = run(
            "verify", str(a), "--against", str(a), "--max-cells", 100,
            "--samples", samples,
        )
        assert code == 2
        assert out == ""
        assert "--samples" in err


class TestBench:
    def test_json_report(self, run, tmp_path):
        p = tmp_path / "sp.slp"
        p.write_text(emit_grammar(build_spiral(256)))
        code, out, err = run("bench", str(p), "--queries", 32, "--seed", 1)
        assert code == 0
        d = json.loads(out)
        assert d["queries"] == 32
        assert [p["path"] for p in d["paths"]] == ["tslp", "fast"]

    def test_json_key_order(self, run, shiftbin_file):
        code, out, err = run("bench", shiftbin_file, "--queries", 4)
        assert code == 0
        d = json.loads(out)
        assert list(d) == ["queries", "seed", "height", "width", "paths"]
        for p in d["paths"]:
            assert list(p) == ["path", "meanVisits", "maxVisits", "nanosPerQuery"]

    @pytest.mark.parametrize("queries", [0, -3])
    def test_query_count_below_one_is_usage_error(self, run, shiftbin_file, queries):
        code, out, err = run("bench", shiftbin_file, "--queries", queries)
        assert code == 2
        assert out == ""
        assert "queries" in err

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf", "0", "-1"])
    def test_unusable_epsilon_is_usage_error(self, run, shiftbin_file, epsilon):
        for argv in (("bench", shiftbin_file, "--queries", 4),
                     ("access", shiftbin_file, 1, 1, "--fast")):
            code, out, err = run(*argv, f"--epsilon={epsilon}")
            assert code == 2, argv
            assert "epsilon must be finite and positive" in err, argv

    @pytest.mark.parametrize("epsilon", ["1e12", "1e20", "1e308"])
    def test_absurd_epsilon_is_usage_error(self, run, tmp_path, epsilon):
        """An ε that asks for more than 62 unwinding levels is refused
        before the index computes 2^K."""
        path = tmp_path / "random.slp"
        path.write_text(emit_grammar(random_grammar(3, 60)))
        for argv in (("bench", path, "--queries", 4), ("access", path, 1, 1, "--fast")):
            code, out, err = run(*argv, f"--epsilon={epsilon}")
            assert code == 2, argv
            assert out == ""
            assert "more than 62 unwinding levels" in err, argv


class TestMaxCellsEnvironment:
    """A bad ``GRIDSLP_MAX_CELLS`` matters only to commands that read it."""

    def test_other_commands_ignore_it(self, run, monkeypatch, shiftbin_file):
        monkeypatch.setenv("GRIDSLP_MAX_CELLS", "abc")
        code, out, err = run("stats", shiftbin_file)
        assert code == 0
        assert json.loads(out)["height"] == 8

    def test_expand_reports_it(self, run, monkeypatch, shiftbin_file):
        monkeypatch.setenv("GRIDSLP_MAX_CELLS", "abc")
        code, out, err = run("expand", shiftbin_file)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "GRIDSLP_MAX_CELLS" in err
        assert "Traceback" not in err

    def test_help_names_the_default_without_reading_it(self, monkeypatch, capsys):
        monkeypatch.setenv("GRIDSLP_MAX_CELLS", "abc")
        with pytest.raises(SystemExit) as exit_:
            main(["expand", "--help"])
        assert exit_.value.code == 0
        assert f"default {DEFAULT_MAX_CELLS}" in " ".join(capsys.readouterr().out.split())


# Grammar files the pinned runs read besides the ones they write: a
# grammar that fails validation, a malformed text, and two one-by-two
# grammars that differ in every cell.
PINNED_FILES = {
    "invalid.slp": "SLP2D v1\nstart S2\nS0 T x\nS1 V S0 S0\nS2 H S0 S1\n",
    "malformed.slp": "SLP2D v1\nstart S1\nS0 Q x\n",
    "x.slp": "SLP2D v1\nstart S1\nS0 T x\nS1 H S0 S0\n",
    "y.slp": "SLP2D v1\nstart S1\nS0 T y\nS1 H S0 S0\n",
}

# Every command but ``bench`` (timings), on relative paths so the bytes
# hold no directory.  Help and argparse usage errors are left out: their
# text depends on the Python version.
PINNED_RUNS = [
    ("gen", "--gadget", "bin", "--n", 3),
    ("gen", "--gadget", "shiftbin", "--n", 2),
    ("gen", "--gadget", "cnm", "--n", 16, "--m", 16),
    ("gen", "--gadget", "cnmseq", "--n", 32, "--m", 16, "--b", 16, "--k", 3),
    ("gen", "--gadget", "spiral", "--n", 256),
    ("gen", "--gadget", "random", "--seed", 7, "--size", 30, "--max-dim", 16),
    ("gen", "--gadget", "cnm", "--n", 16),
    ("gen", "--gadget", "spiral", "--n", 256, "-o", "spiral.slp"),
    ("gen", "--gadget", "random", "--seed", 3, "--size", 40, "--max-dim", 12,
     "-o", "random.slp"),
    ("gen", "--gadget", "shiftbin", "--n", 2, "-o", "sb.slp"),
    ("stats", "spiral.slp"),
    ("stats", "random.slp"),
    ("stats", "example.tslp"),
    ("expand", "sb.slp"),
    ("expand", "example.tslp"),
    ("expand", "random.slp", "--max-cells", 4096),
    ("expand", "spiral.slp", "--max-cells", 100),
    ("access", "spiral.slp", 1, 1),
    ("access", "spiral.slp", 200, 17, "--fast"),
    ("access", "example.tslp", 2, 2, "--fast", "--epsilon", 1),
    ("access", "spiral.slp", 0, 1),
    ("access", "spiral.slp", 257, 1, "--fast"),
    ("access", "x.slp", 1, 2, "--fast", "--epsilon", 0),
    ("balance", "spiral.slp", "--stats", "-o", "bal.tslp"),
    ("balance", "random.slp", "--stats"),
    ("rebalance", "spiral.slp", "--stats"),
    ("rebalance", "random.slp", "--stats"),
    ("stats", "bal.tslp"),
    ("linearize", "sb.slp"),
    ("linearize", "example.tslp"),
    ("rotate", "sb.slp"),
    ("rotate", "bal.tslp"),
    ("margins", "random.slp", "--side", "top"),
    ("margins", "random.slp", "--side", "bottom"),
    ("margins", "random.slp", "--side", "left"),
    ("margins", "random.slp", "--side", "right"),
    ("verify", "spiral.slp", "--against", "bal.tslp"),
    ("verify", "spiral.slp", "--against", "bal.tslp", "--max-cells", 100,
     "--samples", 200, "--seed", 3),
    ("verify", "x.slp", "--against", "y.slp", "--max-cells", 1, "--samples", 5),
    ("verify", "sb.slp", "--against", "spiral.slp"),
    ("stats", "invalid.slp"),
    ("expand", "invalid.slp"),
    ("stats", "malformed.slp"),
    ("stats", "missing.slp"),
]

PINNED_SHA256 = "6ae46e939643d6eee639a1f0ed4543f35cd38461984d9034c982d6d4646c2154"


def test_pinned_output_bytes(tmp_path, monkeypatch, capsys):
    """Exit codes and output bytes of a fixed list of runs do not move."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GRIDSLP_MAX_CELLS", raising=False)
    for name, text in PINNED_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "example.tslp").write_text(emit_grammar(example_tslp()))
    transcript = []
    for argv in PINNED_RUNS:
        argv = [str(a) for a in argv]
        code = main(argv)
        captured = capsys.readouterr()
        transcript.append([argv, code, captured.out, captured.err])
    assert {code for _, code, _, _ in transcript} == {0, 1, 2}
    digest = hashlib.sha256(json.dumps(transcript).encode()).hexdigest()
    assert digest == PINNED_SHA256
