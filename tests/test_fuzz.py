"""Seeded fuzz of the command line: mutated grammar texts never escape as a
traceback.

Every mutant of ``conftest.fuzz_texts`` goes in-process through every
command that loads a grammar file: ``stats``, ``access`` (descent and
``--fast``), ``balance``, ``expand --max-cells``, ``rebalance``,
``linearize``, ``margins``, ``rotate`` and ``verify`` (the mutant against
itself, which compares fingerprints at any size and takes no flags).  Each
run must exit 0 (the mutant is still a grammar), 1 (invalid grammar or
out-of-range cell) or 2 (usage error), with nothing but a message on stderr.
"""

from __future__ import annotations

import random

import pytest

from gridslp.cli import main


def test_cli_exits_cleanly_on_mutated_texts(fuzz_texts, tmp_path, capsys):
    rng = random.Random(7)
    path = tmp_path / "mutant.txt"
    codes = set()
    for name, text in fuzz_texts:
        path.write_text(text, encoding="utf-8")
        x, y = rng.randint(1, 40), rng.randint(1, 40)
        for argv in (
            ["stats", path],
            ["access", path, x, y],
            ["access", path, x, y, "--fast"],
            ["balance", path],
            ["expand", path, "--max-cells", 4096],
            ["rebalance", path],
            ["linearize", path],
            ["margins", path, "--side", "top"],
            ["rotate", path],
            ["verify", path, "--against", path],
        ):
            argv = [str(a) for a in argv]
            try:
                code = main(argv)
            except Exception as e:  # anything escaping is the failure
                pytest.fail(f"{argv[0]} on a mutant of {name} raised {e!r}:\n{text}")
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (argv[0], name, text)
            assert "Traceback" not in err, (argv[0], name, text)
            codes.add(code)
    # The mutants reach both valid and invalid grammars.
    assert {0, 1} <= codes
