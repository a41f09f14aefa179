"""Serialization: round-trip identity, format errors, label handling."""

from __future__ import annotations

import pytest

from gridslp import (
    FormatError,
    Grammar2D,
    GrammarBuilder,
    HConcat,
    Terminal,
    Tslp2D,
    emit_grammar,
    expand,
    parse_grammar,
    validate,
)

from conftest import example_tslp


class TestRoundTrip:
    def test_structural_identity_on_corpus(self, small_corpus):
        for name, g in small_corpus:
            back = parse_grammar(emit_grammar(g))
            assert back.rules == g.rules, name
            assert back.start == g.start, name
            assert type(back) is type(g), name

    def test_byte_identity_on_corpus(self, small_corpus):
        for name, g in small_corpus:
            text = emit_grammar(g)
            assert emit_grammar(parse_grammar(text)) == text, name

    def test_labels_preserved(self):
        g = Grammar2D((Terminal("x"), HConcat(0, 0)), 1, ("leaf", "pair"))
        text = emit_grammar(g)
        assert "leaf T x" in text
        assert "pair H leaf leaf" in text
        back = parse_grammar(text)
        assert back.labels[back.start] == "pair"

    def test_seeded_builder_names_added_symbols_at_finish(self):
        # The seed already uses S2 and S3, the default names of the first
        # two added symbols, so those two take a trailing underscore.
        g = parse_grammar("SLP2D v1\nstart S3\nS2 T x\nS3 H S2 S2\n")
        b = GrammarBuilder.seeded(g)
        row = b.h(g.start, b.terminal("y"))
        out = b.finish(b.v(row, row))
        assert out.labels == ("S2", "S3", "S2_", "S3_", "S4")
        text = emit_grammar(out)
        assert "S3_ H S3 S2_" in text and "S4 V S3_ S3_" in text
        back = parse_grammar(text)
        assert (back.rules, back.start, back.labels) == (out.rules, out.start, out.labels)
        assert emit_grammar(back) == text

    def test_example_tslp_text(self):
        t = example_tslp()
        text = emit_grammar(t)
        lines = text.strip().splitlines()
        assert lines[0] == "TSLP2D v1"
        assert lines[1] == "start S4"
        assert "S3 HV T S2 1 2" in lines
        assert "S4 A S3 S2" in lines


class TestParsing:
    def test_header_required(self):
        with pytest.raises(FormatError):
            parse_grammar("start A\nA T x\n")

    def test_start_required(self):
        with pytest.raises(FormatError):
            parse_grammar("SLP2D v1\nA T x\n")

    def test_duplicate_start_rejected(self):
        with pytest.raises(FormatError):
            parse_grammar("SLP2D v1\nstart A\nstart A\nA T x\n")

    def test_redefinition_rejected(self):
        with pytest.raises(FormatError):
            parse_grammar("SLP2D v1\nstart A\nA T x\nA T y\n")

    def test_bad_opcode_rejected(self):
        with pytest.raises(FormatError):
            parse_grammar("SLP2D v1\nstart A\nA Q x y\n")

    def test_context_opcode_needs_tslp_header(self):
        text = "SLP2D v1\nstart T\nA T x\nC HH L A 1 1\nT A C A\n"
        with pytest.raises(FormatError):
            parse_grammar(text)

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "SLP2D v1\n"
            "\n"
            "# a comment\n"
            "start B\n"
            "A T x\n"
            "   # another\n"
            "B H A A\n"
        )
        g = parse_grammar(text)
        assert validate(g).ok
        assert expand(g).tolist() == [["x", "x"]]

    def test_forward_references_allowed(self):
        text = "SLP2D v1\nstart B\nB H A A\nA T x\n"
        g = parse_grammar(text)
        assert validate(g).ok

    def test_undefined_label_left_for_validate(self):
        # Syntactically fine; the dangling reference is validate's to flag.
        g = parse_grammar("SLP2D v1\nstart B\nB H A A\n")
        rep = validate(g)
        assert not rep.ok
        assert any(v.code == "undefined" for v in rep.violations)

    def test_whitespace_terminal_rejected(self):
        with pytest.raises(FormatError):
            parse_grammar("SLP2D v1\nstart A\nA T  \n")

    def test_hole_dims_must_be_integers(self):
        text = "TSLP2D v1\nstart T\nA T x\nC HH L A p q\nT A C A\n"
        with pytest.raises(FormatError):
            parse_grammar(text)

    def test_tslp_parses_as_tslp(self):
        t = example_tslp()
        back = parse_grammar(emit_grammar(t))
        assert isinstance(back, Tslp2D)


class TestEmitErrors:
    def test_whitespace_terminal_unserializable(self):
        b = GrammarBuilder(dedup=False)
        x = b.terminal(" ")
        g = b.finish(b.h(x, x))
        with pytest.raises(FormatError):
            emit_grammar(g)

    def test_expansion_preserved_through_text(self, small_corpus):
        for name, g in small_corpus:
            back = parse_grammar(emit_grammar(g))
            assert (expand(back) == expand(g)).all(), name
