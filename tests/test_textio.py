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

from conftest import acceptance_corpus, example_tslp
from reference_textio import parse_grammar as reference_parse


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


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: the grammar's class and fields, or
    the FormatError message."""
    try:
        g = parse(text)
    except FormatError as e:
        return "FormatError", str(e)
    return type(g), g.rules, g.start, g.labels


#: Hand-written texts: layout the format allows, every opcode, undefined
#: labels, and each fault the parser reports, alone and in pairs.
HAND_WRITTEN = {
    "crlf-tabs-comments": "# lead\r\nSLP2D v1\r\n\r\n  # indented\r\n"
                          "start\tB\r\n A T x \r\n\tB H A  A\r\n#B T y\r\n",
    "other-line-breaks": "SLP2D v1\x0bstart B\x0cA T x\x1cB V A A\u2028",
    "forward-and-undefined": "SLP2D v1\nstart R\nR V B U2\nB H U1 A\nA T x\nC H U1 U3\n",
    "undefined-start": "SLP2D v1\nstart Z\nA T x\nB H A Y\n",
    "every-opcode": "TSLP2D v1\nstart R\na T a\nb T #\nr H a b\ns V a b\n"
                    "h1 HH L a 1 1\nh2 HH R a 1 1\nh3 HV T r 1 2\nh4 HV B r 1 2\n"
                    "c1 CH L h1 a\nc2 CH R h1 a\nc3 CV T h3 r\nc4 CV B h3 r\n"
                    "k C c1 h1\nR A k u\n",
    "hole-sizes": "TSLP2D v1\nstart h\nh HH L a -3 +4\na T a\n",
    "empty": "",
    "only-comments": "# nothing\n\n   \n",
    "bad-header": "SLP2D v2\nstart A\nA T x\n",
    "start-first": "start A\nSLP2D v1\nA T x\n",
    "start-arity": "SLP2D v1\nstart A B\nstart A\nA T x\n",
    "duplicate-start": "SLP2D v1\nstart A\nA T x\nstart A\n",
    "missing-start": "SLP2D v1\nA T x\n",
    "bad-start-label": "SLP2D v1\nstart a-b\nA T x\n",
    "missing-opcode": "SLP2D v1\nstart A\nA T x\nB\n",
    "unknown-opcode": "SLP2D v1\nstart A\nA T x\nB Q A A\n",
    "holed-opcode-in-plain": "SLP2D v1\nstart A\nA T x\nB HH L A 1 1\n",
    "arity": "SLP2D v1\nstart A\nA T x\nB H A\n",
    "long-payload": "SLP2D v1\nstart A\nA T xy\n",
    "bad-side": "TSLP2D v1\nstart A\nA T x\nB CV L B A\n",
    "bad-integer": "TSLP2D v1\nstart A\nA T x\nB HV T A 1 1.0\n",
    "bad-reference": "SLP2D v1\nstart A\nA T x\nB H A a.b\n",
    "redefinition": "SLP2D v1\nstart A\nA T x\nB T y\nA T z\n",
    "two-faults-label-after-opcode":
        "SLP2D v1\nstart A\nA Q x\nB-1 T y\n",
    "two-faults-reference-after-opcode":
        "SLP2D v1\nstart A\nA Q x\nB H A c-d\n",
    "two-faults-side-before-reference":
        "TSLP2D v1\nstart A\nA T x\nB HH M c-d 1 1\nC H A e-f\n",
    "two-faults-redefined-before-bad-label":
        "SLP2D v1\nstart A\nA T x\nA T y\n!B T z\n",
}


class TestAgainstReference:
    """The parser agrees with the line-at-a-time reference parser: an equal
    grammar, or a FormatError with the identical message."""

    def test_corpus_texts(self, small_corpus):
        for name, g in small_corpus + acceptance_corpus():
            text = emit_grammar(g)
            assert _outcome(parse_grammar, text) == _outcome(reference_parse, text), name

    @pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
    def test_hand_written(self, name):
        text = HAND_WRITTEN[name]
        assert _outcome(parse_grammar, text) == _outcome(reference_parse, text)

    def test_fuzz_mutants(self, fuzz_texts):
        rejected = 0
        for name, text in fuzz_texts:
            want = _outcome(reference_parse, text)
            assert _outcome(parse_grammar, text) == want, (name, text)
            rejected += want[0] == "FormatError"
        # The mutants reach both outcomes.
        assert 0 < rejected < len(fuzz_texts)

    def test_bad_start_label_names_its_line(self):
        with pytest.raises(FormatError, match=r"^line 2: bad label 'a-b'$"):
            parse_grammar(HAND_WRITTEN["bad-start-label"])

    def test_undefined_labels_trail_in_reference_order(self):
        g = parse_grammar(HAND_WRITTEN["forward-and-undefined"])
        assert g.labels == ("R", "B", "A", "C", "U2", "U1", "U3")
        assert g.rules[4:] == (None, None, None)
