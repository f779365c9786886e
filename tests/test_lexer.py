"""Tests for the Verilog-subset lexer."""

import pytest

from repro.diag import DiagnosticSink
from repro.hdl.lexer import LexerError, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def texts(text):
    return [t.text for t in tokenize(text)]


class TestBasicTokens:
    def test_keywords_recognized(self):
        tokens = tokenize("module endmodule always begin end")
        assert all(t.kind == "keyword" for t in tokens)

    def test_identifier(self):
        (token,) = tokenize("my_signal")
        assert token.kind == "ident"
        assert token.text == "my_signal"

    def test_dotted_identifier_is_single_token(self):
        # Flattened hierarchy names stay whole.
        (token,) = tokenize("inst.sub.signal")
        assert token.kind == "ident"
        assert token.text == "inst.sub.signal"

    def test_system_name(self):
        (token,) = tokenize("$display")
        assert token.kind == "sysname"

    def test_identifier_with_dollar(self):
        (token,) = tokenize("sig$tap")
        assert token.kind == "ident"

    def test_operators_maximal_munch(self):
        assert texts("a <= b") == ["a", "<=", "b"]
        assert texts("a << 2") == ["a", "<<", "2"]
        assert texts("a <<< 2") == ["a", "<<<", "2"]

    def test_indexed_part_select_operators(self):
        assert "+:" in texts("a[b +: 4]")
        assert "-:" in texts("a[b -: 4]")

    def test_string_token(self):
        (token,) = tokenize('"hello %d"')
        assert token.kind == "string"
        assert token.text == "hello %d"


class TestNumbers:
    def test_plain_decimal(self):
        (token,) = tokenize("42")
        assert token.kind == "number"
        assert token.value == 42
        assert token.width is None

    def test_underscores_ignored(self):
        (token,) = tokenize("1_000_000")
        assert token.value == 1000000

    def test_sized_hex(self):
        (token,) = tokenize("8'hFF")
        assert token.value == 255
        assert token.width == 8

    def test_sized_binary(self):
        (token,) = tokenize("4'b1010")
        assert token.value == 10
        assert token.width == 4

    def test_sized_octal(self):
        (token,) = tokenize("6'o77")
        assert token.value == 63

    def test_sized_decimal(self):
        (token,) = tokenize("10'd512")
        assert token.value == 512
        assert token.width == 10

    def test_signed_marker(self):
        (token,) = tokenize("8'sh7F")
        assert token.signed
        assert token.value == 127

    def test_x_and_z_digits_read_as_zero(self):
        # Two-state simulation: unknown digits collapse to 0.
        (token,) = tokenize("4'b1x0z")
        assert token.value == 0b1000

    def test_unsized_based_literal(self):
        (token,) = tokenize("'h1F")
        assert token.value == 31
        assert token.width is None


class TestCommentsAndLines:
    def test_line_comment_skipped(self):
        assert texts("a // comment\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert texts("a /* stuff \n more */ b") == ["a", "b"]

    def test_line_numbers_tracked(self):
        tokens = tokenize("a\nb\n\nc")
        assert [t.lineno for t in tokens] == [1, 2, 4]

    def test_line_numbers_across_block_comment(self):
        tokens = tokenize("/* one\ntwo */ x")
        assert tokens[0].lineno == 2

    def test_bad_character_raises(self):
        with pytest.raises(LexerError):
            tokenize("a ` b")

    def test_real_literal_rejected(self):
        with pytest.raises(LexerError):
            tokenize("3.14")


def positions(text):
    return [(t.text, t.lineno, t.col) for t in tokenize(text)]


class TestPositions:
    """Line and column after whatever the token pattern skips."""

    def test_token_after_multiline_block_comment(self):
        assert positions("a /* x\n  yy */ b") == [("a", 1, 1), ("b", 2, 9)]

    def test_comment_runs_between_tokens(self):
        text = "a // one\n/* two\n */ // three\n\n   b"
        assert positions(text) == [("a", 1, 1), ("b", 5, 4)]

    def test_string_with_newline_and_the_token_after_it(self):
        tokens = tokenize('x "ab\ncd" y\n  z')
        assert [(t.kind, t.text, t.lineno, t.col) for t in tokens] == [
            ("ident", "x", 1, 1),
            ("string", "ab\ncd", 1, 3),
            ("ident", "y", 2, 5),
            ("ident", "z", 3, 3),
        ]

    def test_string_ending_a_line(self):
        assert positions('"a\nb"\n  z')[1] == ("z", 3, 3)

    def test_escaped_newline_in_string_counts_as_a_line(self):
        assert positions('"a\\\nb" z')[1] == ("z", 2, 4)

    def test_token_at_eof_without_trailing_newline(self):
        assert positions("a\nbc") == [("a", 1, 1), ("bc", 2, 1)]
        assert positions("x = 8'hff;")[-1] == (";", 1, 10)

    def test_trailing_whitespace_and_comment_make_no_token(self):
        assert positions("a  \n // tail") == [("a", 1, 1)]
        assert tokenize("  /* only */ \n") == []

    def test_unterminated_block_comment_lexes_as_operators(self):
        assert texts("a /* b") == ["a", "/", "*", "b"]


class TestErrorPositions:
    """``P0101``/``P0102`` spans, strict (raise) and sink (record) modes."""

    def test_bad_character_strict(self):
        with pytest.raises(LexerError) as info:
            tokenize("a\n  ` b", filename="t.v")
        assert info.value.code == "P0101"
        assert str(info.value) == "t.v:2:3: error[P0101]: unexpected character '`'"
        (diagnostic,) = info.value.diagnostics
        assert (diagnostic.span.line, diagnostic.span.col) == (2, 3)

    def test_real_literal_strict(self):
        with pytest.raises(LexerError) as info:
            tokenize("/* c\n */ x = 3.14;", filename="t.v")
        assert info.value.code == "P0102"
        assert str(info.value).startswith("t.v:2:9: error[P0102]: ")

    def test_sink_records_every_error_and_keeps_lexing(self):
        sink = DiagnosticSink()
        tokens = tokenize("` a\n  1.5 b `", filename="t.v", sink=sink)
        assert [(t.text, t.lineno, t.col) for t in tokens] == [
            ("a", 1, 3), ("b", 2, 7),
        ]
        assert [(d.code, d.span.line, d.span.col) for d in sink] == [
            ("P0101", 1, 1), ("P0102", 2, 3), ("P0101", 2, 9),
        ]

    def test_bad_character_after_multiline_string(self):
        sink = DiagnosticSink()
        tokenize('"x\ny" `', sink=sink)
        assert [(d.span.line, d.span.col) for d in sink] == [(2, 4)]
