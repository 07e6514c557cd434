"""Unit tests for the C lexer."""

import pytest

from repro.frontend import lexer as L


def kinds(source):
    return [(t.kind, t.value) for t in L.tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        toks = L.tokenize("")
        assert len(toks) == 1
        assert toks[0].kind == L.EOF

    def test_identifier(self):
        assert kinds("hello") == [(L.ID, "hello")]

    def test_identifier_with_underscores_and_digits(self):
        assert kinds("_foo_42") == [(L.ID, "_foo_42")]

    def test_keywords_recognized(self):
        for kw in ("int", "while", "volatile", "struct", "return"):
            assert kinds(kw) == [(L.KEYWORD, kw)]

    def test_keyword_prefix_is_identifier(self):
        assert kinds("integer") == [(L.ID, "integer")]

    def test_adjacent_tokens(self):
        assert kinds("int x;") == [(L.KEYWORD, "int"), (L.ID, "x"),
                                   (L.PUNCT, ";")]


class TestNumbers:
    def test_decimal_int(self):
        tok = L.tokenize("42")[0]
        assert tok.kind == L.INT_CONST and tok.int_value == 42

    def test_hex_int(self):
        tok = L.tokenize("0x1F")[0]
        assert tok.int_value == 31

    def test_octal_int(self):
        tok = L.tokenize("0o17" .replace("o", ""))[0]
        assert tok.int_value == 0o17

    def test_zero(self):
        assert L.tokenize("0")[0].int_value == 0

    def test_float_simple(self):
        tok = L.tokenize("3.25")[0]
        assert tok.kind == L.FLOAT_CONST and tok.float_value == 3.25

    def test_float_trailing_dot(self):
        tok = L.tokenize("2.")[0]
        assert tok.kind == L.FLOAT_CONST and tok.float_value == 2.0

    def test_float_leading_dot(self):
        tok = L.tokenize(".5")[0]
        assert tok.kind == L.FLOAT_CONST and tok.float_value == 0.5

    def test_float_exponent(self):
        tok = L.tokenize("1e3")[0]
        assert tok.kind == L.FLOAT_CONST and tok.float_value == 1000.0

    def test_float_negative_exponent(self):
        tok = L.tokenize("2.5e-2")[0]
        assert tok.float_value == pytest.approx(0.025)

    def test_float_suffix_f(self):
        tok = L.tokenize("1.5f")[0]
        assert tok.kind == L.FLOAT_CONST and tok.suffix == "f"

    def test_int_suffixes(self):
        tok = L.tokenize("10UL")[0]
        assert tok.kind == L.INT_CONST and tok.suffix == "ul"

    def test_integer_then_member_access(self):
        # `1.x` should not occur, but `a.b` after a number must split.
        toks = kinds("f(1).x" .replace("f(1)", "v"))
        assert toks == [(L.ID, "v"), (L.PUNCT, "."), (L.ID, "x")]


class TestCharAndString:
    def test_char_literal(self):
        assert L.tokenize("'A'")[0].int_value == 65

    def test_char_escape_newline(self):
        assert L.tokenize(r"'\n'")[0].int_value == 10

    def test_char_escape_hex(self):
        assert L.tokenize(r"'\x41'")[0].int_value == 0x41

    def test_char_escape_octal(self):
        assert L.tokenize(r"'\101'")[0].int_value == 0o101

    def test_string_literal(self):
        tok = L.tokenize('"hello"')[0]
        assert tok.kind == L.STRING and tok.value == "hello"

    def test_string_with_escapes(self):
        tok = L.tokenize(r'"a\tb\n"')[0]
        assert tok.value == "a\tb\n"

    def test_unterminated_string_raises(self):
        with pytest.raises(L.LexError):
            L.tokenize('"oops')

    def test_unterminated_char_raises(self):
        with pytest.raises(L.LexError):
            L.tokenize("'a")

    def test_raw_newline_ends_a_literal_unterminated(self):
        # C11 6.4.4.4p1 / 6.4.5p1: no c-char or s-char is a new-line.
        # Reported at the opening quote, like any unterminated literal.
        with pytest.raises(L.LexError) as caught:
            L.tokenize('int x;\nchar *s = "ab\ncd";', "f.c")
        assert str(caught.value) == "f.c:2:11: unterminated string literal"
        with pytest.raises(L.LexError) as caught:
            L.tokenize("c = '\n';", "f.c")
        assert str(caught.value) == \
            "f.c:1:5: unterminated character constant"
        assert L.tokenize("'\\n'")[0].int_value == 10  # the escape is fine

    def test_hex_escape_without_digits_raises_lexerror(self):
        # Regression: this used to escape as a raw ValueError from
        # int('', 16) instead of a clean diagnostic.
        with pytest.raises(L.LexError, match="no following hex digits"):
            L.tokenize(r'"\x"')
        with pytest.raises(L.LexError, match="no following hex digits"):
            L.tokenize(r"'\x'")

    def test_hex_escape_0xff_boundary(self):
        assert L.tokenize(r"'\xff'")[0].int_value == 0xFF
        assert L.tokenize(r'"\xff"')[0].value == "\xff"
        with pytest.raises(L.LexError, match="out of range"):
            L.tokenize(r"'\x100'")
        with pytest.raises(L.LexError, match="out of range"):
            L.tokenize(r'"\x1234"')

    def test_octal_escape_0xff_boundary(self):
        assert L.tokenize(r"'\377'")[0].int_value == 0xFF
        assert L.tokenize(r'"\377"')[0].value == "\xff"
        with pytest.raises(L.LexError, match="out of range"):
            L.tokenize(r"'\400'")
        with pytest.raises(L.LexError, match="out of range"):
            L.tokenize(r'"\777"')

    def test_octal_escape_rejects_digits_8_and_9(self):
        # int('\8', 8) used to raise a raw ValueError.
        with pytest.raises(L.LexError, match="octal"):
            L.tokenize(r"'\8'")
        with pytest.raises(L.LexError, match="octal"):
            L.tokenize(r'"\9"')


class TestPunctuators:
    def test_maximal_munch_shift_assign(self):
        assert kinds("x <<= 2") == [(L.ID, "x"), (L.PUNCT, "<<="),
                                    (L.INT_CONST, "2")]

    def test_arrow_vs_minus(self):
        assert kinds("p->x") == [(L.ID, "p"), (L.PUNCT, "->"),
                                 (L.ID, "x")]
        assert kinds("p - >x" .replace(" ", ""))[1] == (L.PUNCT, "->")

    def test_increment(self):
        assert kinds("i++") == [(L.ID, "i"), (L.PUNCT, "++")]

    def test_ellipsis(self):
        assert kinds("...")[0] == (L.PUNCT, "...")

    def test_all_single_char_punctuators(self):
        for p in "+-*/%=<>!~&|^?:;,.()[]{}":
            assert kinds(p) == [(L.PUNCT, p)]

    def test_stray_character_raises(self):
        with pytest.raises(L.LexError):
            L.tokenize("int @ x")


class TestCommentsAndPragmas:
    def test_block_comment_skipped(self):
        assert kinds("a /* comment */ b") == [(L.ID, "a"), (L.ID, "b")]

    def test_block_comment_multiline(self):
        assert kinds("a /* x\n y \n z*/ b") == [(L.ID, "a"), (L.ID, "b")]

    def test_line_comment_skipped(self):
        assert kinds("a // rest\nb") == [(L.ID, "a"), (L.ID, "b")]

    def test_unterminated_comment_raises(self):
        with pytest.raises(L.LexError):
            L.tokenize("/* never closed")

    def test_pragma_token(self):
        toks = L.tokenize("#pragma safe\nint x;")
        assert toks[0].kind == L.PRAGMA and toks[0].value == "safe"

    def test_coordinates_track_lines(self):
        toks = L.tokenize("a\n  b")
        assert toks[0].coord.line == 1
        assert toks[1].coord.line == 2 and toks[1].coord.column == 3
