"""The character-loop lexer `repro.frontend.lexer` replaced, kept as
the oracle for ``tests/test_lexer_equivalence.py``.

Verbatim from the last commit that shipped it, with two patches
(marked ``# patched`` below).  The hex escape loop tested
``self._peek() in "0123...F"``, and ``"" in "..."`` is true at end of
input, so ``'\\x`` at EOF never returned: the loop now stops at EOF.
And a raw new-line inside a string literal or character constant now
ends it unterminated, as C11 6.4.4.4p1 and 6.4.5p1 say and as the
lexer it is compared with does.  Nothing else differs,
including the defects the equivalence test works around (a raw
``ValueError`` out of ``int()``/``float()`` on ``0x1uf`` or an escape
made of non-ASCII digits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.frontend.c_ast import Coord


class LexError(Exception):
    def __init__(self, message: str, coord: Coord):
        super().__init__(f"{coord}: {message}")
        self.coord = coord


KEYWORDS = {
    "auto", "break", "case", "char", "const", "continue", "default", "do",
    "double", "else", "enum", "extern", "float", "for", "goto", "if", "int",
    "long", "register", "return", "short", "signed", "sizeof", "static",
    "struct", "switch", "typedef", "union", "unsigned", "void", "volatile",
    "while",
}

# Multi-character punctuators, longest first so maximal munch works.
PUNCTUATORS = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]

# Token kinds.
ID = "id"
KEYWORD = "keyword"
INT_CONST = "int"
FLOAT_CONST = "float"
CHAR_CONST = "char"
STRING = "string"
PUNCT = "punct"
PRAGMA = "pragma"
EOF = "eof"

_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}


@dataclass
class Token:
    kind: str
    value: str
    coord: Coord
    # Decoded payload for constants.
    int_value: int = 0
    float_value: float = 0.0
    suffix: str = ""

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r})"

    def is_punct(self, text: str) -> bool:
        return self.kind == PUNCT and self.value == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == KEYWORD and self.value == text


class Lexer:
    """Tokenizes one (already preprocessed) source string."""

    def __init__(self, source: str, filename: str = "<input>"):
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.col = 1

    # -- low-level character handling -------------------------------------

    def _coord(self) -> Coord:
        return Coord(self.filename, self.line, self.col)

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.source[i] if i < len(self.source) else ""

    def _advance(self, count: int = 1) -> str:
        text = self.source[self.pos:self.pos + count]
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += count
        return text

    def _skip_space_and_comments(self) -> Optional[Token]:
        """Skip whitespace/comments; may return a PRAGMA token."""
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n\f\v":
                self._advance()
            elif ch == "/" and self._peek(1) == "*":
                coord = self._coord()
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if self.pos >= len(self.source):
                        raise LexError("unterminated comment", coord)
                    self._advance()
                self._advance(2)
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "#":
                # Only #pragma survives preprocessing; pass it through as
                # a token so the parser can attach it to the next loop.
                coord = self._coord()
                start = self.pos
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
                text = self.source[start:self.pos].strip()
                if text.startswith("#pragma"):
                    return Token(PRAGMA, text[len("#pragma"):].strip(), coord)
                if text.startswith("#"):
                    raise LexError(f"unexpected directive {text!r} after "
                                   "preprocessing", coord)
            else:
                return None
        return None

    # -- token scanners ----------------------------------------------------

    def _scan_number(self) -> Token:
        coord = self._coord()
        start = self.pos
        is_float = False
        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
        else:
            while self._peek().isdigit():
                self._advance()
            if self._peek() == "." and self._peek(1).isdigit() or (
                    self._peek() == "." and self.source[start:self.pos]):
                is_float = True
                self._advance()
                while self._peek().isdigit():
                    self._advance()
            if self._peek() in "eE" and (
                    self._peek(1).isdigit()
                    or (self._peek(1) in "+-" and self._peek(2).isdigit())):
                is_float = True
                self._advance()
                if self._peek() in "+-":
                    self._advance()
                while self._peek().isdigit():
                    self._advance()
        body = self.source[start:self.pos]
        suffix_start = self.pos
        while self._peek() and self._peek() in "uUlLfF":
            self._advance()
        suffix = self.source[suffix_start:self.pos].lower()
        if "f" in suffix:
            is_float = True
        if is_float:
            return Token(FLOAT_CONST, body + suffix, coord,
                         float_value=float(body), suffix=suffix)
        try:
            if body.startswith("0") and body not in ("0",) \
                    and not body.lower().startswith("0x"):
                value = int(body, 8)  # C octal: 017 == 15
            else:
                value = int(body, 0)
        except ValueError as exc:
            raise LexError(f"malformed number {body!r}", coord) from exc
        return Token(INT_CONST, body + suffix, coord,
                     int_value=value, suffix=suffix)

    def _scan_escape(self, coord: Coord) -> int:
        """Decode one escape sequence (the backslash is consumed).

        Out-of-range sequences are diagnosed rather than silently
        producing code points a ``char`` cannot hold: ``\\x`` needs at
        least one hex digit, and both hex and octal escapes must fit in
        one byte (0..0xFF) — the same constraint-violation diagnostics
        gcc/clang issue.
        """
        esc = self._advance()
        if esc == "x":
            digits = ""
            while self._peek() and \
                    self._peek() in "0123456789abcdefABCDEF":  # patched
                digits += self._advance()
            if not digits:
                raise LexError("\\x used with no following hex digits",
                               coord)
            value = int(digits, 16)
            if value > 0xFF:
                raise LexError(f"hex escape \\x{digits} out of range "
                               f"(max \\xff)", coord)
            return value
        if esc.isdigit():
            digits = esc
            while self._peek().isdigit() and len(digits) < 3:
                digits += self._advance()
            if any(d in "89" for d in digits):
                raise LexError(f"invalid digit in octal escape "
                               f"\\{digits}", coord)
            value = int(digits, 8)
            if value > 0xFF:
                raise LexError(f"octal escape \\{digits} out of range "
                               f"(max \\377)", coord)
            return value
        if esc in _ESCAPES:
            return ord(_ESCAPES[esc])
        raise LexError(f"unknown escape \\{esc}", coord)

    def _scan_char(self) -> Token:
        coord = self._coord()
        self._advance()  # opening '
        ch = self._peek()
        if ch == "\\":
            self._advance()
            value = self._scan_escape(coord)
        elif ch in ("", "\n"):  # patched: a raw new-line ends it too
            raise LexError("unterminated character constant", coord)
        else:
            value = ord(self._advance())
        if self._peek() != "'":
            raise LexError("unterminated character constant", coord)
        self._advance()
        return Token(CHAR_CONST, f"'{chr(value)!r}'", coord, int_value=value)

    def _scan_string(self) -> Token:
        coord = self._coord()
        self._advance()  # opening "
        out = []
        while True:
            ch = self._peek()
            if ch in ("", "\n"):  # patched: a raw new-line ends it too
                raise LexError("unterminated string literal", coord)
            if ch == '"':
                self._advance()
                break
            if ch == "\\":
                self._advance()
                out.append(chr(self._scan_escape(coord)))
            else:
                out.append(self._advance())
        return Token(STRING, "".join(out), coord)

    def _scan_ident(self) -> Token:
        coord = self._coord()
        start = self.pos
        while self._peek() and (self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        name = self.source[start:self.pos]
        kind = KEYWORD if name in KEYWORDS else ID
        return Token(kind, name, coord)

    # -- driver -------------------------------------------------------------

    def next_token(self) -> Token:
        pragma = self._skip_space_and_comments()
        if pragma is not None:
            return pragma
        if self.pos >= len(self.source):
            return Token(EOF, "", self._coord())
        ch = self._peek()
        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            return self._scan_number()
        if ch == "'":
            return self._scan_char()
        if ch == '"':
            return self._scan_string()
        if ch.isalpha() or ch == "_":
            return self._scan_ident()
        coord = self._coord()
        for punct in PUNCTUATORS:
            if self.source.startswith(punct, self.pos):
                self._advance(len(punct))
                return Token(PUNCT, punct, coord)
        raise LexError(f"stray character {ch!r}", coord)

    def tokens(self) -> Iterator[Token]:
        while True:
            tok = self.next_token()
            yield tok
            if tok.kind == EOF:
                return


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Tokenize ``source`` fully (including the trailing EOF token)."""
    return list(Lexer(source, filename).tokens())
