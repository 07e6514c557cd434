"""Lexer for the C subset: one compiled master pattern.

The token stream is the interface between the preprocessor and the parser.
Tokens carry source coordinates so diagnostics from any later phase (even
the vectorizer) can point back at the source line.

Every token, comment and run of white space is one alternative of
:func:`_master`; ``finditer`` walks the text match by match and a table
of line starts turns a match offset into ``line:col``.  The character
loop this replaced lives on as ``tests/support/reference_lexer.py``, the
oracle of ``tests/test_lexer_equivalence.py``: token streams and
diagnostics are the same, byte for byte.  :func:`tokenize_line` runs
the same scan over one line, for :mod:`repro.service.cache`.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import List, Tuple

from .c_ast import Coord


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


#: Non-ASCII word characters.  The old loop classified characters with
#: ``str.isdigit`` / ``isalpha`` / ``isalnum``; ``\w`` is exactly
#: ``isalnum`` plus ``_``, but ``re`` has no class for the other two, so
#: the few such characters a text holds are classified one by one and
#: spliced into the pattern.
_NON_ASCII_WORD = re.compile(r"[^\W\x00-\x7f]")
#: One escape sequence: what follows the backslash is hex digits, up to
#: three word characters (an octal escape is the digits leading them),
#: or any one character -- none at end of input.
_ESCAPE = re.compile(r"\\(x[0-9a-fA-F]*|\w{1,3}|[\s\S]?)")
#: Up to a quote, an escape or a new-line (C11 6.4.5p1).
_STRING_TEXT = re.compile(r'[^"\\\n]*')


@lru_cache(maxsize=16)
def _master(digits: str, others: str) -> "re.Pattern[str]":
    """The master pattern for a text whose non-ASCII ``str.isdigit``
    characters are ``digits`` and whose other non-ASCII alphanumerics
    that are not letters are ``others`` (both empty for ASCII text).
    No alternative repeats a group, so matching never stacks up state
    in proportion to the input."""
    d = f"[0-9{digits}]"
    punct = "|".join(map(re.escape, PUNCTUATORS))
    return re.compile(rf"""
        [ \t\r\n\f\v]+ | //[^\n]* | /\*[\s\S]*?\*/
      | (?P<id>[^\W0-9{digits}{others}]\w*)
      | (?P<number>(?P<body>0[xX][0-9a-fA-F]*
                     |(?:{d}+(?:\.{d}*)?|\.{d}+)(?:[eE][+-]?{d}+)?)
                   (?P<suffix>[uUlLfF]*))
      | (?P<quote>["'])
      | (?P<directive>\#[^\n]*)
      | (?P<comment>/\*)
      | (?P<punct>{punct})
      | (?P<stray>[\s\S])
    """, re.VERBOSE)


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Tokenize ``source`` fully (including the trailing EOF token)."""
    digits = others = ""
    if not source.isascii():
        odd = sorted(set(_NON_ASCII_WORD.findall(source)))
        digits = "".join(c for c in odd if c.isdigit())
        others = "".join(c for c in odd
                         if not c.isdigit() and not c.isalpha())
    return _scan(_master(digits, others).finditer, source, filename, 1, 0,
                 True)[0]


def tokenize_line(text: str, line: int, filename: str = "<input>",
                  in_comment: bool = False) -> Tuple[List[Token], bool]:
    """The tokens of ``text``, ASCII line ``line`` of a file, lexed from
    inside a block comment iff ``in_comment``, and whether it ends so.
    No token spans a line, so a text lexed line by line this way gives
    :func:`tokenize`'s tokens (EOF aside) or its ``LexError``."""
    resume = 0
    if in_comment:
        resume = text.find("*/") + 2
        if resume < 2:
            return [], True
    return _scan(_master("", "").finditer, text, filename, line, resume,
                 False)


def _scan(scan, source: str, filename: str, first_line: int, resume: int,
          whole: bool) -> Tuple[List[Token], bool]:
    """The tokens of ``source`` from ``resume`` on, its lines numbered
    from ``first_line``, and whether it ends inside a block comment --
    an error in a ``whole`` text, whose tokens end in EOF."""
    # starts[n - 1] is the offset line n starts at; the last entry is
    # past the end of the text, so every offset has a line.
    starts = list(accumulate(
        (len(line) + 1 for line in source.split("\n")), initial=0))
    line, base, following = first_line, 0, starts[1]
    tokens: List[Token] = []
    append = tokens.append
    while True:
        for match in scan(source, resume):
            kind = match.lastgroup
            if kind is None:  # white space or a comment
                continue
            pos = match.start()
            if pos >= following:
                index = bisect_right(starts, pos)
                line = index + first_line - 1
                base, following = starts[index - 1], starts[index]
            coord = Coord(filename, line, pos - base + 1)
            text = match.group()
            if kind == "punct":
                append(Token(PUNCT, text, coord))
            elif kind == "id":
                append(Token(KEYWORD if text in KEYWORDS else ID, text,
                             coord))
            elif kind == "number":
                append(_number(match.group("body"),
                               match.group("suffix").lower(), coord))
            elif kind == "quote":
                # Only decoding a literal finds its end: the scan
                # starts again from there.
                token, resume = _literal(source, pos, coord)
                append(token)
                break
            elif kind == "directive":
                # Only #pragma survives preprocessing; pass it through
                # as a token so the parser can attach it to the next
                # loop.
                text = text.strip()
                if not text.startswith("#pragma"):
                    raise LexError(f"unexpected directive {text!r} after "
                                   "preprocessing", coord)
                append(Token(PRAGMA, text[len("#pragma"):].strip(), coord))
            elif kind == "comment":
                if not whole:
                    return tokens, True
                raise LexError("unterminated comment", coord)
            else:
                raise LexError(f"stray character {text!r}", coord)
        else:
            break
    if whole:
        line = bisect_right(starts, len(source))
        append(Token(EOF, "", Coord(filename, line,
                                    len(source) - starts[line - 1] + 1)))
    return tokens, False


def _number(body: str, suffix: str, coord: Coord) -> Token:
    is_hex = body[:2] in ("0x", "0X")
    try:
        if "f" in suffix or not is_hex and (
                "." in body or "e" in body or "E" in body):
            return Token(FLOAT_CONST, body + suffix, coord,
                         float_value=float(body), suffix=suffix)
        if body.startswith("0") and body != "0" and not is_hex:
            value = int(body, 8)  # C octal: 017 == 15
        else:
            value = int(body, 0)
    except ValueError as exc:
        raise LexError(f"malformed number {body!r}", coord) from exc
    return Token(INT_CONST, body + suffix, coord,
                 int_value=value, suffix=suffix)


def _literal(source: str, start: int, coord: Coord) -> Tuple[Token, int]:
    """The string or character literal that opens at ``start``, and the
    offset just past it.  Decoded left to right, so what is reported
    is the first thing wrong with it."""
    if source[start] == "'":
        escape = _ESCAPE.match(source, start + 1)
        if escape is None:  # C11 6.4.4.4p1: no c-char is a new-line
            value, end = source[start + 1:start + 2].strip("\n"), start + 2
        else:
            value, end = _unescape(escape.group(1), coord), escape.end()
        if len(value) != 1 or source[end:end + 1] != "'":
            raise LexError("unterminated character constant", coord)
        return Token(CHAR_CONST, f"'{value!r}'", coord,
                     int_value=ord(value)), end + 1
    pieces = []
    pos = start + 1
    while True:
        end = _STRING_TEXT.match(source, pos).end()
        pieces.append(source[pos:end])
        if source[end:end + 1] == '"':
            return Token(STRING, "".join(pieces), coord), end + 1
        escape = _ESCAPE.match(source, end)
        if escape is None:
            raise LexError("unterminated string literal", coord)
        pieces.append(_unescape(escape.group(1), coord))
        pos = escape.end()


def _unescape(run: str, coord: Coord) -> str:
    """Decode the escape sequence that ``run``, the :data:`_ESCAPE`
    match past its backslash, starts with; word characters matched
    beyond the sequence's end come back behind the decoded character.

    Out-of-range sequences are diagnosed rather than silently
    producing code points a ``char`` cannot hold: ``\\x`` needs at
    least one hex digit, and both hex and octal escapes must fit in
    one byte (0..0xFF) — the same constraint-violation diagnostics
    gcc/clang issue.
    """
    if run[:1] == "x":
        digits = run[1:]
        if not digits:
            raise LexError("\\x used with no following hex digits", coord)
        value = int(digits, 16)
        if value > 0xFF:
            raise LexError(f"hex escape \\x{digits} out of range "
                           f"(max \\xff)", coord)
        return chr(value)
    count = 0
    while count < len(run) and run[count].isdigit():
        count += 1
    if count:
        digits = run[:count]
        try:
            value = int(digits, 8)
        except ValueError as exc:
            raise LexError(f"invalid digit in octal escape \\{digits}",
                           coord) from exc
        if value > 0xFF:
            raise LexError(f"octal escape \\{digits} out of range "
                           f"(max \\377)", coord)
        return chr(value) + run[count:]
    if run[:1] in _ESCAPES:
        return _ESCAPES[run[0]] + run[1:]
    raise LexError(f"unknown escape \\{run[:1]}", coord)
