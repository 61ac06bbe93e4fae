"""Tokenizer for the Verilog subset.

Handles identifiers, keywords, sized and unsized numeric literals
(``8'hFF``, ``4'b1010``, ``'d15``, ``42``), all operators used by the
subset (including ``<=``, which the parser disambiguates between
non-blocking assignment and less-equal by context), and ``//`` and
``/* */`` comments.

One master regular expression scans the text: each alternative is a
token class, tried in priority order at every position.  An
unterminated block comment (ahead of the ``/`` operator) and any stray
character are alternatives too, so both raise a :class:`LexError` with
their line number.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple


class LexError(ValueError):
    """Bad input character or malformed literal, with line info."""


class TokenKind(enum.Enum):
    IDENT = "ident"
    NUMBER = "number"
    KEYWORD = "keyword"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset({
    "module", "endmodule", "input", "output", "inout", "wire", "reg",
    "assign", "always", "posedge", "negedge", "if", "else", "begin", "end",
})

#: Multi-character punctuation, longest first so maximal munch works.
_PUNCTUATION = (
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "(", ")", "[", "]", "{", "}", ",", ";", ":", ".", "@",
    "=", "+", "-", "*", "&", "|", "^", "~", "!", "<", ">", "?", "/", "%",
)

_SCANNER = re.compile(
    r"(?P<skip>(?:\s+|//[^\n]*|/\*.*?\*/)+)"
    r"|(?P<open_comment>/\*)"
    r"|(?P<sized>(?P<width>\d+)?'(?P<base>[bdhoBDHO])"
    r"(?P<digits>[0-9a-fA-F_xXzZ?]+))"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_$]*)"
    r"|(?P<number>\d[\d_]*)"
    r"|(?P<punct>" + "|".join(map(re.escape, _PUNCTUATION)) + ")"
    r"|(?P<bad>.)",
    re.DOTALL,
)
_UNKNOWN_BITS = re.compile(r"[xXzZ?]")

_BASE_RADIX = {"b": 2, "d": 10, "h": 16, "o": 8}


class Token(NamedTuple):
    kind: TokenKind
    text: str
    value: int | None  # for numbers
    width: int | None  # for sized numbers
    line: int


class Lexer:
    """One-pass tokenizer; produces a list ending with an EOF token."""

    def __init__(self, text: str):
        self.text = text

    def tokenize(self) -> list[Token]:
        text = self.text
        tokens: list[Token] = []
        append = tokens.append
        line = 1
        for match in _SCANNER.finditer(text):
            group = match.lastgroup
            word = match.group()
            if group == "skip":
                line += word.count("\n")
            elif group == "ident":
                kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT
                append(Token(kind, word, None, None, line))
            elif group == "punct":
                append(Token(TokenKind.PUNCT, word, None, None, line))
            elif group == "number":
                append(Token(TokenKind.NUMBER, word, int(word.replace("_", "")),
                             None, line))
            elif group == "sized":
                append(_sized(match, line))
            elif group == "open_comment":
                raise LexError(f"line {line}: unterminated block comment")
            else:
                raise LexError(f"line {line}: unexpected character {word!r}")
        append(Token(TokenKind.EOF, "", None, None, line))
        return tokens


def _sized(match: re.Match, line: int) -> Token:
    width_text, base, digits = match.group("width", "base", "digits")
    # Unknown/high-Z bits are treated as 0 (two-state simulation).
    cleaned = _UNKNOWN_BITS.sub("0", digits.replace("_", ""))
    try:
        value = int(cleaned, _BASE_RADIX[base.lower()])
    except ValueError:
        raise LexError(
            f"line {line}: bad digits {digits!r} for base {base!r}"
        ) from None
    width = int(width_text) if width_text else None
    return Token(TokenKind.NUMBER, match.group(), value, width, line)
