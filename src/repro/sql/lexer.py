"""SQL tokenizer.

Produces a flat token stream for the recursive-descent parser.  Keywords are
case-insensitive; identifiers are lower-cased; string literals use single
quotes with ``''`` escaping, as in standard SQL.

One compiled master pattern scans the text: each match is a run of
whitespace and ``--`` comments followed by one token, found by its named
group, so the whole scan is one ``finditer`` pass with no per-character
Python loop.  The ``other`` group matches any one character no token
starts with, which is how an illegal character or an unterminated string
surfaces; the empty alternative at the end of the text ends the scan.
"""

from __future__ import annotations

import enum
import re

from repro.common.errors import ParseError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "INSERT", "INTO",
    "VALUES", "UPDATE", "SET", "DELETE", "CREATE", "DROP", "TABLE", "INDEX",
    "ON", "USING", "UNIQUE", "NULL", "TRUE", "FALSE", "JOIN", "INNER",
    "LEFT", "CROSS", "GROUP", "BY", "ORDER", "ASC", "DESC", "LIMIT",
    "OFFSET", "AS", "DISTINCT", "IN", "IS", "BETWEEN", "LIKE", "EXISTS",
    "IF", "ANALYZE", "EXPLAIN", "BEGIN", "COMMIT", "ROLLBACK",
    # AI analytics extension (paper §2.3)
    "PREDICT", "VALUE", "CLASS", "OF", "TRAIN", "WITH",
}


class TokenType(enum.Enum):
    KEYWORD = "KEYWORD"
    IDENT = "IDENT"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    PUNCT = "PUNCT"
    EOF = "EOF"


class Token:
    """One token; ``position`` is the offset of its first character."""

    __slots__ = ("type", "value", "position")

    def __init__(self, type: TokenType, value: str, position: int):
        self.type = type
        self.value = value
        self.position = position

    def __repr__(self) -> str:
        return (f"Token({self.type.name}, {self.value!r}, "
                f"{self.position})")

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in names


# A number is a digit (or a dot before a digit) followed by digits, dots
# and exponent markers, each marker optionally signed; malformed spellings
# such as ``1.2.3`` or ``1e`` are one NUMBER token the parser rejects.  A
# string ends at a quote not followed by another (``''`` is an escaped
# quote), so ``'it''`` is unterminated rather than ``'it'`` plus ``'``.
_MASTER = re.compile(r"""
    \s*(?:--[^\n]*\s*)*
    (?: (?P<string>'[^']*(?:''[^']*)*'(?!'))
      | (?P<number>(?:\d|\.\d)[\d.]*(?:[eE][+-]?[\d.]*)*)
      | (?P<word>[^\W\d]\w*)
      | (?P<operator><>|<=|>=|!=|[=<>+\-*/%])
      | (?P<punct>[(),.;])
      | (?P<other>.)
      | \Z )
""", re.VERBOSE | re.DOTALL)

# groups whose text is the token value as is
_VERBATIM = {"number": TokenType.NUMBER, "operator": TokenType.OPERATOR,
             "punct": TokenType.PUNCT}


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql``; raises :class:`ParseError` on an illegal character
    or an unterminated string literal."""
    tokens: list[Token] = []
    append = tokens.append
    for match in _MASTER.finditer(sql):
        kind = match.lastgroup
        verbatim = _VERBATIM.get(kind)
        if verbatim is not None:
            append(Token(verbatim, match.group(kind), match.start(kind)))
            continue
        if kind is None:  # the end of the text
            break
        text = match.group(kind)
        start = match.start(kind)
        if kind == "word":
            upper = text.upper()
            if upper in KEYWORDS:
                append(Token(TokenType.KEYWORD, upper, start))
            else:
                append(Token(TokenType.IDENT, text.lower(), start))
        elif kind == "string":
            append(Token(TokenType.STRING, text[1:-1].replace("''", "'"),
                         start))
        elif text == "'":
            raise ParseError(
                f"unterminated string literal starting at {start}", start)
        else:
            raise ParseError(
                f"illegal character {text!r} at position {start}", start)
    append(Token(TokenType.EOF, "", len(sql)))
    return tokens
