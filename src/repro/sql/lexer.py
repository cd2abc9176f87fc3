"""SQL tokeniser.

Produces a flat token stream for the recursive-descent parser.  Keywords
are case-insensitive; identifiers keep their original case.  String
literals use single quotes with ``''`` escaping; double-quoted identifiers
are supported for columns containing special characters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.sql.errors import ParseError

KEYWORDS = frozenset({
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "AS", "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE", "IS", "NULL",
    "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER", "CROSS", "ON",
    "UNION", "ALL", "ASC", "DESC", "DISTINCT", "CASE", "WHEN", "THEN",
    "ELSE", "END", "TRUE", "FALSE", "CAST", "OVER", "PARTITION", "ROWS",
    "OFFSET", "EXISTS",
})

# Multi-character operators first so the scanner is greedy.
_OPERATORS = ("<>", "!=", "<=", ">=", "||", "<", ">", "=", "+", "-", "*",
              "/", "%", "(", ")", ",", ".", "[", "]")


@dataclass(frozen=True)
class Token:
    """One lexical token: a kind, its text, and its source offset."""

    kind: str       # KEYWORD, IDENT, NUMBER, STRING, OP, EOF
    text: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        return self.kind == "KEYWORD" and self.text in names

    def is_op(self, *ops: str) -> bool:
        return self.kind == "OP" and self.text in ops


#: One token (or run of whitespace, or comment) of ASCII text, as the
#: character loop below reads it.
_ASCII_TOKEN = re.compile(r"""
    (?P<space>[ \t\n\r\x0b\x0c\x1c-\x1f]+)
  | (?P<comment>--[^\n]*\n?)
  | '(?P<string>(?:[^']|'')*+)'
  | "(?P<quoted>[^"]*)"
  | (?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><>|!=|<=|>=|\|\||[-<>=+*/%(),.\[\]])
""", re.VERBOSE)


def tokenize(sql: str) -> list[Token]:
    """Tokenise SQL text, raising :class:`ParseError` on bad input.

    ASCII text (every statement the workloads send) is read one token
    per regular-expression match; other text character by character,
    with ``str``'s Unicode classes.  Both read the same tokens.
    """
    if not sql.isascii():
        return _tokenize_chars(sql)
    tokens: list[Token] = []
    match = _ASCII_TOKEN.match
    i, n = 0, len(sql)
    while i < n:
        found = match(sql, i)
        if found is None:
            if sql[i] == "'":
                raise ParseError("unterminated string literal", i)
            if sql[i] == '"':
                raise ParseError("unterminated quoted identifier", i)
            raise ParseError(f"unexpected character {sql[i]!r}", i)
        kind, end = found.lastgroup, found.end()
        if kind == "word":
            word = found.group(kind)
            upper = word.upper()
            tokens.append(Token("KEYWORD", upper, i) if upper in KEYWORDS
                          else Token("IDENT", word, i))
        elif kind == "op":
            tokens.append(Token("OP", found.group(kind), i))
        elif kind == "number":
            tokens.append(Token("NUMBER", found.group(kind), end))
        elif kind == "string":
            tokens.append(Token("STRING",
                                found.group(kind).replace("''", "'"), end))
        elif kind == "quoted":
            tokens.append(Token("IDENT", found.group(kind), i))
        i = end
    tokens.append(Token("EOF", "", n))
    return tokens


def _tokenize_chars(sql: str) -> list[Token]:
    """:func:`tokenize`, one character at a time."""
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if ch == "'":
            text, i = _scan_string(sql, i)
            tokens.append(Token("STRING", text, i))
            continue
        if ch == '"':
            end = sql.find('"', i + 1)
            if end == -1:
                raise ParseError("unterminated quoted identifier", i)
            tokens.append(Token("IDENT", sql[i + 1:end], i))
            i = end + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            text, i = _scan_number(sql, i)
            tokens.append(Token("NUMBER", text, i))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            word = sql[start:i]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token("KEYWORD", upper, start))
            else:
                tokens.append(Token("IDENT", word, start))
            continue
        matched = False
        for op in _OPERATORS:
            if sql.startswith(op, i):
                tokens.append(Token("OP", op, i))
                i += len(op)
                matched = True
                break
        if not matched:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token("EOF", "", n))
    return tokens


def _scan_string(sql: str, start: int) -> tuple[str, int]:
    """Scan a single-quoted string starting at ``start``; '' escapes a quote."""
    i = start + 1
    parts: list[str] = []
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch == "'":
            if i + 1 < n and sql[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise ParseError("unterminated string literal", start)


def _scan_number(sql: str, start: int) -> tuple[str, int]:
    """Scan an integer or float literal (with optional exponent)."""
    i = start
    n = len(sql)
    while i < n and sql[i].isdigit():
        i += 1
    if i < n and sql[i] == ".":
        i += 1
        while i < n and sql[i].isdigit():
            i += 1
    if i < n and sql[i] in "eE":
        j = i + 1
        if j < n and sql[j] in "+-":
            j += 1
        if j < n and sql[j].isdigit():
            i = j
            while i < n and sql[i].isdigit():
                i += 1
    return sql[start:i], i
