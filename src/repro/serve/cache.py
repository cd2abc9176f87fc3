"""Query normalisation: the result-cache key for a SQL request.

The serving workload is dominated by *repeat* requests: a dashboard
re-issues the same handful of SQL statements against a store that
mutates far less often than it is read.  The server keeps results in a
:class:`~repro.versioned.VersionedCache`; :func:`normalize_query`
canonicalises SQL text for that cache's key, so two statements that
tokenise identically — modulo whitespace, keyword case and comments —
share one entry.  The normalised text is rebuilt *from the token
stream*, so it parses to exactly the AST of the original
(property-tested); no semantic guessing is involved.

A request is lexed once (:func:`lex_query`): the same tokens give the
key and are what the server parses, and repeated text (a dashboard's
panels) skips the lexer altogether.
"""

from __future__ import annotations

import functools
import re

from repro.sql.lexer import KEYWORDS, Token, tokenize

#: Distinct statement texts :func:`lex_query` remembers.
LEXED_TEXTS = 256

_PLAIN_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _render_token(token: Token, next_token: Token | None) -> str:
    """Render one token back to parseable SQL text."""
    if token.kind == "STRING":
        return "'" + token.text.replace("'", "''") + "'"
    if token.kind == "IDENT":
        # Identifiers that would not survive re-lexing bare — special
        # characters, or a name that upper-cases to a keyword — must be
        # re-quoted; everything else renders verbatim (identifier case
        # is preserved because it names output columns).  Exception: an
        # identifier in call position — next token ``(`` — is a function
        # name, which resolves case-insensitively and renders canonical
        # uppercase in auto-generated column names, so its case folds.
        if (_PLAIN_IDENT.match(token.text) is None
                or token.text.upper() in KEYWORDS):
            return '"' + token.text + '"'
        if (next_token is not None and next_token.kind == "OP"
                and next_token.text == "("):
            return token.text.upper()
        return token.text
    return token.text


def normalize_query(sql: str) -> str:
    """Canonical text of a SQL statement, for use as a cache key.

    Tokenises and re-joins: comments vanish, runs of whitespace collapse
    to single spaces, keywords are upper-cased (the lexer already did),
    function names fold to uppercase, and string/identifier quoting is
    re-emitted canonically.  The result parses to the same AST as the
    input — queries that differ only in formatting share a cache entry,
    queries that differ semantically never do.  Raises
    :class:`~repro.sql.errors.ParseError` on input the lexer rejects
    (the server lets that propagate like any bad query).
    """
    return lex_query(sql)[0]


@functools.lru_cache(maxsize=LEXED_TEXTS)
def lex_query(sql: str) -> tuple[str, tuple[Token, ...]]:
    """``(normalize_query(sql), tokens)`` from one pass of the lexer —
    the tokens, EOF included, are what
    :func:`~repro.sql.parser.parse_tokens` takes — remembered for the
    :data:`LEXED_TEXTS` texts asked most recently."""
    tokens = tuple(tokenize(sql))
    return " ".join(
        _render_token(token, tokens[i + 1] if i + 2 < len(tokens) else None)
        for i, token in enumerate(tokens[:-1])), tokens
