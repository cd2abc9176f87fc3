"""Unit tests for the SQL tokeniser."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sql.errors import ParseError
from repro.sql.lexer import Token, _tokenize_chars, tokenize


def kinds(sql: str) -> list[str]:
    return [t.kind for t in tokenize(sql)[:-1]]


def texts(sql: str) -> list[str]:
    return [t.text for t in tokenize(sql)[:-1]]


class TestTokenize:
    def test_keywords_case_insensitive(self):
        assert texts("select FROM Where") == ["SELECT", "FROM", "WHERE"]
        assert kinds("select") == ["KEYWORD"]

    def test_identifiers_keep_case(self):
        assert texts("Target") == ["Target"]
        assert kinds("Target") == ["IDENT"]

    def test_numbers(self):
        assert texts("1 2.5 1e3 1.5E-2") == ["1", "2.5", "1e3", "1.5E-2"]
        assert all(k == "NUMBER" for k in kinds("1 2.5 1e3"))

    def test_string_literal(self):
        tokens = tokenize("'hello world'")
        assert tokens[0].kind == "STRING"
        assert tokens[0].text == "hello world"

    def test_string_escape(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].text == "it's"

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("'oops")

    def test_quoted_identifier(self):
        tokens = tokenize('"weird col"')
        assert tokens[0].kind == "IDENT"
        assert tokens[0].text == "weird col"

    def test_operators_greedy(self):
        assert texts("a <= b <> c != d || e") == [
            "a", "<=", "b", "<>", "c", "!=", "d", "||", "e"]

    def test_comments_stripped(self):
        assert texts("SELECT 1 -- comment\n , 2") == ["SELECT", "1", ",", "2"]

    def test_subscript_tokens(self):
        assert texts("tag['host']") == ["tag", "[", "host", "]"]

    def test_unknown_character(self):
        with pytest.raises(ParseError):
            tokenize("SELECT ?")

    def test_eof_token_present(self):
        tokens = tokenize("SELECT 1")
        assert tokens[-1].kind == "EOF"

    def test_helpers(self):
        token = Token("KEYWORD", "SELECT", 0)
        assert token.is_keyword("SELECT", "FROM")
        assert not token.is_op("(")


def _lexed(lex, sql):
    try:
        return lex(sql)
    except ParseError as error:
        return ("error", str(error))


@given(st.text(st.sampled_from(list(
    " \t\r\n\x0b\x0c\x1c\x1d\x1fabXY_019.eE+-'\"<>=!|*/%(),[]#;\\")), max_size=40))
@settings(max_examples=500, deadline=None)
def test_ascii_text_lexes_as_the_character_loop_reads_it(sql):
    """The one-match-per-token path reads exactly the tokens (kinds,
    texts, positions) and errors of the character loop."""
    assert _lexed(tokenize, sql) == _lexed(_tokenize_chars, sql)


def test_non_ascii_text_takes_the_character_loop():
    tokens = tokenize("SELECT caf\u00e9, '\u00fc' FROM t")
    assert [t.text for t in tokens[:-1]] == [
        "SELECT", "caf\u00e9", ",", "\u00fc", "FROM", "t"]
