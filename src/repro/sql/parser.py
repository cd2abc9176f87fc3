"""Recursive-descent SQL parser producing :mod:`repro.sql.nodes` ASTs."""

from __future__ import annotations

from typing import Sequence

from repro.sql.errors import ParseError
from repro.sql.lexer import Token, tokenize
from repro.sql.nodes import (
    Between,
    BinaryOp,
    Case,
    Cast,
    ColumnRef,
    FuncCall,
    InList,
    IsNull,
    Join,
    Like,
    Literal,
    Node,
    OrderItem,
    Select,
    SelectItem,
    Star,
    SubqueryRef,
    Subscript,
    TableRef,
    UnaryOp,
    Union,
    WindowSpec,
)


def parse(sql: str) -> Node:
    """Parse one SQL statement (SELECT, possibly UNIONed) into an AST."""
    return parse_tokens(tokenize(sql))


def parse_tokens(tokens: Sequence[Token]) -> Node:
    """Parse one statement from :func:`~repro.sql.lexer.tokenize`'s
    tokens (the EOF token included), for a caller that lexed already."""
    parser = _Parser(tokens)
    stmt = parser.parse_statement()
    parser.expect_eof()
    return stmt


class _Parser:
    def __init__(self, tokens: Sequence[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._current
        if token.kind != "EOF":
            self._pos += 1
        return token

    def _accept_keyword(self, *names: str) -> Token | None:
        # The two hottest helpers, inlined: a match is never EOF.
        token = self._tokens[self._pos]
        if token.kind == "KEYWORD" and token.text in names:
            self._pos += 1
            return token
        return None

    def _accept_op(self, *ops: str) -> Token | None:
        token = self._tokens[self._pos]
        if token.kind == "OP" and token.text in ops:
            self._pos += 1
            return token
        return None

    def _expect_keyword(self, name: str) -> Token:
        token = self._accept_keyword(name)
        if token is None:
            raise ParseError(
                f"expected {name}, found {self._current.text or 'end of input'}",
                self._current.position,
            )
        return token

    def _expect_op(self, op: str) -> Token:
        token = self._accept_op(op)
        if token is None:
            raise ParseError(
                f"expected {op!r}, found {self._current.text or 'end of input'}",
                self._current.position,
            )
        return token

    def _expect_ident(self) -> str:
        token = self._current
        if token.kind == "IDENT":
            self._advance()
            return token.text
        # Allow non-reserved-feeling keywords as identifiers where unambiguous.
        if token.kind == "KEYWORD" and token.text in ("LEFT", "RIGHT"):
            self._advance()
            return token.text.lower()
        raise ParseError(
            f"expected identifier, found {token.text or 'end of input'}",
            token.position,
        )

    def expect_eof(self) -> None:
        if self._current.kind != "EOF":
            raise ParseError(
                f"unexpected trailing input: {self._current.text!r}",
                self._current.position,
            )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> Node:
        left = self._parse_select_core()
        while self._accept_keyword("UNION"):
            all_flag = self._accept_keyword("ALL") is not None
            right = self._parse_select_core()
            left = Union(left=left, right=right, all=all_flag)
        if isinstance(left, Union):
            # A trailing ORDER BY / LIMIT / OFFSET was greedily consumed
            # by the final member select; per standard SQL it binds to the
            # whole union, so hoist it.
            order_by = self._parse_order_by()
            limit, offset = self._parse_limit_offset()
            rightmost = left.right
            if (not order_by and limit is None and offset is None
                    and isinstance(rightmost, Select)
                    and (rightmost.order_by or rightmost.limit is not None
                         or rightmost.offset is not None)):
                order_by = rightmost.order_by
                limit = rightmost.limit
                offset = rightmost.offset
                stripped = Select(
                    items=rightmost.items, source=rightmost.source,
                    where=rightmost.where, group_by=rightmost.group_by,
                    having=rightmost.having, order_by=(), limit=None,
                    offset=None, distinct=rightmost.distinct,
                )
                left = Union(left=left.left, right=stripped, all=left.all)
            if order_by or limit is not None or offset is not None:
                left = Union(left=left.left, right=left.right, all=left.all,
                             order_by=order_by, limit=limit, offset=offset)
        return left

    def _parse_select_core(self) -> Node:
        if self._accept_op("("):
            inner = self.parse_statement()
            self._expect_op(")")
            return inner
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT") is not None
        items = [self._parse_select_item()]
        while self._accept_op(","):
            items.append(self._parse_select_item())
        source = None
        if self._accept_keyword("FROM"):
            source = self._parse_from()
        where = None
        if self._accept_keyword("WHERE"):
            where = self.parse_expression()
        group_by: tuple[Node, ...] = ()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            exprs = [self.parse_expression()]
            while self._accept_op(","):
                exprs.append(self.parse_expression())
            group_by = tuple(exprs)
        having = None
        if self._accept_keyword("HAVING"):
            having = self.parse_expression()
        order_by = self._parse_order_by()
        limit, offset = self._parse_limit_offset()
        return Select(
            items=tuple(items), source=source, where=where, group_by=group_by,
            having=having, order_by=order_by, limit=limit, offset=offset,
            distinct=distinct,
        )

    def _parse_order_by(self) -> tuple[OrderItem, ...]:
        if not self._accept_keyword("ORDER"):
            return ()
        self._expect_keyword("BY")
        items = [self._parse_order_item()]
        while self._accept_op(","):
            items.append(self._parse_order_item())
        return tuple(items)

    def _parse_order_item(self) -> OrderItem:
        expr = self.parse_expression()
        ascending = True
        if self._accept_keyword("DESC"):
            ascending = False
        else:
            self._accept_keyword("ASC")
        return OrderItem(expr=expr, ascending=ascending)

    def _parse_limit_offset(self) -> tuple[int | None, int | None]:
        limit = offset = None
        if self._accept_keyword("LIMIT"):
            limit = self._parse_int_literal("LIMIT")
        if self._accept_keyword("OFFSET"):
            offset = self._parse_int_literal("OFFSET")
        return limit, offset

    def _parse_int_literal(self, clause: str) -> int:
        token = self._current
        if token.kind != "NUMBER":
            raise ParseError(f"{clause} expects an integer", token.position)
        self._advance()
        try:
            return int(token.text)
        except ValueError:
            raise ParseError(
                f"{clause} expects an integer, got {token.text}", token.position
            ) from None

    def _parse_select_item(self) -> SelectItem:
        if self._accept_op("*"):
            return SelectItem(expr=Star())
        # alias.* form
        if (self._current.kind == "IDENT"
                and self._peek_is_op(1, ".")
                and self._peek_is_op(2, "*")):
            table = self._advance().text
            self._advance()  # .
            self._advance()  # *
            return SelectItem(expr=Star(table=table))
        expr = self.parse_expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif self._current.kind == "IDENT":
            alias = self._advance().text
        return SelectItem(expr=expr, alias=alias)

    def _peek_is_op(self, offset: int, op: str) -> bool:
        idx = self._pos + offset
        return idx < len(self._tokens) and self._tokens[idx].is_op(op)

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------
    def _parse_from(self) -> Node:
        left = self._parse_table_factor()
        while True:
            kind = self._parse_join_kind()
            if kind is None:
                if self._accept_op(","):
                    right = self._parse_table_factor()
                    left = Join(kind="CROSS", left=left, right=right)
                    continue
                return left
            right = self._parse_table_factor()
            condition = None
            if kind != "CROSS":
                self._expect_keyword("ON")
                condition = self.parse_expression()
            left = Join(kind=kind, left=left, right=right, condition=condition)

    def _parse_join_kind(self) -> str | None:
        if self._accept_keyword("JOIN") or (
                self._accept_keyword("INNER") and self._expect_keyword("JOIN")):
            return "INNER"
        for kind in ("LEFT", "RIGHT", "FULL"):
            if self._current.is_keyword(kind):
                # Only a join if followed by (OUTER) JOIN.
                next_tok = self._tokens[self._pos + 1]
                if next_tok.is_keyword("OUTER", "JOIN"):
                    self._advance()
                    self._accept_keyword("OUTER")
                    self._expect_keyword("JOIN")
                    return kind
        if self._current.is_keyword("CROSS"):
            self._advance()
            self._expect_keyword("JOIN")
            return "CROSS"
        return None

    def _parse_table_factor(self) -> Node:
        if self._accept_op("("):
            if self._current.is_keyword("SELECT") or self._current.is_op("("):
                query = self.parse_statement()
                self._expect_op(")")
                alias = self._parse_optional_alias()
                return SubqueryRef(query=query, alias=alias)
            inner = self._parse_from()
            self._expect_op(")")
            return inner
        name = self._expect_ident()
        alias = self._parse_optional_alias()
        return TableRef(name=name, alias=alias)

    def _parse_optional_alias(self) -> str | None:
        if self._accept_keyword("AS"):
            return self._expect_ident()
        if self._current.kind == "IDENT":
            return self._advance().text
        return None

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def parse_expression(self) -> Node:
        return self._parse_or()

    def _parse_or(self) -> Node:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            left = BinaryOp(op="OR", left=left, right=self._parse_and())
        return left

    def _parse_and(self) -> Node:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            left = BinaryOp(op="AND", left=left, right=self._parse_not())
        return left

    def _parse_not(self) -> Node:
        if self._accept_keyword("NOT"):
            return UnaryOp(op="NOT", operand=self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Node:
        left = self._parse_additive()
        negated = False
        if self._accept_keyword("NOT"):
            negated = True
        if self._accept_keyword("BETWEEN"):
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return Between(expr=left, low=low, high=high, negated=negated)
        if self._accept_keyword("IN"):
            self._expect_op("(")
            items = [self.parse_expression()]
            while self._accept_op(","):
                items.append(self.parse_expression())
            self._expect_op(")")
            return InList(expr=left, items=tuple(items), negated=negated)
        if self._accept_keyword("LIKE"):
            pattern = self._parse_additive()
            return Like(expr=left, pattern=pattern, negated=negated)
        if negated:
            raise ParseError(
                "NOT must be followed by BETWEEN, IN or LIKE here",
                self._current.position,
            )
        if self._accept_keyword("IS"):
            is_negated = self._accept_keyword("NOT") is not None
            self._expect_keyword("NULL")
            return IsNull(expr=left, negated=is_negated)
        op_token = self._accept_op("=", "<>", "!=", "<", "<=", ">", ">=")
        if op_token is not None:
            op = "<>" if op_token.text == "!=" else op_token.text
            return BinaryOp(op=op, left=left, right=self._parse_additive())
        return left

    def _parse_additive(self) -> Node:
        left = self._parse_multiplicative()
        while True:
            op_token = self._accept_op("+", "-", "||")
            if op_token is None:
                return left
            left = BinaryOp(op=op_token.text, left=left,
                            right=self._parse_multiplicative())

    def _parse_multiplicative(self) -> Node:
        left = self._parse_unary()
        while True:
            op_token = self._accept_op("*", "/", "%")
            if op_token is None:
                return left
            left = BinaryOp(op=op_token.text, left=left,
                            right=self._parse_unary())

    def _parse_unary(self) -> Node:
        if self._accept_op("-"):
            return UnaryOp(op="-", operand=self._parse_unary())
        if self._accept_op("+"):
            return self._parse_unary()
        return self._parse_postfix()

    def _parse_postfix(self) -> Node:
        expr = self._parse_primary()
        while self._accept_op("["):
            index = self.parse_expression()
            self._expect_op("]")
            expr = Subscript(base=expr, index=index)
        return expr

    def _parse_primary(self) -> Node:
        token = self._current
        if token.kind == "NUMBER":
            self._advance()
            text = token.text
            if "." in text or "e" in text or "E" in text:
                return Literal(float(text))
            return Literal(int(text))
        if token.kind == "STRING":
            self._advance()
            return Literal(token.text)
        if token.is_keyword("NULL"):
            self._advance()
            return Literal(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return Literal(False)
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_keyword("CAST"):
            self._advance()
            self._expect_op("(")
            expr = self.parse_expression()
            self._expect_keyword("AS")
            type_name = self._expect_ident().upper()
            self._expect_op(")")
            return Cast(expr=expr, type_name=type_name)
        if token.is_op("("):
            self._advance()
            if self._current.is_keyword("SELECT"):
                raise ParseError(
                    "scalar subqueries are not supported", token.position
                )
            expr = self.parse_expression()
            self._expect_op(")")
            return expr
        if token.kind in ("IDENT", "KEYWORD"):
            return self._parse_name_or_call()
        raise ParseError(
            f"unexpected token {token.text!r}", token.position
        )

    def _parse_case(self) -> Node:
        self._expect_keyword("CASE")
        whens: list[tuple[Node, Node]] = []
        while self._accept_keyword("WHEN"):
            cond = self.parse_expression()
            self._expect_keyword("THEN")
            value = self.parse_expression()
            whens.append((cond, value))
        if not whens:
            raise ParseError("CASE requires at least one WHEN",
                             self._current.position)
        default = None
        if self._accept_keyword("ELSE"):
            default = self.parse_expression()
        self._expect_keyword("END")
        return Case(whens=tuple(whens), default=default)

    def _parse_name_or_call(self) -> Node:
        token = self._current
        if token.kind == "KEYWORD" and token.text not in ("LEFT", "RIGHT"):
            raise ParseError(
                f"unexpected keyword {token.text}", token.position
            )
        name = self._advance().text
        if self._current.is_op("("):
            return self._parse_call(name)
        if self._current.is_op(".") and not self._peek_is_op(1, "*"):
            self._advance()
            column = self._expect_ident()
            return ColumnRef(name=column, table=name)
        return ColumnRef(name=name)

    def _parse_call(self, name: str) -> Node:
        self._expect_op("(")
        distinct = self._accept_keyword("DISTINCT") is not None
        args: list[Node] = []
        if self._accept_op("*"):
            args.append(Star())
        elif not self._current.is_op(")"):
            args.append(self.parse_expression())
            while self._accept_op(","):
                args.append(self.parse_expression())
        self._expect_op(")")
        window = None
        if self._accept_keyword("OVER"):
            window = self._parse_window_spec()
        return FuncCall(name=name.upper(), args=tuple(args),
                        distinct=distinct, window=window)

    def _parse_window_spec(self) -> WindowSpec:
        self._expect_op("(")
        partition: list[Node] = []
        if self._accept_keyword("PARTITION"):
            self._expect_keyword("BY")
            partition.append(self.parse_expression())
            while self._accept_op(","):
                partition.append(self.parse_expression())
        order_by: tuple[OrderItem, ...] = ()
        if self._current.is_keyword("ORDER"):
            order_by = self._parse_order_by()
        self._expect_op(")")
        return WindowSpec(partition_by=tuple(partition), order_by=order_by)
