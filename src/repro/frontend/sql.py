"""Mini-SQL frontend.

Supports the analytical subset needed for the paper's evaluation queries
(TPC-H Q1/Q6 and the multi-relation join queries Q3/Q5/Q7/Q9/Q10/Q18)::

    SELECT <exprs and aggregates> FROM <table>
    [JOIN <table> ON <col> = <col>]...
    [WHERE <conjunctions/disjunctions of comparisons, BETWEEN>]
    [GROUP BY <columns>] [ORDER BY <columns> [ASC|DESC]] [LIMIT <n>]

Any number of ``JOIN ... ON a = b`` clauses chain into a left-deep join
tree; the optimizer reorders and lowers the tree onto shuffle waves.
Aggregates: ``SUM``, ``COUNT(*)``, ``AVG``, ``MIN``, ``MAX``.  ``DATE
'YYYY-MM-DD'`` literals are converted to integer days since 1970-01-01, the
encoding used by the numeric TPC-H generator.  Table names resolve to object
store paths through a :class:`SqlCatalog`.

One dialect rule differs from standard SQL: a trailing ``DESC`` (or ``ASC``)
applies to *every* ``ORDER BY`` key, so ``ORDER BY revenue, l_orderkey DESC``
sorts both keys descending (standard SQL would write ``revenue DESC,
l_orderkey DESC``).  In an aggregate query every ``ORDER BY`` key must be a
``GROUP BY`` column or an aggregate's alias; in a projection, a column of a
``FROM`` or ``JOIN`` table (checked when the catalog knows all their columns).

Every rejection, syntactic or semantic (an unknown table, a join condition
that does not span both sides, a select item that is neither grouped nor
aggregated, an ``ORDER BY`` key the result does not have), raises
:class:`~repro.errors.SqlParseError` carrying the 0-based character
``position`` (plus derived 1-based ``line``/``column``) of the offending
token.
"""

from __future__ import annotations

import datetime as _dt
import functools
import re
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, NoReturn, Optional, Sequence, Tuple, Union

from repro.errors import SqlParseError, SqlSyntaxError
from repro.plan.expressions import Column, Expression, col, lit
from repro.plan.logical import (
    AggregateNode,
    AggregateSpec,
    FilterNode,
    JoinNode,
    LimitNode,
    LogicalPlan,
    OrderByNode,
    ProjectNode,
    ScanNode,
)

_AGGREGATE_NAMES = {"sum", "count", "avg", "min", "max"}

#: One token and the whitespace before it (or the whitespace before the end).
_TOKEN_RE = re.compile(
    r"""
    \s*
    (?:
        (?P<date>date\s*'(\d{4})-(\d{2})-(\d{2})')
      | (?P<number>\d+\.\d*|\.\d+|\d+)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op><=|>=|<>|!=|=|<|>|\+|-|\*|/|\(|\)|,|\.)
      | \Z
    )
    """,
    re.VERBOSE | re.IGNORECASE,
)
_SPACE_RE = re.compile(r"\s*")


class _Token(NamedTuple):
    kind: str
    value: str
    #: 0-based character offset of the token in the original statement.
    position: int = -1


#: ``_Token`` from a ``(kind, value, position)`` tuple, without a Python call.
_token = functools.partial(tuple.__new__, _Token)


def _tokenize(statement: str) -> List[_Token]:
    """The statement's tokens, in one pass of :data:`_TOKEN_RE`; a character
    no token starts with is a :class:`SqlParseError` at its position."""
    tokens: List[_Token] = []
    append = tokens.append
    position = 0
    for match in _TOKEN_RE.finditer(statement):
        skipped, end = match.span()
        if skipped != position:
            break  # the scan skipped a character no token starts with
        position = end
        kind = match.lastgroup
        if kind is None:  # trailing whitespace
            continue
        start = match.start(kind)
        if kind == "date":
            try:
                days = date_to_days(*(int(part) for part in match.group(2, 3, 4)))
            except ValueError as exc:
                raise SqlParseError(
                    f"invalid date literal: {exc}", statement=statement, position=start
                ) from None
            append(_token(("number", str(days), start)))
        else:
            append(_token((kind, statement[start:end], start)))
    if position < len(statement):
        position = _SPACE_RE.match(statement, position).end()
        raise SqlParseError(
            f"unexpected character {statement[position]!r}",
            statement=statement,
            position=position,
        )
    return tokens


def date_to_days(year: int, month: int, day: int) -> int:
    """Days since 1970-01-01 of a calendar date (the ``l_shipdate`` encoding)."""
    return (_dt.date(year, month, day) - _dt.date(1970, 1, 1)).days


def _path_list(paths: Union[str, Sequence[str]]) -> List[str]:
    """A table's paths as a list; one bare path or glob is a list of one."""
    return [paths] if isinstance(paths, str) else list(paths)


@dataclass
class SqlCatalog:
    """Maps table names to the object-store paths (or globs) of their files.

    Tables may optionally be registered with their column names; the schema
    hint lets the planner decide which side of a join owns an unqualified
    column (per-side predicate and projection push-down).  A table's stored
    size, when its registration knows it, lets the shuffle coordinator price
    its exchange fan-out from bytes without spending a request.
    """

    tables: Dict[str, Sequence[str]] = field(default_factory=dict)
    columns: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Stored bytes of a table's files (absent when unknown).
    sizes: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for name, paths in list(self.tables.items()):
            self.tables[name] = _path_list(paths)

    def register(
        self,
        name: str,
        paths: Union[str, Sequence[str]],
        columns: Optional[Sequence[str]] = None,
        size_bytes: int = 0,
    ) -> None:
        """Register (or replace) a table: one path or glob, or a sequence of
        them, optionally with its column names and stored size.  Whatever a
        re-registration leaves out is forgotten, not inherited."""
        key = name.lower()
        self.tables[key] = _path_list(paths)
        if columns is not None:
            self.columns[key] = tuple(columns)
        else:
            self.columns.pop(key, None)
        if size_bytes > 0:
            self.sizes[key] = int(size_bytes)
        else:
            self.sizes.pop(key, None)

    def register_dataset(self, dataset) -> None:
        """Register a generated dataset (anything with name/paths/schema; a
        ``total_bytes`` attribute is kept as the table's size)."""
        self.register(
            dataset.name, dataset.paths, columns=dataset.schema.names,
            size_bytes=getattr(dataset, "total_bytes", 0),
        )

    def paths_of(self, name: str) -> Tuple[str, ...]:
        """Paths of a registered table."""
        key = name.lower()
        if key not in self.tables:
            raise SqlSyntaxError(f"unknown table {name!r}")
        return tuple(self.tables[key])

    def size_of(self, name: str) -> int:
        """Registered stored bytes of a table (0 when unknown)."""
        return self.sizes.get(name.lower(), 0)

    def columns_of(self, name: str) -> Tuple[str, ...]:
        """Registered column names of a table (empty when unknown)."""
        return self.columns.get(name.lower(), ())


@dataclass
class _SelectItem:
    expression: Optional[Expression]
    aggregate: Optional[AggregateSpec]
    alias: str
    #: The item's first token: where a rejection of the item points.
    token: _Token


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: List[_Token], statement: str = ""):
        # One end token past the last: lookahead is a direct index.
        self.tokens = [*tokens, _Token("end", "", len(statement))]
        self.statement = statement
        self.position = 0

    # -- token helpers -----------------------------------------------------------

    def _error(self, message: str, token: Optional[_Token] = None) -> NoReturn:
        """Raise a :class:`SqlParseError` located at ``token`` (or the current
        token, or the end of the statement when the stream is exhausted)."""
        where = token if token is not None else self.tokens[self.position]
        raise SqlParseError(message, statement=self.statement, position=where.position)

    def _peek(self) -> Optional[_Token]:
        token = self.tokens[self.position]
        return None if token.kind == "end" else token

    def _next(self) -> _Token:
        token = self.tokens[self.position]
        if token.kind == "end":
            self._error("unexpected end of statement")
        self.position += 1
        return token

    def _accept_keyword(self, *keywords: str) -> bool:
        token = self.tokens[self.position]
        if token.kind == "ident" and token.value.lower() in keywords:
            self.position += 1
            return True
        return False

    def _expect_keyword(self, keyword: str) -> None:
        if not self._accept_keyword(keyword):
            token = self._peek()
            self._error(
                f"expected {keyword.upper()}, found "
                f"{'end of statement' if token is None else repr(token.value)}"
            )

    def _accept_op(self, op: str) -> bool:
        token = self.tokens[self.position]
        if token.kind == "op" and token.value == op:
            self.position += 1
            return True
        return False

    def _expect_op(self, op: str) -> None:
        if not self._accept_op(op):
            token = self._peek()
            self._error(
                f"expected {op!r}, found "
                f"{'end of statement' if token is None else repr(token.value)}"
            )

    # -- expression grammar ---------------------------------------------------------

    def parse_scalar(self) -> Expression:
        """additive := term (('+'|'-') term)*"""
        left = self._parse_term()
        while True:
            kind, op, _ = self.tokens[self.position]
            if kind != "op" or (op != "+" and op != "-"):
                return left
            self.position += 1
            right = self._parse_term()
            left = left + right if op == "+" else left - right

    def _parse_term(self) -> Expression:
        left = self._parse_factor()
        while True:
            kind, op, _ = self.tokens[self.position]
            if kind != "op" or (op != "*" and op != "/"):
                return left
            self.position += 1
            right = self._parse_factor()
            left = left * right if op == "*" else left / right

    def _parse_factor(self) -> Expression:
        token = self.tokens[self.position]
        kind, value, _ = token
        if kind == "end":
            self._error("unexpected end of expression")
        if kind == "op" and value == "(":
            self.position += 1
            inner = self.parse_scalar()
            self._expect_op(")")
            return inner
        if kind == "op" and value == "-":
            self.position += 1
            return lit(0) - self._parse_factor()
        if kind == "number":
            self.position += 1
            number = float(value)
            return lit(int(number)) if number.is_integer() and "." not in value else lit(number)
        if kind == "ident":
            self.position += 1
            name = value.lower()
            if self._accept_op("."):
                # Qualified reference (table.column): column names are unique
                # across the numeric TPC-H relations, so the qualifier only
                # disambiguates for the reader and is dropped here.
                column_token = self._next()
                if column_token.kind != "ident":
                    self._error(
                        f"expected a column name after '.', found {column_token.value!r}",
                        token=column_token,
                    )
                name = column_token.value.lower()
            return col(name)
        self._error(f"unexpected token {token.value!r}", token=token)

    def parse_column_ref(self) -> Tuple[Optional[str], str, _Token]:
        """A possibly qualified column reference: ``(qualifier, column,
        first token)``."""
        token = self._next()
        if token.kind != "ident":
            self._error(f"expected a column name, found {token.value!r}", token=token)
        first = token.value.lower()
        if self._accept_op("."):
            column_token = self._next()
            if column_token.kind != "ident":
                self._error(
                    f"expected a column name after '.', found {column_token.value!r}",
                    token=column_token,
                )
            return first, column_token.value.lower(), token
        return None, first, token

    def parse_predicate(self) -> Expression:
        """or_expr := and_expr (OR and_expr)*"""
        left = self._parse_and()
        while self._accept_keyword("or"):
            left = left | self._parse_and()
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_comparison()
        while self._accept_keyword("and"):
            left = left & self._parse_comparison()
        return left

    def _parse_comparison(self) -> Expression:
        if self._accept_keyword("not"):
            return ~self._parse_comparison()
        token = self._peek()
        if token is not None and token.kind == "op" and token.value == "(":
            # Could be a parenthesised predicate; try it, fall back to scalar.
            saved = self.position
            self._next()
            try:
                inner = self.parse_predicate()
                self._expect_op(")")
                return inner
            except SqlSyntaxError:
                self.position = saved
        left = self.parse_scalar()
        if self._accept_keyword("between"):
            low = self.parse_scalar()
            self._expect_keyword("and")
            high = self.parse_scalar()
            return (left >= low) & (left <= high)
        operators = {"=": "==", "<>": "!=", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
        token = self._peek()
        if token is not None and token.kind == "op" and token.value in operators:
            self._next()
            right = self.parse_scalar()
            mapped = operators[token.value]
            return getattr(left, {"==": "__eq__", "!=": "__ne__", "<": "__lt__",
                                  "<=": "__le__", ">": "__gt__", ">=": "__ge__"}[mapped])(right)
        self._error(
            f"expected a comparison operator, found "
            f"{'end of statement' if token is None else repr(token.value)}"
        )

    # -- select list ---------------------------------------------------------------------

    def parse_select_item(self, index: int) -> _SelectItem:
        token = self._peek()
        if token is None:
            self._error("unexpected end of statement")
        aggregate: Optional[AggregateSpec] = None
        expression: Optional[Expression] = None
        default_alias = f"col{index}"
        if (
            token.kind == "ident"
            and token.value.lower() in _AGGREGATE_NAMES
            and self.tokens[self.position + 1].value == "("
        ):
            function = self._next().value.lower()
            self._expect_op("(")
            if function == "count" and self._accept_op("*"):
                argument: Optional[Expression] = None
            else:
                argument = self.parse_scalar()
            self._expect_op(")")
            aggregate = AggregateSpec(function, argument, default_alias)
        else:
            expression = self.parse_scalar()
            if isinstance(expression, Column):
                default_alias = expression.name
        alias = default_alias
        if self._accept_keyword("as"):
            alias_token = self._next()
            if alias_token.kind != "ident":
                self._error(f"expected an alias, found {alias_token.value!r}", token=alias_token)
            alias = alias_token.value.lower()
        if aggregate is not None:
            aggregate = AggregateSpec(aggregate.function, aggregate.expression, alias)
        return _SelectItem(expression, aggregate, alias, token)


#: Join syntax the mini-SQL frontend deliberately does not support; naming
#: them produces a targeted parse error instead of a generic one.
_UNSUPPORTED_JOIN_KINDS = ("left", "right", "full", "outer", "cross", "semi", "anti")


def parse_sql(statement: str, catalog: SqlCatalog) -> LogicalPlan:
    """Parse a SQL statement into a logical plan."""
    parser = _Parser(_tokenize(statement), statement)
    parser._expect_keyword("select")

    items: List[_SelectItem] = [parser.parse_select_item(0)]
    while parser._accept_op(","):
        items.append(parser.parse_select_item(len(items)))

    parser._expect_keyword("from")
    left_table = _expect_table(parser, catalog, "FROM")

    # Any number of INNER JOIN clauses chain into a left-deep join tree; the
    # n-th ON clause must connect the new table to one already in scope.
    join_clauses: List[Tuple[str, str, str]] = []  # (right_table, left_key, right_key)
    joined_tables: List[str] = [left_table]
    while True:
        kind_token = parser._peek()
        if (
            kind_token is not None
            and kind_token.kind == "ident"
            and kind_token.value.lower() in _UNSUPPORTED_JOIN_KINDS
        ):
            parser._error(
                f"unsupported join syntax {kind_token.value.upper()!r}: only "
                f"inner equi-joins (JOIN table ON a = b) are supported",
                token=kind_token,
            )
        if parser._accept_keyword("inner"):
            parser._expect_keyword("join")
        elif not parser._accept_keyword("join"):
            break
        right_token = parser._peek()
        right_table = _expect_table(parser, catalog, "JOIN")
        if right_table in joined_tables:
            parser._error(
                f"table {right_table!r} already joined (self-joins are not "
                f"supported)",
                token=right_token,
            )
        parser._expect_keyword("on")
        first_ref = parser.parse_column_ref()
        if not parser._accept_op("="):
            found = parser._peek()
            parser._error(
                f"unsupported join condition: expected '=' between two column "
                f"references, found "
                f"{'end of statement' if found is None else repr(found.value)}"
            )
        second_ref = parser.parse_column_ref()
        left_key, right_key = _resolve_join_keys(
            parser, catalog, joined_tables, right_table, first_ref, second_ref
        )
        join_clauses.append((right_table, left_key, right_key))
        joined_tables.append(right_table)

    predicate: Optional[Expression] = None
    if parser._accept_keyword("where"):
        predicate = parser.parse_predicate()

    group_token = parser._peek()
    group_by: List[str] = []
    if parser._accept_keyword("group"):
        parser._expect_keyword("by")
        group_by.append(parser.parse_column_ref()[1])
        while parser._accept_op(","):
            group_by.append(parser.parse_column_ref()[1])

    order_by: List[Tuple[Optional[str], str, _Token]] = []
    descending = False
    if parser._accept_keyword("order"):
        parser._expect_keyword("by")
        order_by.append(parser.parse_column_ref())
        while parser._accept_op(","):
            order_by.append(parser.parse_column_ref())
        if parser._accept_keyword("desc"):
            descending = True
        else:
            parser._accept_keyword("asc")

    limit: Optional[int] = None
    if parser._accept_keyword("limit"):
        limit_token = parser._next()
        if limit_token.kind != "number":
            parser._error(
                f"expected a number after LIMIT, found {limit_token.value!r}",
                token=limit_token,
            )
        limit = int(float(limit_token.value))

    if parser._peek() is not None:
        parser._error(f"unexpected trailing tokens starting at {parser._peek().value!r}")

    # -- build the logical plan -------------------------------------------------------
    plan: LogicalPlan = ScanNode(
        paths=catalog.paths_of(left_table),
        schema_columns=catalog.columns_of(left_table),
        size_bytes=catalog.size_of(left_table),
    )
    for right_table, left_key, right_key in join_clauses:
        right_scan = ScanNode(
            paths=catalog.paths_of(right_table),
            schema_columns=catalog.columns_of(right_table),
            size_bytes=catalog.size_of(right_table),
        )
        plan = JoinNode(
            child=plan, right=right_scan, left_key=left_key, right_key=right_key
        )
    # The whole WHERE clause sits above the joins; the optimizer pushes each
    # conjunct down to the side whose schema covers it.
    if predicate is not None:
        plan = FilterNode(child=plan, predicate=predicate)

    aggregates = [item.aggregate for item in items if item.aggregate is not None]
    plain = [item for item in items if item.aggregate is None]
    if aggregates:
        for item in plain:
            if not isinstance(item.expression, Column) or item.expression.name not in group_by:
                parser._error(
                    f"non-aggregated select item {item.alias!r} must be a GROUP BY column",
                    token=item.token,
                )
        aliases: List[str] = []
        for item in items:
            if item.aggregate is not None:
                if item.alias in aliases:
                    parser._error(f"duplicate aggregate alias {item.alias!r}", token=item.token)
                aliases.append(item.alias)
        # The driver sorts the merged result, which has only these columns.
        for _, key, key_token in order_by:
            if key not in group_by and key not in aliases:
                parser._error(
                    f"ORDER BY key {key!r} is neither a GROUP BY column nor an "
                    f"aggregate alias",
                    token=key_token,
                )
        plan = AggregateNode(child=plan, group_by=tuple(group_by), aggregates=tuple(aggregates))
    else:
        if group_by:
            parser._error("GROUP BY without aggregates is not supported", token=group_token)
        columns = []
        for item in plain:
            if not isinstance(item.expression, Column):
                parser._error(
                    "computed select items require an aggregate or a plain column",
                    token=item.token,
                )
            columns.append(item.expression.name)
        # The driver sorts by any column of the scanned tables; when all of
        # their columns are known, a key none of them has cannot run.
        known = [catalog.columns_of(table) for table in joined_tables]
        if all(known):
            for _, key, key_token in order_by:
                if not any(key in columns for columns in known):
                    parser._error(
                        f"ORDER BY key {key!r} is not a column of {', '.join(joined_tables)}",
                        token=key_token,
                    )
        plan = ProjectNode(child=plan, columns=tuple(columns))

    if order_by:
        plan = OrderByNode(
            child=plan, keys=tuple(key for _, key, _ in order_by), descending=descending
        )
    if limit is not None:
        plan = LimitNode(child=plan, count=limit)
    return plan


def _expect_table(parser: _Parser, catalog: SqlCatalog, clause: str) -> str:
    """The next token as the name of a table the catalog knows."""
    token = parser._next()
    if token.kind != "ident":
        parser._error(f"expected a table name after {clause}, found {token.value!r}", token=token)
    name = token.value.lower()
    if name not in catalog.tables:
        parser._error(f"unknown table {name!r}", token=token)
    return name


def _resolve_join_keys(
    parser: _Parser,
    catalog: SqlCatalog,
    left_tables: Sequence[str],
    right_table: str,
    first_ref: Tuple[Optional[str], str, _Token],
    second_ref: Tuple[Optional[str], str, _Token],
) -> Tuple[str, str]:
    """Assign the two ON-clause columns to the join sides.

    The "left" side of the n-th join is every table already in scope
    (``left_tables``).  A ``table.column`` qualifier decides directly;
    unqualified columns are looked up in the catalog's registered schemas;
    when neither source resolves a column, the textual order (left key
    first) is assumed.
    """

    def side_of(qualifier: Optional[str], column: str, token: _Token) -> Optional[str]:
        if qualifier is not None:
            if qualifier in left_tables:
                return "left"
            if qualifier == right_table:
                return "right"
            parser._error(
                f"unknown table {qualifier!r} in join condition "
                f"(expected one of {sorted(left_tables)} or {right_table!r})",
                token=token,
            )
        if any(column in catalog.columns_of(table) for table in left_tables):
            return "left"
        if column in catalog.columns_of(right_table):
            return "right"
        return None

    first_side = side_of(*first_ref)
    second_side = side_of(*second_ref)
    if first_side is None and second_side is None:
        first_side, second_side = "left", "right"
    elif first_side is None:
        first_side = "left" if second_side == "right" else "right"
    elif second_side is None:
        second_side = "left" if first_side == "right" else "right"
    if first_side == second_side:
        parser._error(
            "join condition must reference one column of each table",
            token=first_ref[2],
        )
    left_key = first_ref[1] if first_side == "left" else second_ref[1]
    right_key = second_ref[1] if second_side == "right" else first_ref[1]
    return left_key, right_key
