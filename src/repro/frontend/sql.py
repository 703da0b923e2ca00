"""Mini-SQL frontend.

Supports the analytical subset needed for the paper's evaluation queries
(TPC-H Q1/Q6 and the multi-relation join queries Q3/Q5/Q7/Q9/Q10/Q18)::

    SELECT <exprs and aggregates> FROM <table>
    [JOIN <table> ON <col> = <col>]...
    [WHERE <conjunctions/disjunctions of comparisons, BETWEEN>]
    [GROUP BY <columns>] [ORDER BY <columns> [DESC]] [LIMIT <n>]

Any number of ``JOIN ... ON a = b`` clauses chain into a left-deep join
tree; the optimizer reorders and lowers the tree onto shuffle waves.
Aggregates: ``SUM``, ``COUNT(*)``, ``AVG``, ``MIN``, ``MAX``.  ``DATE
'YYYY-MM-DD'`` literals are converted to integer days since 1970-01-01, the
encoding used by the numeric TPC-H generator.  Table names resolve to object
store paths through a :class:`SqlCatalog`.

Parse failures raise :class:`~repro.errors.SqlParseError` carrying the
0-based character ``position`` (plus derived 1-based ``line``/``column``)
of the offending token.
"""

from __future__ import annotations

import datetime as _dt
import re
from dataclasses import dataclass, field
from typing import Dict, List, NoReturn, Optional, Sequence, Tuple, Union

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

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<date>date\s*'(\d{4})-(\d{2})-(\d{2})')
  | (?P<number>\d+\.\d*|\.\d+|\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|<>|!=|=|<|>|\+|-|\*|/|\(|\)|,|\.)
    """,
    re.VERBOSE | re.IGNORECASE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    #: 0-based character offset of the token in the original statement.
    position: int = -1

    def __str__(self) -> str:  # referenced in error messages
        return f"{self.value!r}"


def _tokenize(statement: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    while position < len(statement):
        match = _TOKEN_RE.match(statement, position)
        if match is None:
            raise SqlParseError(
                f"unexpected character {statement[position]!r}",
                statement=statement,
                position=position,
            )
        start = match.start()
        position = match.end()
        if match.lastgroup == "ws":
            continue
        if match.lastgroup == "date":
            date_match = re.search(r"(\d{4})-(\d{2})-(\d{2})", match.group("date"))
            assert date_match is not None
            year, month, day = date_match.groups()
            days = (_dt.date(int(year), int(month), int(day)) - _dt.date(1970, 1, 1)).days
            tokens.append(_Token("number", str(days), start))
        elif match.lastgroup == "number":
            tokens.append(_Token("number", match.group("number"), start))
        elif match.lastgroup == "ident":
            tokens.append(_Token("ident", match.group("ident"), start))
        else:
            tokens.append(_Token("op", match.group("op"), start))
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


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: List[_Token], statement: str = ""):
        self.tokens = tokens
        self.statement = statement
        self.position = 0

    # -- token helpers -----------------------------------------------------------

    def _error(self, message: str, token: Optional[_Token] = None) -> NoReturn:
        """Raise a :class:`SqlParseError` located at ``token`` (or the current
        token, or the end of the statement when the stream is exhausted)."""
        where = token if token is not None else self._peek()
        offset = where.position if where is not None else len(self.statement)
        raise SqlParseError(message, statement=self.statement, position=offset)

    def _peek(self) -> Optional[_Token]:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            self._error("unexpected end of statement")
        self.position += 1
        return token

    def _accept_keyword(self, *keywords: str) -> bool:
        token = self._peek()
        if token is not None and token.kind == "ident" and token.value.lower() in keywords:
            self.position += 1
            return True
        return False

    def _expect_keyword(self, keyword: str) -> None:
        if not self._accept_keyword(keyword):
            token = self._peek()
            self._error(
                f"expected {keyword.upper()}, found "
                f"{token if token is not None else 'end of statement'}"
            )

    def _accept_op(self, op: str) -> bool:
        token = self._peek()
        if token is not None and token.kind == "op" and token.value == op:
            self.position += 1
            return True
        return False

    def _expect_op(self, op: str) -> None:
        if not self._accept_op(op):
            token = self._peek()
            self._error(
                f"expected {op!r}, found "
                f"{token if token is not None else 'end of statement'}"
            )

    # -- expression grammar ---------------------------------------------------------

    def parse_scalar(self) -> Expression:
        """additive := term (('+'|'-') term)*"""
        left = self._parse_term()
        while True:
            if self._accept_op("+"):
                left = left + self._parse_term()
            elif self._accept_op("-"):
                left = left - self._parse_term()
            else:
                return left

    def _parse_term(self) -> Expression:
        left = self._parse_factor()
        while True:
            if self._accept_op("*"):
                left = left * self._parse_factor()
            elif self._accept_op("/"):
                left = left / self._parse_factor()
            else:
                return left

    def _parse_factor(self) -> Expression:
        token = self._peek()
        if token is None:
            self._error("unexpected end of expression")
        if token.kind == "op" and token.value == "(":
            self._next()
            inner = self.parse_scalar()
            self._expect_op(")")
            return inner
        if token.kind == "op" and token.value == "-":
            self._next()
            return lit(0) - self._parse_factor()
        if token.kind == "number":
            self._next()
            value = float(token.value)
            return lit(int(value)) if value.is_integer() and "." not in token.value else lit(value)
        if token.kind == "ident":
            self._next()
            name = token.value.lower()
            if self._accept_op("."):
                # Qualified reference (table.column): column names are unique
                # across the numeric TPC-H relations, so the qualifier only
                # disambiguates for the reader and is dropped here.
                column_token = self._next()
                if column_token.kind != "ident":
                    self._error(
                        f"expected a column name after '.', found {column_token}",
                        token=column_token,
                    )
                name = column_token.value.lower()
            return col(name)
        self._error(f"unexpected token {token}", token=token)

    def parse_column_ref(self) -> Tuple[Optional[str], str]:
        """A possibly qualified column reference: ``(qualifier, column)``."""
        token = self._next()
        if token.kind != "ident":
            self._error(f"expected a column name, found {token}", token=token)
        first = token.value.lower()
        if self._accept_op("."):
            column_token = self._next()
            if column_token.kind != "ident":
                self._error(
                    f"expected a column name after '.', found {column_token}",
                    token=column_token,
                )
            return first, column_token.value.lower()
        return None, first

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
            f"{token if token is not None else 'end of statement'}"
        )

    # -- select list ---------------------------------------------------------------------

    def parse_select_item(self, index: int) -> _SelectItem:
        token = self._peek()
        aggregate: Optional[AggregateSpec] = None
        expression: Optional[Expression] = None
        default_alias = f"col{index}"
        if (
            token is not None
            and token.kind == "ident"
            and token.value.lower() in _AGGREGATE_NAMES
            and self.position + 1 < len(self.tokens)
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
                self._error(f"expected an alias, found {alias_token}", token=alias_token)
            alias = alias_token.value.lower()
        if aggregate is not None:
            aggregate = AggregateSpec(aggregate.function, aggregate.expression, alias)
        return _SelectItem(expression=expression, aggregate=aggregate, alias=alias)


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
    table_token = parser._next()
    if table_token.kind != "ident":
        parser._error(f"expected a table name, found {table_token}", token=table_token)
    left_table = table_token.value.lower()
    paths = catalog.paths_of(left_table)

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
        right_token = parser._next()
        if right_token.kind != "ident":
            parser._error(
                f"expected a table name after JOIN, found {right_token}",
                token=right_token,
            )
        right_table = right_token.value.lower()
        if right_table in joined_tables:
            parser._error(
                f"table {right_table!r} already joined (self-joins are not "
                f"supported)",
                token=right_token,
            )
        catalog.paths_of(right_table)  # validate early
        parser._expect_keyword("on")
        condition_token = parser._peek()
        first_ref = parser.parse_column_ref()
        if not parser._accept_op("="):
            found = parser._peek()
            parser._error(
                f"unsupported join condition: expected '=' between two column "
                f"references, found "
                f"{found if found is not None else 'end of statement'}"
            )
        second_ref = parser.parse_column_ref()
        try:
            left_key, right_key = _resolve_join_keys(
                catalog, joined_tables, right_table, first_ref, second_ref
            )
        except SqlParseError:
            raise
        except SqlSyntaxError as exc:
            parser._error(str(exc), token=condition_token)
        join_clauses.append((right_table, left_key, right_key))
        joined_tables.append(right_table)

    predicate: Optional[Expression] = None
    if parser._accept_keyword("where"):
        predicate = parser.parse_predicate()

    group_by: List[str] = []
    if parser._accept_keyword("group"):
        parser._expect_keyword("by")
        group_by.append(_expect_column(parser))
        while parser._accept_op(","):
            group_by.append(_expect_column(parser))

    order_by: List[str] = []
    descending = False
    if parser._accept_keyword("order"):
        parser._expect_keyword("by")
        order_by.append(_expect_column(parser))
        while parser._accept_op(","):
            order_by.append(_expect_column(parser))
        if parser._accept_keyword("desc"):
            descending = True
        else:
            parser._accept_keyword("asc")

    limit: Optional[int] = None
    if parser._accept_keyword("limit"):
        limit_token = parser._next()
        if limit_token.kind != "number":
            parser._error(
                f"expected a number after LIMIT, found {limit_token}",
                token=limit_token,
            )
        limit = int(float(limit_token.value))

    if parser._peek() is not None:
        parser._error(f"unexpected trailing tokens starting at {parser._peek()}")

    # -- build the logical plan -------------------------------------------------------
    plan: LogicalPlan = ScanNode(
        paths=paths,
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
                raise SqlSyntaxError(
                    f"non-aggregated select item {item.alias!r} must be a GROUP BY column"
                )
        plan = AggregateNode(child=plan, group_by=tuple(group_by), aggregates=tuple(aggregates))
    else:
        if group_by:
            raise SqlSyntaxError("GROUP BY without aggregates is not supported")
        columns = []
        for item in plain:
            if not isinstance(item.expression, Column):
                raise SqlSyntaxError("computed select items require an aggregate or a plain column")
            columns.append(item.expression.name)
        plan = ProjectNode(child=plan, columns=tuple(columns))

    if order_by:
        plan = OrderByNode(child=plan, keys=tuple(order_by), descending=descending)
    if limit is not None:
        plan = LimitNode(child=plan, count=limit)
    return plan


def _expect_column(parser: _Parser) -> str:
    return parser.parse_column_ref()[1]


def _resolve_join_keys(
    catalog: SqlCatalog,
    left_tables: Sequence[str],
    right_table: str,
    first_ref: Tuple[Optional[str], str],
    second_ref: Tuple[Optional[str], str],
) -> Tuple[str, str]:
    """Assign the two ON-clause columns to the join sides.

    The "left" side of the n-th join is every table already in scope
    (``left_tables``).  A ``table.column`` qualifier decides directly;
    unqualified columns are looked up in the catalog's registered schemas;
    when neither source resolves a column, the textual order (left key
    first) is assumed.
    """

    def side_of(qualifier: Optional[str], column: str) -> Optional[str]:
        if qualifier is not None:
            if qualifier in left_tables:
                return "left"
            if qualifier == right_table:
                return "right"
            raise SqlSyntaxError(
                f"unknown table {qualifier!r} in join condition "
                f"(expected one of {sorted(left_tables)} or {right_table!r})"
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
        raise SqlSyntaxError(
            "join condition must reference one column of each table"
        )
    left_key = first_ref[1] if first_side == "left" else second_ref[1]
    right_key = second_ref[1] if second_side == "right" else first_ref[1]
    return left_key, right_key
