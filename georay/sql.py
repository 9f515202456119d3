"""SQL text front-end — compiles a single-table OGR-SQL-style SELECT onto
the engine's existing Ray Data operators (VERDICT r2 next-6; scope =
ogr/swq.cpp:42-97 operator set + the SELECT/GROUP BY/ORDER BY/LIMIT
surface of gcore/gdaldataset.cpp:5386's OGR SQL dialect).

Grammar::

    SELECT [DISTINCT] item (',' item)*
    FROM table ([INNER|LEFT] JOIN table ON col '=' col)*
    [WHERE expr]                      -- georay.expr grammar
    [GROUP BY col (',' col)*]
    [HAVING expr-with-aggregates]
    [ORDER BY col-or-expr [ASC|DESC] (',' ...)*]
    [LIMIT n [OFFSET m]]

    item := agg | win | expr [AS name]
    agg  := (COUNT '(' '*' ')' | COUNT '(' [DISTINCT] expr ')'
            | SUM|AVG|MIN|MAX '(' expr ')') [AS name]
    win  := (agg | ROW_NUMBER() | RANK() | DENSE_RANK()
            | LAG|LEAD '(' col [',' offset [',' default]] ')')
            OVER '(' PARTITION BY col (',' col)*
                     [ORDER BY col [ASC|DESC] (',' ...)*] ')' [AS name]

    WHERE additionally accepts subqueries: uncorrelated
    ``col IN (SELECT ...)`` (distinct key set resolved once, broadcast
    as a vectorized membership test — a broadcast semi-join), scalar
    subqueries ``(SELECT agg(...) ...)`` spliced in as literals, and
    correlated ``[NOT] EXISTS (SELECT ... WHERE inner = outer [AND …])``
    with one top-level equality correlation (decorrelated to the same
    broadcast semi-join — the subquery runs ONCE, never per row).

Compilation is Ray-Data-first: WHERE → vectorized ``map_batches`` filter;
scalar projections → one ``map_batches``; GROUP BY + aggregates → one
``map_batches`` computing key/input columns then ``groupby().aggregate``
(Sum/Count/Min/Max/Mean — Ray's native distributed partials); DISTINCT →
``groupby(all).map_groups`` first-row; ORDER BY → ``Dataset.sort``;
HAVING → a post-aggregate filter (its aggregates must also appear in the
SELECT list).  ``LIMIT n OFFSET m`` slices the (small, post-ORDER BY)
result.  ``JOIN ... ON`` folds left through the engine's hash-shuffle
``equi_join`` (ogr_gensql.cpp:1510-1531's JOIN re-expressed).  Window
functions compile onto :func:`georay.windows.window_compute` — the
SQLite-dialect window surface OGR reaches via its SQLite VFS
(gcore/gdaldataset.cpp:5386); a window call must be a top-level select
item (not nested in an expression).  Correlations beyond one EXISTS
equality are out of scope — rewrite as a JOIN.

Every relation carries its Arrow schema; no planner step executes a plan
to learn one.  A base table brings its own (read_parquet and from_arrow
plans know it; a caller plan that does not is asked once, on entry); a
``map_batches`` step runs its batch function on the driver over the
empty input table; an aggregate, window or join step follows its
operator's output rule; a set operation takes its first branch's.
"""

from __future__ import annotations

from typing import NamedTuple

import pyarrow as pa
import pyarrow.compute as pc

from .expr import FilterSyntaxError, _eval, _Parser, _tokenize

__all__ = ["execute_sql", "SqlError"]


class SqlError(FilterSyntaxError):
    pass


_AGG_FUNCS = {"COUNT", "SUM", "AVG", "MIN", "MAX",
              "STDDEV_POP", "STDDEV_SAMP", "MEDIAN", "QUANTILE_CONT"}
_QUANT_FUNCS = ("MEDIAN", "QUANTILE_CONT")
_WINDOW_ONLY_FUNCS = {"ROW_NUMBER", "RANK", "DENSE_RANK", "LAG", "LEAD",
                      "FIRST_VALUE", "LAST_VALUE", "NTILE",
                      "PERCENT_RANK", "CUME_DIST"}
_CLAUSE_KWS = {"FROM", "WHERE", "GROUP", "HAVING", "QUALIFY", "ORDER",
               "LIMIT", "OFFSET", "BY", "ASC", "DESC", "AS", "SELECT",
               "DISTINCT", "JOIN", "INNER", "LEFT", "RIGHT", "FULL",
               "OUTER", "ON", "OVER", "PARTITION"}


def _split_clauses(sql: str):
    """Token-level clause splitter (string literals already tokenized, so
    keywords inside strings can't confuse it)."""
    toks = _tokenize(sql)
    # classify keywords our expr tokenizer labels as identifiers
    norm = []
    for i, (k, v) in enumerate(toks):
        if k == "ident" and v.upper() in (_CLAUSE_KWS | _AGG_FUNCS):
            # LEFT( / RIGHT( are the string FUNCTIONS, not join keywords
            if v.upper() in ("LEFT", "RIGHT") and i + 1 < len(toks) \
                    and toks[i + 1] == ("op", "("):
                norm.append((k, v))
            else:
                norm.append(("sqlkw", v.upper()))
        else:
            norm.append((k, v))
    return norm


_EXTRACT_PARTS = {"YEAR": "YEAR", "MONTH": "MONTH", "DAY": "DAY",
                  "HOUR": "HOUR", "MINUTE": "MINUTE", "SECOND": "SECOND",
                  "DOW": "DAYOFWEEK", "DAYOFWEEK": "DAYOFWEEK"}


def _rewrite_extract(toks):
    """``EXTRACT(part FROM expr)`` → ``PART(expr)`` — token-level sugar
    onto the existing date-part scalar functions (DuckDB/standard SQL
    spelling; the reference's SQLite dialect exposes strftime instead)."""
    out = []
    i = 0
    n = len(toks)
    while i < n:
        k, v = toks[i]
        if (k in ("ident", "sqlkw") and str(v).upper() == "EXTRACT"
                and i + 3 < n and toks[i + 1] == ("op", "(")
                and toks[i + 2][0] in ("ident", "sqlkw")
                and toks[i + 3] == ("sqlkw", "FROM")):
            part = str(toks[i + 2][1]).upper()
            if part not in _EXTRACT_PARTS:
                raise SqlError(f"EXTRACT: unsupported part {part!r}")
            out += [("ident", _EXTRACT_PARTS[part]), ("op", "(")]
            i += 4
            continue
        out.append((k, v))
        i += 1
    return out


class _SelectItem:
    __slots__ = ("kind", "func", "distinct", "expr_toks", "name", "star",
                 "over", "win_args", "filt_toks")

    def __init__(self, kind, func=None, distinct=False, expr_toks=None,
                 name=None, star=False, over=None, win_args=None):
        self.filt_toks = None       # FILTER (WHERE ...) condition tokens
        self.kind = kind            # "agg" | "expr" | "window"
        self.func = func
        self.distinct = distinct
        self.expr_toks = expr_toks  # token list of the inner expression
        self.name = name
        self.star = star
        self.over = over            # (partition_by, order_by) for windows
        self.win_args = win_args    # extra literal args (LAG offset/default)


def _parse_expr_tokens(toks):
    p = _Parser(toks)
    node = p.or_()
    return node, p.i


class _SqlParser:
    def __init__(self, sql):
        self.toks = _split_clauses(sql) if isinstance(sql, str) else sql
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect_kw(self, kw):
        k, v = self.next()
        if (k, v) != ("sqlkw", kw):
            raise SqlError(f"expected {kw}, got {v!r}")

    def _expr_until(self, stop_preds):
        """Collect raw tokens until a top-level stop keyword / comma."""
        depth = 0
        out = []
        while True:
            k, v = self.peek()
            if k is None:
                break
            if depth == 0 and any(p(k, v) for p in stop_preds):
                break
            if (k, v) == ("op", "("):
                depth += 1
            elif (k, v) == ("op", ")"):
                if depth == 0:
                    break
                depth -= 1
            out.append(self.next())
        return out

    def parse(self):
        self.expect_kw("SELECT")
        distinct = False
        if self.peek() == ("sqlkw", "DISTINCT"):
            self.next()
            distinct = True
        if self.peek() == ("op", "*"):
            # SELECT * — expanded to the FROM/JOIN scope's columns in
            # _execute (the schema is only known there)
            self.next()
            items = "*"
        else:
            items = [self._select_item()]
            while self.peek() == ("op", ","):
                self.next()
                items.append(self._select_item())
        if self.peek() != ("sqlkw", "FROM"):
            # FROM-less SELECT (constants / scalar expressions): runs
            # over the synthetic one-row __dual__ table
            table = "__dual__"
            k = "ident"
        else:
            self.expect_kw("FROM")
            k, table = self.next()
        if k not in ("ident", "sqlkw"):
            raise SqlError(f"expected table name, got {table!r}")
        aliases = {}
        from_alias = None
        if self.peek() == ("sqlkw", "AS"):
            self.next()
            kk, al = self.next()
            if kk != "ident":
                raise SqlError(f"expected table alias, got {al!r}")
            aliases[al] = table
            from_alias = al
        elif self.peek()[0] == "ident" \
                and str(self.peek()[1]).upper() != "ASOF":
            from_alias = self.peek()[1]
            aliases[from_alias] = table
            self.next()
        joins = []
        while (self.peek()[0] == "sqlkw" and self.peek()[1] in (
                "JOIN", "INNER", "LEFT", "RIGHT", "FULL")) or (
                self.peek()[0] == "ident"
                and str(self.peek()[1]).upper() == "ASOF"):
            k, v = self.next()
            jtype = "inner"
            if k == "ident":           # ASOF JOIN (DuckDB syntax)
                jtype = "asof"
                self.expect_kw("JOIN")
            elif v in ("LEFT", "RIGHT", "FULL"):
                jtype = {"LEFT": "left_outer", "RIGHT": "right_outer",
                         "FULL": "full_outer"}[v]
                if self.peek() == ("sqlkw", "OUTER"):
                    self.next()
                self.expect_kw("JOIN")
            elif v == "INNER":
                self.expect_kw("JOIN")
            kk, t2 = self.next()
            if kk not in ("ident", "sqlkw"):
                raise SqlError(f"expected table name, got {t2!r}")
            jalias = None
            if self.peek() == ("sqlkw", "AS"):
                self.next()
                kk, jalias = self.next()
                if kk != "ident":
                    raise SqlError(f"expected table alias, got {jalias!r}")
                aliases[jalias] = t2
            elif self.peek()[0] == "ident":
                jalias = self.peek()[1]
                aliases[jalias] = t2
                self.next()
            self.expect_kw("ON")
            pairs = []
            ok_ops = ("=", ">=", "<=") if jtype == "asof" else ("=",)
            while True:
                ca = self._on_col()
                kk, vv = self.next()
                if kk != "op" or vv not in ok_ops:
                    raise SqlError(
                        f"JOIN ON needs col = col"
                        + (" (or one >=/<= for ASOF)"
                           if jtype == "asof" else "")
                        + f", got {vv!r}")
                pairs.append((ca, self._on_col(), vv))
                if self.peek() == ("kw", "AND"):
                    self.next()
                    continue
                break
            joins.append((jtype, t2, pairs, jalias))
        where = group = having = None
        order = []
        limit = offset = None
        stop = [lambda k, v: k == "sqlkw" and v in
                ("GROUP", "HAVING", "QUALIFY", "ORDER", "LIMIT")]
        if self.peek() == ("sqlkw", "WHERE"):
            self.next()
            where = self._expr_until(stop)
        rollup = False
        grouping_sets = None
        if self.peek() == ("sqlkw", "GROUP"):
            self.next()
            self.expect_kw("BY")
            pk, pv = self.peek()
            if pk == "ident" and str(pv).upper() == "ALL":
                # GROUP BY ALL (DuckDB sugar): group by every
                # non-aggregate select item — by its alias when named,
                # else by its expression tokens
                self.next()
                group = []
                for it in items:
                    if it.kind == "agg" or _find_agg_calls(
                            it.expr_toks or []):
                        continue
                    if it.name:
                        group.append(it.name)
                    elif (len(it.expr_toks or []) == 1
                          and it.expr_toks[0][0] == "ident"):
                        group.append(it.expr_toks[0][1])
                    else:
                        group.append(list(it.expr_toks))
                if not group:
                    raise SqlError("GROUP BY ALL: no non-aggregate "
                                   "select items")
                pk, pv = self.peek()
            elif pk == "ident" and str(pv).upper() in ("ROLLUP", "CUBE"):
                rollup = str(pv).upper().lower()   # "rollup" | "cube"
                self.next()
                kk, vv = self.next()
                if (kk, vv) != ("op", "("):
                    raise SqlError(f"{rollup.upper()} needs (cols...)")
            elif pk == "ident" and str(pv).upper() == "GROUPING":
                # GROUPING SETS ((a, b), (a), ()) — plain columns only
                self.next()
                kk, vv = self.next()
                if str(vv).upper() != "SETS":
                    raise SqlError("expected SETS after GROUPING")
                if self.next() != ("op", "("):
                    raise SqlError("GROUPING SETS needs ( ... )")
                grouping_sets = []
                group = []
                while True:
                    if self.next() != ("op", "("):
                        raise SqlError("GROUPING SETS: expected (")
                    one = []
                    if self.peek() != ("op", ")"):
                        while True:
                            kk, vv = self.next()
                            if kk != "ident":
                                raise SqlError("GROUPING SETS items "
                                               "must be column names")
                            one.append(vv)
                            if vv not in group:
                                group.append(vv)
                            if self.peek() == ("op", ","):
                                self.next()
                                continue
                            break
                    if self.next() != ("op", ")"):
                        raise SqlError("GROUPING SETS: expected )")
                    grouping_sets.append(tuple(one))
                    if self.peek() == ("op", ","):
                        self.next()
                        continue
                    break
                if self.next() != ("op", ")"):
                    raise SqlError("GROUPING SETS: expected final )")
            if grouping_sets is None and group is None:
                group = [self._group_item(bool(rollup))]
                while self.peek() == ("op", ","):
                    self.next()
                    group.append(self._group_item(bool(rollup)))
                if rollup:
                    kk, vv = self.next()
                    if (kk, vv) != ("op", ")"):
                        raise SqlError(f"{rollup.upper()}: expected )")
        if self.peek() == ("sqlkw", "HAVING"):
            self.next()
            having = self._expr_until(stop)
        qualify = None
        if self.peek() == ("sqlkw", "QUALIFY"):
            self.next()
            qualify = self._expr_until(stop)
        if self.peek() == ("sqlkw", "ORDER"):
            self.next()
            self.expect_kw("BY")
            order = [self._order_item()]
            while self.peek() == ("op", ","):
                self.next()
                order.append(self._order_item())
        if self.peek() == ("sqlkw", "LIMIT"):
            self.next()
            k, v = self.next()
            if k != "num":
                raise SqlError("LIMIT needs a number")
            limit = int(v)
            if self.peek() == ("sqlkw", "OFFSET"):
                self.next()
                k, v = self.next()
                if k != "num":
                    raise SqlError("OFFSET needs a number")
                offset = int(v)
        if self.peek() != (None, None):
            raise SqlError(f"trailing tokens: {self.peek()!r}")
        return dict(items=items, distinct=distinct, table=table,
                    joins=joins, where=where, group=group, having=having,
                    qualify=qualify, order=order, limit=limit,
                    offset=offset, aliases=aliases,
                    from_alias=from_alias, rollup=rollup,
                    grouping_sets=grouping_sets)

    def _on_col(self):
        """JOIN ON column — a plain (table-unqualified) name; the two
        sides are resolved against the table schemas at compile time, so
        names must be unambiguous across the joined tables (dotted
        qualification is not in the expr token grammar)."""
        k, v = self.next()
        if k != "ident":
            raise SqlError(f"expected ON column name, got {v!r}")
        return v

    def _ident(self):
        k, v = self.next()
        if k != "ident":
            raise SqlError(f"expected column name, got {v!r}")
        return v

    def _group_item(self, in_rollup: bool = False):
        """One GROUP BY entry: a column name (str), a 1-based select
        ordinal (int), or an expression (token list — grouped via a
        hidden computed key column, or the matching select item)."""
        stop = [lambda k, v: k == "sqlkw" and v in
                ("HAVING", "QUALIFY", "ORDER", "LIMIT"),
                lambda k, v: (k, v) == ("op", ",")]
        toks = self._expr_until(stop)
        if not toks:
            raise SqlError("empty GROUP BY item")
        if len(toks) == 1 and toks[0][0] == "ident":
            return toks[0][1]
        if len(toks) == 1 and toks[0][0] == "num":
            n = toks[0][1]
            if float(n) != int(float(n)):
                raise SqlError(f"bad GROUP BY ordinal {n!r}")
            return int(float(n))
        return toks

    def _order_item(self, extra_stop=None):
        stop = [lambda k, v: k == "sqlkw" and v in ("ASC", "DESC",
                                                    "LIMIT", "OFFSET"),
                lambda k, v: k == "ident" and str(v).upper() == "NULLS",
                lambda k, v: (k, v) == ("op", ",")]
        if extra_stop is not None:
            stop.append(extra_stop)
        toks = self._expr_until(stop)
        if not toks:
            raise SqlError("empty ORDER BY item")
        desc = False
        if self.peek() == ("sqlkw", "DESC"):
            self.next()
            desc = True
        elif self.peek() == ("sqlkw", "ASC"):
            self.next()
        nf = None                            # NULLS FIRST|LAST
        if self.peek()[0] == "ident" \
                and str(self.peek()[1]).upper() == "NULLS":
            self.next()
            k, v = self.next()
            v = str(v).upper()
            if v not in ("FIRST", "LAST"):
                raise SqlError("expected FIRST or LAST after NULLS")
            nf = v == "FIRST"
        if len(toks) == 1 and toks[0][0] == "ident":
            return toks[0][1], desc, nf      # plain column (fast path)
        if len(toks) == 1 and toks[0][0] == "num" \
                and float(toks[0][1]) == int(float(toks[0][1])):
            return int(float(toks[0][1])), desc, nf  # 1-based ordinal
        return toks, desc, nf                # expression -> hidden key

    def _agg_call_is_subexpr(self) -> bool:
        """True when the aggregate call at the cursor is part of a
        larger expression (``SUM(x) / COUNT(*)``) — then the item must
        parse as an expression and the aggregates hoist later."""
        j = self.i + 1
        if j >= len(self.toks) or self.toks[j] != ("op", "("):
            return False
        depth = 0
        while j < len(self.toks):
            if self.toks[j] == ("op", "("):
                depth += 1
            elif self.toks[j] == ("op", ")"):
                depth -= 1
                if depth == 0:
                    break
            j += 1
        j += 1
        if j >= len(self.toks):
            return False
        k2, v2 = self.toks[j]
        return k2 == "op" and v2 in ("+", "-", "*", "/", "%", "||")

    def _select_item(self):
        k, v = self.peek()
        if k == "sqlkw" and v in _AGG_FUNCS \
                and not self._agg_call_is_subexpr():
            self.next()
            func = v
            kk, vv = self.next()
            if (kk, vv) != ("op", "("):
                raise SqlError(f"{func} needs (...)")
            distinct = False
            if self.peek() == ("sqlkw", "DISTINCT"):
                self.next()
                distinct = True
            if func == "COUNT" and self.peek() == ("op", "*"):
                self.next()
                item = _SelectItem("agg", func=func, star=True)
            else:
                toks = self._expr_until([lambda k, v: False])
                item = _SelectItem("agg", func=func, distinct=distinct,
                                   expr_toks=toks)
            kk, vv = self.next()
            if (kk, vv) != ("op", ")"):
                raise SqlError(f"{func}: expected ), got {vv!r}")
            pk, pv = self.peek()
            if pk == "ident" and str(pv).upper() == "FILTER":
                # agg(...) FILTER (WHERE cond) — the input is nulled
                # where cond fails (COUNT/SUM/AVG/MIN/MAX/STDDEV all
                # ignore nulls, so this is exact)
                self.next()
                kk, vv = self.next()
                if (kk, vv) != ("op", "("):
                    raise SqlError("FILTER needs (WHERE ...)")
                kk, vv = self.next()
                if str(vv).upper() != "WHERE":
                    raise SqlError("FILTER needs WHERE")
                item.filt_toks = self._expr_until([lambda k, v: False])
                if not item.filt_toks:
                    raise SqlError("empty FILTER condition")
                kk, vv = self.next()
                if (kk, vv) != ("op", ")"):
                    raise SqlError("FILTER: expected )")
            if self.peek() == ("sqlkw", "OVER"):
                if item.distinct:
                    raise SqlError("DISTINCT not supported in window "
                                   "aggregates")
                if item.filt_toks:
                    raise SqlError("FILTER not supported in window "
                                   "aggregates")
                item.kind = "window"
                item.func = func.lower()
                item.over = self._over_clause()
        else:
            stop = [lambda k, v: k == "sqlkw" and v in
                    ("FROM", "AS", "OVER"),
                    lambda k, v: (k, v) == ("op", ",")]
            toks = self._expr_until(stop)
            if not toks:
                raise SqlError("empty select item")
            item = _SelectItem("expr", expr_toks=toks)
            # bare alias (``expr alias``, no AS): the expression parse
            # consumes every token EXCEPT one trailing identifier — this
            # can't misfire on ``a IS NULL``/``x NOT LIKE y`` because
            # those parses consume the final token too
            if len(toks) >= 2 and toks[-1][0] == "ident":
                try:
                    _, used = _parse_expr_tokens(toks)
                except Exception:
                    used = None
                if used == len(toks) - 1:
                    item = _SelectItem("expr", expr_toks=toks[:-1],
                                       name=toks[-1][1])
            if self.peek() == ("sqlkw", "OVER"):
                item = self._window_item(toks)
                item.over = self._over_clause()
        if self.peek() == ("sqlkw", "AS"):
            self.next()
            item.name = self._ident()
        elif item.name is None and self.peek()[0] == "ident" \
                and str(self.peek()[1]).upper() != "FILTER":
            # bare alias after an aggregate / window call
            item.name = self._ident()
        return item

    def _window_item(self, toks):
        """Classify ``FUNC(args)`` tokens preceding OVER as a window-only
        function (ROW_NUMBER/RANK/DENSE_RANK/LAG/LEAD)."""
        if not toks or toks[0][0] != "ident" \
                or toks[0][1].upper() not in _WINDOW_ONLY_FUNCS \
                or len(toks) < 3 or toks[1] != ("op", "(") \
                or toks[-1] != ("op", ")"):
            raise SqlError("OVER must follow an aggregate or "
                           "ROW_NUMBER/RANK/DENSE_RANK/LAG/LEAD call")
        func = toks[0][1].upper()
        inner = toks[2:-1]
        if func in ("ROW_NUMBER", "RANK", "DENSE_RANK",
                    "PERCENT_RANK", "CUME_DIST"):
            if inner:
                raise SqlError(f"{func} takes no arguments")
            return _SelectItem("window", func=func.lower())
        if func == "NTILE":
            if len(inner) != 1 or inner[0][0] != "num" \
                    or float(inner[0][1]) != int(float(inner[0][1])) \
                    or int(float(inner[0][1])) < 1:
                raise SqlError("NTILE needs a positive integer literal")
            return _SelectItem(
                "window", func="ntile",
                win_args={"ntile_n": int(float(inner[0][1]))})
        if func in ("FIRST_VALUE", "LAST_VALUE"):
            if not inner:
                raise SqlError(f"{func} needs an argument")
            return _SelectItem("window", func=func.lower(),
                               expr_toks=inner)
        # LAG/LEAD(col [, offset [, default]])
        parts, depth, cur = [], 0, []
        for t in inner:
            if t == ("op", "(") :
                depth += 1
            elif t == ("op", ")"):
                depth -= 1
            if depth == 0 and t == ("op", ","):
                parts.append(cur)
                cur = []
            else:
                cur.append(t)
        if cur:
            parts.append(cur)
        if not 1 <= len(parts) <= 3:
            raise SqlError(f"{func} takes 1-3 arguments")
        def lit(toks_, what):
            neg = False
            if len(toks_) == 2 and toks_[0] == ("op", "-"):
                neg, toks_ = True, toks_[1:]
            if len(toks_) != 1 or toks_[0][0] not in ("num", "str"):
                raise SqlError(f"{func} {what} must be a literal")
            v = toks_[0][1]
            return -v if neg else v

        win_args = {}
        if len(parts) >= 2:
            win_args["offset"] = int(lit(parts[1], "offset"))
        if len(parts) == 3:
            win_args["default"] = lit(parts[2], "default")
        return _SelectItem("window", func=func.lower(),
                           expr_toks=parts[0], win_args=win_args)

    def _over_clause(self):
        self.expect_kw("OVER")
        kk, vv = self.next()
        if (kk, vv) != ("op", "("):
            raise SqlError("OVER needs (...)")
        part, order, frame = [], [], None
        if self.peek() == ("sqlkw", "PARTITION"):
            self.next()
            self.expect_kw("BY")
            part.append(self._ident())
            while self.peek() == ("op", ","):
                self.next()
                part.append(self._ident())
        if self.peek() == ("sqlkw", "ORDER"):
            self.next()
            self.expect_kw("BY")
            rows_stop = (lambda k, v:
                         k in ("ident", "kw", "sqlkw")
                         and str(v).upper() in ("ROWS", "RANGE",
                                                "GROUPS"))
            order.append(self._order_item(rows_stop))
            while self.peek() == ("op", ","):
                self.next()
                order.append(self._order_item(rows_stop))
        k, v = self.peek()
        if k in ("ident", "kw", "sqlkw") \
                and str(v).upper() in ("ROWS", "RANGE", "GROUPS"):
            ftype = str(v).upper().lower()
            self.next()
            frame = self._frame_extent(ftype)
        kk, vv = self.next()
        if (kk, vv) != ("op", ")"):
            raise SqlError(f"OVER: expected ), got {vv!r}")
        return (part, order, frame)

    def _frame_extent(self, ftype="rows"):
        """``ROWS|RANGE BETWEEN <bound> AND <bound>`` (or the
        single-bound shorthand ``<bound>`` ≡ start..CURRENT ROW) →
        ``(lo, hi, ftype)`` signed offsets, ``None`` = unbounded.  For
        RANGE the offsets are numeric value distances applied to the
        (single) ORDER BY key, CURRENT ROW ≡ offset 0 (which by
        searchsorted left/right semantics includes peers — exactly the
        SQL RANGE CURRENT ROW rule).  GROUPS offsets count PEER GROUPS
        (runs of equal ORDER BY keys), integer like ROWS."""
        k, v = self.peek()
        if k in ("kw", "ident", "sqlkw") and str(v).upper() == "BETWEEN":
            self.next()
            lo = self._frame_bound(start=True, ftype=ftype)
            kk, vv = self.next()
            if not (kk in ("kw", "ident") and str(vv).upper() == "AND"):
                raise SqlError(f"{ftype.upper()} BETWEEN needs AND")
            hi = self._frame_bound(start=False, ftype=ftype)
        else:
            lo = self._frame_bound(start=True, ftype=ftype)
            hi = 0
        if lo is not None and hi is not None and lo > hi:
            raise SqlError("frame start is after frame end")
        return (lo, hi, ftype)

    def _frame_bound(self, start: bool, ftype="rows"):
        k, v = self.next()
        u = str(v).upper()
        if u == "UNBOUNDED":
            kk, d = self.next()
            du = str(d).upper()
            if du == "PRECEDING":
                if not start:
                    raise SqlError("frame end cannot be UNBOUNDED "
                                   "PRECEDING")
                return None
            if du == "FOLLOWING":
                if start:
                    raise SqlError("frame start cannot be UNBOUNDED "
                                   "FOLLOWING")
                return None
            raise SqlError(f"UNBOUNDED needs PRECEDING/FOLLOWING, "
                           f"got {d!r}")
        if u == "CURRENT":
            kk, d = self.next()
            if str(d).upper() != "ROW":
                raise SqlError("CURRENT must be CURRENT ROW")
            return 0
        if k == "num":
            kk, d = self.next()
            du = str(d).upper()
            if ftype == "range":
                off = float(v)
            else:
                if float(v) != int(float(v)):
                    raise SqlError(f"ROWS frame offset must be an "
                                   f"integer, got {v!r}")
                off = int(float(v))
            if du == "PRECEDING":
                return -off
            if du == "FOLLOWING":
                return off
            raise SqlError(f"frame offset needs PRECEDING/FOLLOWING, "
                           f"got {d!r}")
        raise SqlError(f"bad frame bound {v!r}")


def _find_agg_calls(toks):
    """Top-level aggregate calls inside an expression token list →
    [(start, end, FUNC, inner_tokens)].  Calls followed by OVER are
    window functions (not hoisted); DISTINCT / FILTER inside an
    expression aggregate are rejected."""
    out = []
    i = 0
    n = len(toks)
    while i < n:
        k, v = toks[i]
        if k in ("ident", "sqlkw") and str(v).upper() in _AGG_FUNCS \
                and i + 1 < n and toks[i + 1] == ("op", "("):
            depth = 0
            j = i + 1
            while j < n:
                if toks[j] == ("op", "("):
                    depth += 1
                elif toks[j] == ("op", ")"):
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if j >= n:
                raise SqlError(f"unbalanced parens in {v} call")
            end = j + 1
            if end < n and toks[end] == ("sqlkw", "OVER"):
                i = end
                continue
            inner = toks[i + 2:j]
            if inner and inner[0] == ("sqlkw", "DISTINCT"):
                raise SqlError("DISTINCT aggregates inside expressions "
                               "are not supported")
            if end < n and toks[end][0] == "ident" \
                    and str(toks[end][1]).upper() == "FILTER":
                raise SqlError("FILTER on an aggregate inside an "
                               "expression is not supported")
            out.append((i, end, str(v).upper(), inner))
            i = end
            continue
        i += 1
    return out


def _item_default_name(item: _SelectItem, idx: int) -> str:
    if item.name:
        return item.name
    if item.kind == "expr" and len(item.expr_toks) == 1 \
            and item.expr_toks[0][0] == "ident":
        return item.expr_toks[0][1]
    return f"col{idx}"


def _agg_signature(item: _SelectItem) -> tuple:
    toks = tuple(item.expr_toks) if item.expr_toks else ()
    return (item.func, item.distinct, item.star, toks)


class _Rel(NamedTuple):
    """One relation of a plan: its rows (a lazy Dataset, or a small
    driver-side pyarrow table) and their Arrow schema, derived while the
    plan is built so that no planner step runs a plan to learn it."""
    ds: object
    schema: pa.Schema

    def map(self, fn) -> "_Rel":
        """``map_batches(fn)``; its schema is ``fn`` run on the driver
        over the empty input table."""
        return _Rel(self.ds.map_batches(fn, batch_format="pyarrow"),
                    fn(self.schema.empty_table()).schema)

    def shuffle(self, pre, key, post) -> "_Rel":
        """``pre`` per block, then ``post`` per ``key`` group; its schema
        is ``post(pre(empty))`` on the driver."""
        ds = (self.ds.map_batches(pre, batch_format="pyarrow")
              .groupby(key).map_groups(post, batch_format="pyarrow"))
        return _Rel(ds, post(pre(self.schema.empty_table())).schema)


def _base_rel(ds) -> _Rel:
    """A caller's table: read_parquet / from_arrow plans know their
    schema; a caller plan that does not is asked once."""
    s = ds.schema(fetch_if_missing=False)
    if s is None:
        s = ds.schema()
    # pandas blocks report numpy dtypes; object columns arrive as strings
    return _Rel(ds, pa.schema([(n, t if isinstance(t, pa.DataType)
                                else pa.string())
                               for n, t in zip(s.names, s.types)]))


def _as_rel(rel: _Rel) -> _Rel:
    """A relation another query can scan: its rows as a Dataset."""
    return rel._replace(ds=_as_dataset(rel.ds))


def _const(v, n: int):
    """Broadcast a scalar ``_eval`` result to an ``n``-row column (typed
    from its Python value, also when ``n`` is 0)."""
    if isinstance(v, pa.Scalar):
        return pa.repeat(pa.scalar(v.as_py()), n)
    return v


def _project(rel: _Rel, names, nodes) -> _Rel:
    """The select list: column ``name`` = expression ``node``."""
    def project(batch: pa.Table) -> pa.Table:
        return pa.table({name: _const(_eval(node, batch), batch.num_rows)
                         for name, node in zip(names, nodes)})

    return rel.map(project)


def _collect(res, schema: pa.Schema | None = None) -> pa.Table:
    """Materialize a (small, reduced) query result to one pyarrow table;
    an empty result is ``schema``'s empty table (no columns without
    one)."""
    if isinstance(res, pa.Table):
        return res
    tbls = [b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
            for b in res.iter_batches(batch_format="pyarrow")]
    # drop schema-less empty blocks (Ray's Aggregate op can emit them
    # alongside real blocks; concat would fail on the schema mismatch)
    keep = [t for t in tbls if t.num_columns]
    if keep:
        return pa.concat_tables(keep)
    return schema.empty_table() if schema is not None else pa.table({})


_SUBQ_LIMIT = 5_000_000


def _is_exists_tok(tok) -> bool:
    k, v = tok
    return k in ("ident", "kw", "sqlkw") and str(v).upper() == "EXISTS"


def _rewrite_exists(toks, tables, outer_names, outer_quals=()):
    """[NOT] EXISTS (SELECT … FROM t WHERE t.col = outer_col [AND …]) →
    ``outer_col IN (vset)`` — the correlated-subquery shape OGR's SQLite
    dialect gets from sqlite; here the single equality correlation is
    lifted out and the decorrelated inner SELECT DISTINCT runs once, so
    the engine executes a broadcast semi-join (never per-row re-execution
    of the subquery).  Correlations other than one top-level equality are
    rejected with a rewrite hint."""
    out = []
    i = 0
    while i < len(toks):
        neg = False
        j = i
        if (toks[j] == ("kw", "NOT") and j + 1 < len(toks)
                and _is_exists_tok(toks[j + 1])):
            neg = True
            j += 1
        if (_is_exists_tok(toks[j]) and j + 1 < len(toks)
                and toks[j + 1] == ("op", "(")):
            depth = 1
            e = j + 2
            while e < len(toks) and depth:
                if toks[e] == ("op", "("):
                    depth += 1
                elif toks[e] == ("op", ")"):
                    depth -= 1
                    if depth == 0:
                        break
                e += 1
            if depth:
                raise SqlError("unbalanced parens around EXISTS subquery")
            out.extend(_exists_to_in(toks[j + 2:e], tables,
                                     outer_names, neg, outer_quals))
            i = e + 1
            continue
        out.append(toks[i])
        i += 1
    return out


def _split_conjuncts(toks):
    """Split a WHERE token stream into its top-level AND conjuncts."""
    conj, cur, depth = [], [], 0
    for tok in toks:
        if tok == ("op", "("):
            depth += 1
        elif tok == ("op", ")"):
            depth -= 1
        if depth == 0 and tok == ("kw", "AND"):
            conj.append(cur)
            cur = []
        else:
            cur.append(tok)
    conj.append(cur)
    return conj


def _find_equality_correlations(conj, inner_names, outer_names,
                                inner_quals=()):
    """ALL top-level ``inner_col = outer_col`` conjuncts, in order —
    multi-key correlations (the TPC-H Q20 shape: l_partkey = ps_partkey
    AND l_suppkey = ps_suppkey) decorrelate to ONE aggregate grouped by
    the composite key."""
    quals = set(inner_quals)
    out = []
    for ci, c in enumerate(conj):
        if (len(c) == 3 and c[0][0] == "ident" and c[1] == ("op", "=")
                and c[2][0] == "ident"):
            a = _strip_qual(c[0][1], quals)
            b = _strip_qual(c[2][1], quals)
            if a in inner_names and b in outer_names \
                    and b not in inner_names:
                out.append((ci, a, b))
            elif b in inner_names and a in outer_names \
                    and a not in inner_names:
                out.append((ci, b, a))
    return out


def _exists_to_in(inner, tables, outer_names, neg, outer_quals=()):
    q = _SqlParser(list(inner)).parse()
    if q["table"] not in tables:
        raise SqlError(f"unknown table {q['table']!r} in EXISTS")
    inner_names = set(tables[q["table"]].schema.names)
    if not q["where"]:
        raise SqlError("EXISTS subquery needs a correlation predicate "
                       "(… WHERE inner_col = outer_col)")
    inner_quals = {q["table"]} | set(q.get("aliases") or ())
    outer_names = set(outer_names)
    outer_quals = set(outer_quals)

    def classify(name):
        """One identifier → ('inner'|'outer'|None, resolved name).
        Qualified names resolve by their alias scope (the Q21 shape:
        l2.x is the inner instance, l1.x the outer one of the SAME
        table); bare names prefer the inner scope (SQL shadowing)."""
        if "." in name:
            pre, suf = name.split(".", 1)
            if pre in inner_quals and suf in inner_names:
                return ("inner", suf)
            if pre in outer_quals and suf in outer_names:
                return ("outer", suf)
            if name in outer_names:   # renamed outer physical spelling
                return ("outer", name)
            return (None, name)
        if name in inner_names:
            return ("inner", name)
        if name in outer_names:
            return ("outer", name)
        return (None, name)

    conj = _split_conjuncts(q["where"])
    corr = None
    cross = None                 # (index, inner_col, op, outer_col)
    for ci, c in enumerate(conj):
        if (len(c) == 3 and c[0][0] == "ident" and c[1][0] == "op"
                and c[2][0] == "ident" and c[1][1] in ("=", "<>", "!=")):
            (sa, na), (sb, nb) = classify(c[0][1]), classify(c[2][1])
            if {sa, sb} != {"inner", "outer"}:
                continue
            ic, oc = (na, nb) if sa == "inner" else (nb, na)
            if c[1][1] == "=" and corr is None:
                corr = (ci, ic, oc)
            elif c[1][1] in ("<>", "!=") and cross is None:
                cross = (ci, ic, oc)
    if corr is None:
        raise SqlError(
            "EXISTS supports exactly one top-level equality correlation "
            "(inner_col = outer_col); rewrite other shapes as a JOIN")
    ci, inner_col, outer_col = corr
    drop = {ci} | ({cross[0]} if cross else set())
    rest = [c for k, c in enumerate(conj) if k not in drop]
    for c in rest:               # residual conjuncts must be inner-only
        for j, (k, v) in enumerate(c):
            if k == "ident" and not (j + 1 < len(c)
                                     and c[j + 1] == ("op", "(")):
                s, _ = classify(v)
                if s == "outer" and "." in v:
                    raise SqlError(
                        f"EXISTS: outer reference {v!r} is only "
                        "supported in the correlation equality or one "
                        "<> predicate; rewrite other shapes as a JOIN")
    new_where = []
    for k, c in enumerate(rest):
        if k:
            new_where.append(("kw", "AND"))
        new_where.extend(c)
    q2 = dict(q)
    if cross is not None:
        # EXISTS(… key = oc AND jc <> pc AND rest) ⟺ the key group
        # (under rest) has >1 distinct jc, or its single jc ≠ pc —
        # decorrelated to ONE grouped aggregate (count distinct + min)
        # broadcast as two key→value maps; zero per-row re-execution
        # (the reference leans on sqlite's planner for this, Q21 shape)
        _, jc, pc = cross
        q2["items"] = [
            _SelectItem("expr", expr_toks=[("ident", inner_col)],
                        name=inner_col),
            _SelectItem("agg", func="COUNT", distinct=True,
                        expr_toks=[("ident", jc)], name="__nd"),
            _SelectItem("agg", func="MIN",
                        expr_toks=[("ident", jc)], name="__v1"),
        ]
        q2["distinct"] = False
        q2["group"] = [inner_col]
        q2["where"] = new_where or None
        q2["having"] = None
        q2["order"] = []
        q2["limit"] = q2["offset"] = None
        res = _collect(*_execute(q2, tables))
        if res.num_rows > _SUBQ_LIMIT:
            raise SqlError(f"EXISTS key set has {res.num_rows} rows "
                           f"(> {_SUBQ_LIMIT}); rewrite as a JOIN")
        keys = res.column(0).combine_chunks()
        nd = res.column(1).combine_chunks()
        v1 = res.column(2).combine_chunks()
        vm_nd = ("vmap", (outer_col, keys, nd, 0))
        vm_v1 = ("vmap", (outer_col, keys, v1, None))
        body = [("op", "("), vm_nd, ("op", ">"), ("num", 1),
                ("kw", "OR"),
                ("op", "("), ("op", "("), vm_nd, ("op", "="),
                ("num", 1), ("op", ")"), ("kw", "AND"),
                ("op", "("), vm_v1, ("op", "<>"), ("ident", pc),
                ("op", ")"), ("op", ")"), ("op", ")")]
        if neg:
            return ([("op", "("), ("ident", outer_col), ("kw", "IS"),
                     ("kw", "NULL"), ("kw", "OR"), ("ident", pc),
                     ("kw", "IS"), ("kw", "NULL"), ("kw", "OR"),
                     ("kw", "NOT"), ("op", "(")] + body
                    + [("op", ")"), ("op", ")")])
        return body
    q2["items"] = [_SelectItem("expr", expr_toks=[("ident", inner_col)],
                               name=inner_col)]
    q2["distinct"] = True
    q2["where"] = new_where or None
    q2["group"] = q2["having"] = None
    q2["order"] = []
    q2["limit"] = q2["offset"] = None
    res = _collect(*_execute(q2, tables))
    if res.num_rows > _SUBQ_LIMIT:
        raise SqlError(f"EXISTS key set has {res.num_rows} rows "
                       f"(> {_SUBQ_LIMIT}); rewrite as a JOIN")
    vals = res.column(0).combine_chunks().unique()
    body = [("ident", outer_col), ("kw", "IN"),
            ("op", "("), ("vset", vals), ("op", ")")]
    if neg:
        # NOT EXISTS keeps rows with a NULL correlation key (no inner
        # row can match), but NOT (col IN vset) is NULL for a NULL col
        # and would drop them — add the IS NULL escape (advisor r3).
        return ([("op", "("), ("ident", outer_col), ("kw", "IS"),
                 ("kw", "NULL"), ("kw", "OR"), ("kw", "NOT"),
                 ("op", "(")] + body + [("op", ")"), ("op", ")")])
    return body


def _try_correlated_scalar(inner, tables, outer_names, outer_quals=()):
    """``(SELECT agg(expr) FROM t [alias] WHERE t_col = outer_col
    [AND …])`` — one top-level equality correlation → decorrelated to a
    grouped aggregate run ONCE, returned as a ``("vmap", (outer_col,
    keys, vals, default))`` token (broadcast key→value lookup, evaluated
    vectorized per batch; the reference gets this shape for free from
    sqlite's query planner, ogrsqliteexecutesql.cpp).  Missing keys →
    NULL (SQL empty-subquery semantics), except COUNT → 0.  Returns
    None when the subquery is not of this shape (the caller falls
    through to the uncorrelated path)."""
    outer = set(outer_names)
    try:
        q = _SqlParser(_rewrite_comma_joins(list(inner),
                                            tables)).parse()
    except SqlError:
        return None
    if q["table"] not in tables or not q["where"]:
        return None
    if (len(q["items"]) != 1 or q["group"] or q["order"]
            or q["limit"] is not None or q["distinct"]):
        return None
    # INNER joins inside the subquery (the TPC-H Q2 min-cost shape:
    # SELECT MIN(ps_supplycost) FROM partsupp JOIN supplier … WHERE
    # p_partkey = ps_partkey AND r_name = …) are fine — the grouped
    # decorrelation runs the same join chain once
    for jtype, t2, _, _ in q["joins"]:
        if jtype != "inner" or t2 not in tables:
            return None
    it0 = q["items"][0]
    post_node = None             # expression applied to the agg result
    if it0.kind == "agg":
        agg_it = it0
    elif it0.kind == "expr" and it0.expr_toks:
        # (SELECT 0.5 * AVG(x) FROM …) — exactly one aggregate call,
        # the rest of the expression a pure function of it (constants /
        # scalar functions only); hoist the agg, apply the expression
        # to the grouped result vector afterwards
        spans = _find_agg_calls(it0.expr_toks)
        if len(spans) != 1:
            return None
        a, b, func, inner_toks = spans[0]
        star = inner_toks == [("op", "*")]
        agg_it = _SelectItem("agg", func=func,
                             expr_toks=None if star else inner_toks,
                             star=star)
        newtoks = (it0.expr_toks[:a] + [("ident", "__corr_agg__")]
                   + it0.expr_toks[b:])
        for j, (k, v) in enumerate(newtoks):
            if k == "ident" and v != "__corr_agg__" \
                    and not (j + 1 < len(newtoks)
                             and newtoks[j + 1] == ("op", "(")):
                return None      # references another column
        try:
            post_node, used = _parse_expr_tokens(newtoks)
        except FilterSyntaxError:
            return None
        if used != len(newtoks):
            return None
    else:
        return None
    if agg_it.distinct:
        return None
    inner_names = set(tables[q["table"]].schema.names)
    for _, t2, _, _ in q["joins"]:
        inner_names |= set(tables[t2].schema.names)
    inner_quals = ({q["table"]} | {t2 for _, t2, _, _ in q["joins"]}
                   | set(q.get("aliases") or ()))

    def strip_outer(tl):
        # outer-alias qualifiers reach here unrewritten (_dequalify
        # leaves nested scopes alone) — strip the ones that resolve
        out = []
        for k, v in tl:
            if k == "ident" and "." in v:
                pre, suf = v.split(".", 1)
                if pre in set(outer_quals) and pre not in inner_quals \
                        and suf in outer:
                    out.append(("ident", suf))
                    continue
            out.append((k, v))
        return out

    conj = [strip_outer(c) for c in _split_conjuncts(q["where"])]
    corrs = _find_equality_correlations(conj, inner_names, outer,
                                        inner_quals)
    if not corrs:
        return None
    cis = {ci for ci, _, _ in corrs}
    inner_cols = [ic for _, ic, _ in corrs]
    outer_cols = [oc for _, _, oc in corrs]
    rest = [c for k, c in enumerate(conj) if k not in cis]
    new_where = []
    for k, c in enumerate(rest):
        if k:
            new_where.append(("kw", "AND"))
        new_where.extend(c)
    q2 = dict(q)
    q2["items"] = [_SelectItem("expr", expr_toks=[("ident", ic)],
                               name=ic) for ic in inner_cols] + [agg_it]
    q2["group"] = list(inner_cols)
    q2["where"] = new_where or None
    q2["having"] = None
    q2["order"] = []
    q2["limit"] = q2["offset"] = None
    res = _collect(*_execute(q2, tables))
    if res.num_rows > _SUBQ_LIMIT:
        raise SqlError(
            f"correlated scalar subquery has {res.num_rows} distinct "
            f"keys (> {_SUBQ_LIMIT}); rewrite as a JOIN")
    nk = len(inner_cols)
    vals = res.column(nk).combine_chunks()
    default = 0 if agg_it.func == "COUNT" else None
    if post_node is not None:
        vals = _eval(post_node, pa.table({"__corr_agg__": vals}))
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        if default is not None:
            d = _eval(post_node, pa.table(
                {"__corr_agg__": pa.array([default], vals.type)}))
            default = d[0].as_py()
    if nk == 1:
        return ("vmap", (outer_cols[0], res.column(0).combine_chunks(),
                         vals, default))
    keys = tuple(res.column(i).combine_chunks() for i in range(nk))
    return ("vmap", (tuple(outer_cols), keys, vals, default))


def _resolve_subqueries(toks, tables, outer_names=(), outer_quals=()):
    toks = _rewrite_exists(toks, tables, set(outer_names),
                           set(outer_quals))
    """Execute uncorrelated ``( SELECT ... )`` groups in a WHERE token
    stream and splice their results back as literals: an IN-subquery
    becomes a broadcast value set (``vset`` token — vectorized
    ``pc.is_in`` downstream, the engine-side analog of a broadcast
    semi-join), a scalar subquery becomes a plain literal.  The subquery
    result is a REDUCED set (distinct keys / one aggregate row) — it is
    materialized driver-side and size-guarded; correlated subqueries are
    out of scope (use a join)."""
    out = []
    i = 0
    while i < len(toks):
        if toks[i] == ("op", "(") and i + 1 < len(toks) \
                and toks[i + 1] == ("sqlkw", "SELECT"):
            depth = 1
            j = i + 1
            while j < len(toks) and depth:
                if toks[j] == ("op", "("):
                    depth += 1
                elif toks[j] == ("op", ")"):
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if depth:
                raise SqlError("unbalanced parens around subquery")
            inner = toks[i + 1:j]
            if not (out and out[-1] == ("kw", "IN")):
                vm = _try_correlated_scalar(inner, tables, outer_names,
                                            outer_quals)
                if vm is not None:
                    out.extend([("op", "("), vm, ("op", ")")])
                    i = j + 1
                    continue
            res = _collect(*_execute(
                _SqlParser(_rewrite_comma_joins(list(inner),
                                                tables)).parse(),
                tables))
            if res.num_columns != 1:
                raise SqlError("subquery must return exactly one column")
            if out and out[-1] == ("kw", "IN"):
                if res.num_rows > _SUBQ_LIMIT:
                    raise SqlError(
                        f"IN-subquery returned {res.num_rows} rows "
                        f"(> {_SUBQ_LIMIT}); rewrite as a JOIN")
                vals = res.column(0).combine_chunks().unique()
                out.extend([("op", "("), ("vset", vals), ("op", ")")])
            else:
                if res.num_rows > 1:
                    raise SqlError("scalar subquery must return one row")
                # an empty scalar subquery is NULL
                v = res.column(0)[0].as_py() if res.num_rows else None
                if v is None:
                    out.extend([("op", "("), ("kw", "NULL"), ("op", ")")])
                elif isinstance(v, str):
                    out.extend([("op", "("), ("str", v), ("op", ")")])
                else:
                    out.extend([("op", "("), ("num", v), ("op", ")")])
            i = j + 1
        else:
            out.append(toks[i])
            i += 1
    return out


def _balanced_end(toks, i):
    """toks[i] must be '('; index just past the matching ')'."""
    depth = 0
    for j in range(i, len(toks)):
        if toks[j] == ("op", "("):
            depth += 1
        elif toks[j] == ("op", ")"):
            depth -= 1
            if depth == 0:
                return j + 1
    raise SqlError("unbalanced parentheses")


def _as_dataset(res):
    import ray
    return ray.data.from_arrow(res) if isinstance(res, pa.Table) else res


def _rename_positional(rel: _Rel, names: list[str]) -> _Rel:
    """Positionally rename a relation's columns (CTE column alias list),
    zero-copy."""
    old = rel.schema.names
    if len(old) != len(names):
        raise SqlError(f"CTE column alias list has {len(names)} names "
                       f"for {len(old)} columns")
    if old == names:
        return rel

    def ren(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(names)

    return rel.map(ren)


_RECURSION_LIMIT = 10_000
# driver-side working-set bound for recursive CTEs (seen-set + output);
# ~50M small rows ≈ a few GB — beyond that the workload is a transitive
# closure that belongs on the distributed fixpoint operators instead
_RECURSIVE_ROW_CAP = 50_000_000


def _execute_recursive_cte(name, body, tables, col_alias):
    """``WITH RECURSIVE name AS (seed UNION [ALL] recursive)``: split
    the body on the top-level UNION, run the seed once, then iterate
    the recursive branches with ``name`` bound to the WORKING TABLE
    (the PREVIOUS iteration's new rows only — standard SQL semantics)
    until it comes back empty.  Plain UNION additionally drops rows
    already seen (and dedups the seed), so cyclic graphs terminate.

    Scale shape: each iteration is a full Ray pipeline over the working
    table; per-level results are collected driver-side because they
    seed the next level (hierarchy/series workloads are bounded per
    level — the distributed fixpoint loops for UNBOUNDED layers are the
    dedicated operators, e.g. dedup.cluster_components' hash-to-min).
    Depth is capped at 10,000 iterations and the driver-side working
    set (seen rows for UNION dedup + accumulated output) at
    ``_RECURSIVE_ROW_CAP`` rows — exceeding it raises rather than
    silently materializing an unbounded closure on the driver
    (VERDICT r4 caveat 2)."""
    branches, alls = _split_union(body)
    if len(branches) < 2:
        raise SqlError(f"recursive CTE {name!r} needs seed UNION "
                       "[ALL] recursive-term")
    if any(isinstance(a, str) for a in alls):
        raise SqlError("INTERSECT/EXCEPT in a recursive CTE is not "
                       "supported")
    distinct = not all(alls)
    seeds, recs = [], []
    for b in branches:
        (recs if any(k == "ident" and v == name for k, v in b)
         else seeds).append(b)
    if not seeds or not recs:
        raise SqlError(f"recursive CTE {name!r}: need at least one "
                       "seed branch and one self-referencing branch")

    def run(branch_toks, tabs):
        return _collect(*_plan(list(branch_toks), tabs))

    import ray

    parts = [p for p in (run(b, tables) for b in seeds) if p.num_rows]
    if not parts:
        raise SqlError(f"recursive CTE {name!r}: empty seed")
    work = pa.concat_tables(
        [p.rename_columns(parts[0].column_names) for p in parts])
    if col_alias is not None:
        work = work.rename_columns(col_alias)
    seen_df = None
    if distinct:
        work = work.group_by(work.column_names).aggregate([])
        seen_df = work.to_pandas()
    acc = [work]
    total_rows = work.num_rows
    iters = 0
    while work.num_rows:
        iters += 1
        if iters > _RECURSION_LIMIT:
            raise SqlError(f"recursive CTE {name!r} exceeded "
                           f"{_RECURSION_LIMIT} iterations")
        tabs = dict(tables)
        tabs[name] = _Rel(ray.data.from_arrow(work), work.schema)
        outs = [o for o in (run(b, tabs) for b in recs) if o.num_rows]
        if not outs:
            break
        new = pa.concat_tables(
            [o.rename_columns(acc[0].column_names) for o in outs])
        if distinct:
            new = new.group_by(new.column_names).aggregate([])
            # drop rows already produced (UNION semantics): anti-join
            # against the ACCUMULATED seen set (kept as one pandas
            # frame, appended incrementally — not re-materialized from
            # arrow each level)
            new_df = new.to_pandas()
            merged = new_df.merge(seen_df, how="left", indicator=True,
                                  on=list(new_df.columns))
            new = pa.Table.from_pandas(
                merged[merged["_merge"] == "left_only"].drop(
                    columns="_merge"),
                schema=new.schema, preserve_index=False)
            if new.num_rows:
                import pandas as pd
                seen_df = pd.concat(
                    [seen_df, new.to_pandas()], ignore_index=True)
        if not new.num_rows:
            break
        total_rows += new.num_rows
        if total_rows > _RECURSIVE_ROW_CAP:
            raise SqlError(
                f"recursive CTE {name!r}: working set exceeded "
                f"{_RECURSIVE_ROW_CAP} rows — this closure does not fit "
                "the driver-side fixpoint; use a dedicated distributed "
                "operator (e.g. connected components / iterative joins)")
        acc.append(new)
        work = new
    out = pa.concat_tables(acc)
    return _Rel(ray.data.from_arrow(out), out.schema)


def _lit_tok(v) -> str:
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    return repr(v)


def _rewrite_pivot_unpivot(toks, tables):
    """``FROM t PIVOT (AGG(col) FOR key IN (lit, ...))`` and
    ``FROM t UNPIVOT (val FOR name IN (col, ...))`` (standard/DuckDB
    FROM-clause syntax).  PIVOT compiles to one grouped aggregate with
    FILTERed aggregates per IN value (all remaining columns are the
    implicit group keys, DuckDB semantics) — ONE shuffle regardless of
    the value-list length; output columns are then renamed to the
    literal values (names like '1-URGENT' are legal arrow column names
    even though they can't lex as SQL identifiers).  UNPIVOT compiles
    to a UNION ALL of per-column projections with IS NOT NULL filters
    (standard NULL exclusion).  The rewritten relation registers as a
    synthetic table; the outer query proceeds unchanged."""
    out = []
    i = 0
    gen = 0
    tables = dict(tables)
    while i < len(toks):
        t = toks[i]
        nxt = toks[i + 1] if i + 1 < len(toks) else (None, None)
        piv = toks[i + 2] if i + 2 < len(toks) else (None, None)
        kind = str(piv[1]).upper() if piv[0] == "ident" else ""
        if (t[0] == "sqlkw" and t[1] in ("FROM", "JOIN")
                and nxt[0] == "ident" and kind in ("PIVOT", "UNPIVOT")
                and i + 3 < len(toks) and toks[i + 3] == ("op", "(")):
            src = nxt[1]
            if src not in tables:
                raise SqlError(f"unknown table {src!r} before {kind}")
            j = _balanced_end(toks, i + 3)
            inner = toks[i + 4:j - 1]
            # split "<head> FOR <key> IN ( items )"
            try:
                fi = next(k for k, tk in enumerate(inner)
                          if tk[0] == "ident"
                          and str(tk[1]).upper() == "FOR")
            except StopIteration:
                raise SqlError(f"{kind} needs FOR") from None
            head = inner[:fi]
            rest = inner[fi + 1:]
            if len(rest) < 4 or rest[0][0] != "ident" \
                    or rest[1] != ("kw", "IN") \
                    or rest[2] != ("op", "("):
                raise SqlError(f"{kind}: expected <name> IN (...)")
            key = rest[0][1]
            e = _balanced_end(rest, 2)
            items = [v for k2, v in rest[3:e - 1] if k2 != "op"]
            if rest[e:]:
                raise SqlError(f"trailing tokens in {kind}")
            cols = tables[src].schema.names
            gen += 1
            name = f"__{kind.lower()}{gen}"
            if kind == "PIVOT":
                # head = AGG ( col-expr ) — AGG lexes as sqlkw for the
                # known aggregate names, ident otherwise
                if len(head) < 3 or head[0][0] not in ("ident", "sqlkw") \
                        or head[1] != ("op", "("):
                    raise SqlError("PIVOT needs AGG(col)")
                agg = " ".join(str(v) for _, v in head[:1])
                arg = " ".join(
                    _lit_tok(v) if k2 == "str" else str(v)
                    for k2, v in head[2:-1])
                others = [c for c in cols
                          if c != key and c not in
                          {v for k2, v in head if k2 == "ident"}]
                sel = list(others)
                for n, lit in enumerate(items):
                    sel.append(f"{agg}({arg}) FILTER (WHERE {key} = "
                               f"{_lit_tok(lit)}) AS __p{n}")
                sql = f"SELECT {', '.join(sel)} FROM {src}"
                if others:
                    sql += f" GROUP BY {', '.join(others)}"
                tables[name] = _rename_positional(
                    _as_rel(_plan(sql, tables)),
                    others + [str(v) for v in items])
            else:                                    # UNPIVOT
                if len(head) != 1 or head[0][0] != "ident":
                    raise SqlError("UNPIVOT needs <value-name> FOR")
                vname = head[0][1]
                for c in items:
                    if c not in cols:
                        raise SqlError(f"UNPIVOT: unknown column {c!r}")
                others = [c for c in cols if c not in items]
                # wide→long in ONE vectorized pass (not N scans of the
                # source): per batch, stack the per-column slices with
                # standard NULL exclusion; value columns promote to a
                # common arrow type
                vtype = pa.unify_schemas(
                    [pa.schema([("v", tables[src].schema.field(c).type)])
                     for c in items],
                    promote_options="permissive").field("v").type

                def explode(batch: pa.Table, _items=tuple(items),
                            _others=tuple(others), _key=key,
                            _vname=vname, _vt=vtype) -> pa.Table:
                    parts = []
                    for c in _items:
                        sub = batch.filter(pc.is_valid(batch[c]))
                        colmap = {o: sub[o] for o in _others}
                        colmap[_key] = pa.array([c] * sub.num_rows,
                                                pa.string())
                        colmap[_vname] = sub[c].cast(_vt)
                        parts.append(pa.table(colmap))
                    return pa.concat_tables(parts)

                tables[name] = tables[src].map(explode)
            out.append(t)
            out.append(("ident", name))
            i = j
            # optional [AS] alias after the closing paren passes through
            continue
        out.append(t)
        i += 1
    return out, tables


def _expand_ctes_and_derived(toks, tables):
    """WITH ctes and derived tables (``FROM (SELECT …) alias``) compile
    COMPOSITIONALLY: each subquery is planned recursively and its (lazy
    where possible) result relation registers under its name; the outer
    token stream is rewritten to reference the registered name.  A CTE
    referenced twice re-executes its lineage — documented cost;
    materialize driver-side first if that matters.
    Returns (rewritten_toks, extended_tables)."""
    tables = dict(tables)
    # WITH [RECURSIVE] name [(cols)] AS ( q ) [, ...] — later CTEs see
    # earlier ones
    if toks and toks[0][0] == "ident" and toks[0][1].upper() == "WITH":
        i = 1
        recursive = False
        if (i < len(toks) and toks[i][0] == "ident"
                and toks[i][1].upper() == "RECURSIVE"):
            recursive = True
            i += 1
        while True:
            if i >= len(toks) or toks[i][0] != "ident":
                raise SqlError("expected CTE name after WITH")
            name = toks[i][1]
            i += 1
            col_alias = None
            if i < len(toks) and toks[i] == ("op", "("):
                # t(col, ...) positional column alias list
                j = _balanced_end(toks, i)
                inner = toks[i + 1:j - 1]
                col_alias = [v for k, v in inner if k == "ident"]
                if len(col_alias) * 2 - 1 != len(inner):
                    raise SqlError("bad CTE column alias list")
                i = j
            if i >= len(toks) or toks[i] != ("sqlkw", "AS"):
                raise SqlError(f"expected AS after CTE name {name!r}")
            i += 1
            if i >= len(toks) or toks[i] != ("op", "("):
                raise SqlError("expected ( after AS in WITH")
            j = _balanced_end(toks, i)
            body = toks[i + 1:j - 1]
            self_ref = any(k == "ident" and v == name for k, v in body)
            if recursive and self_ref:
                tables[name] = _execute_recursive_cte(
                    name, body, tables, col_alias)
            else:
                res = _as_rel(_plan(body, tables))
                if col_alias is not None:
                    res = _rename_positional(res, col_alias)
                tables[name] = res
            i = j
            if i < len(toks) and toks[i] == ("op", ","):
                i += 1
                continue
            break
        toks = toks[i:]
    # derived tables at ANY depth: FROM/JOIN immediately followed by a
    # parenthesized query (inside an expression a FROM is always followed
    # by a table name, so this pattern is unambiguous)
    out = []
    i = 0
    gen = 0
    while i < len(toks):
        t = toks[i]
        out.append(t)
        if (t[0] == "sqlkw" and t[1] in ("FROM", "JOIN")
                and i + 1 < len(toks) and toks[i + 1] == ("op", "(")):
            j = _balanced_end(toks, i + 1)
            inner = toks[i + 2:j - 1]
            k = j
            if k < len(toks) and toks[k] == ("sqlkw", "AS"):
                k += 1
            if k < len(toks) and toks[k][0] == "ident" \
                    and str(toks[k][1]).upper() not in (
                        "PIVOT", "UNPIVOT", "ASOF"):
                alias = toks[k][1]
                k += 1
            else:
                gen += 1
                alias = f"__derived{gen}"
            tables[alias] = _as_rel(_plan(inner, tables))
            out.append(("ident", alias))
            i = k
            continue
        i += 1
    return out, tables


def _rewrite_comma_joins(toks, tables):
    """``FROM a, b[, c] WHERE a_k = b_k AND …`` → explicit
    ``JOIN … ON`` chains (the TPC-H implicit-join style).  Equality
    conjuncts whose two column names live in different listed tables
    become join conditions (resolved against the registered table
    schemas); everything else stays in WHERE.  Tables chain greedily —
    each next table must share at least one join condition with the
    tables joined so far (pure cross joins are rejected)."""
    # locate FROM ident [alias] (, ident [alias])+ at top level
    try:
        fi = toks.index(("sqlkw", "FROM"))
    except ValueError:
        return toks
    entries = []                 # [(table, alias|None)]
    i = fi + 1
    while i < len(toks) and toks[i][0] == "ident":
        t = toks[i][1]
        i += 1
        al = None
        if i < len(toks) and toks[i] == ("sqlkw", "AS"):
            i += 1
        if i < len(toks) and toks[i][0] == "ident":
            al = toks[i][1]
            i += 1
        entries.append((t, al))
        if i < len(toks) and toks[i] == ("op", ","):
            i += 1
            continue
        break
    if len(entries) < 2:
        return toks
    keys = [al or t for t, al in entries]
    if len(set(keys)) != len(keys):
        raise SqlError("comma-join: a table listed twice needs a "
                       "distinct alias per instance")
    inst_cols = {}               # key -> frozenset of its table's columns
    cols = {}                    # column -> set of instance keys
    for (t, al), key in zip(entries, keys):
        if t not in tables:
            return toks          # unknown table → let _execute report
        inst_cols[key] = frozenset(tables[t].schema.names)
        for c in inst_cols[key]:
            cols.setdefault(c, set()).add(key)
    # WHERE conjuncts at top level
    tail_kws = ("GROUP", "HAVING", "ORDER", "LIMIT")
    wi = None
    for j in range(i, len(toks)):
        if toks[j] == ("sqlkw", "WHERE"):
            wi = j
            break
        if toks[j][0] == "sqlkw" and toks[j][1] in tail_kws:
            break
    if wi is None:
        raise SqlError("comma-join needs WHERE join conditions")
    wend = len(toks)
    depth = 0
    for j in range(wi + 1, len(toks)):
        if toks[j] == ("op", "("):
            depth += 1
        elif toks[j] == ("op", ")"):
            depth -= 1
        elif depth == 0 and toks[j][0] == "sqlkw" \
                and toks[j][1] in tail_kws:
            wend = j
            break
    conjs, cur = [], []
    depth = 0
    for j in range(wi + 1, wend):
        t = toks[j]
        if t == ("op", "("):
            depth += 1
        elif t == ("op", ")"):
            depth -= 1
        if depth == 0 and t[0] in ("kw", "ident") \
                and str(t[1]).upper() == "AND":
            conjs.append(cur)
            cur = []
            continue
        cur.append(t)
    conjs.append(cur)

    def owner(ref):
        """Instance key owning a (possibly alias-qualified) column ref."""
        if "." in ref:
            pre, suf = ref.split(".", 1)
            if pre in inst_cols and suf in inst_cols[pre]:
                return pre
            return None
        hit = cols.get(ref, set())
        return next(iter(hit)) if len(hit) == 1 else None

    join_conds, rest = [], []
    for c in conjs:
        if (len(c) == 3 and c[0][0] == "ident" and c[1] == ("op", "=")
                and c[2][0] == "ident"):
            ta, tb = owner(c[0][1]), owner(c[2][1])
            if ta and tb and ta != tb:
                join_conds.append((ta, tb, c[0][1], c[2][1]))
                continue
        rest.append(c)
    if not join_conds:
        raise SqlError("comma-join: no equality join conditions found")
    by_key = dict(zip(keys, entries))
    joined = {keys[0]}
    chain = []               # [(instance key, [(ca, cb), ...])]
    pending = list(join_conds)
    while len(joined) < len(keys):
        for t in keys:
            if t in joined:
                continue
            conds = [(ca, cb) for ta, tb, ca, cb in pending
                     if (ta in joined and tb == t)
                     or (tb in joined and ta == t)]
            if conds:
                chain.append((t, conds))
                joined.add(t)
                pending = [p for p in pending
                           if not ((p[0] in joined and p[1] in joined))]
                break
        else:
            raise SqlError(f"comma-join: tables {sorted(set(keys) - joined)} "
                           "have no join condition to the joined set")
    new = list(toks[:fi])
    new.append(("sqlkw", "FROM"))
    new.append(("ident", entries[0][0]))
    if entries[0][1]:
        new.append(("ident", entries[0][1]))
    for t, conds in chain:
        new.append(("sqlkw", "JOIN"))
        new.append(("ident", by_key[t][0]))
        if by_key[t][1]:
            new.append(("ident", by_key[t][1]))
        new.append(("sqlkw", "ON"))
        for k, (ca, cb) in enumerate(conds):
            if k:
                new.append(("kw", "AND"))
            new += [("ident", ca), ("op", "="), ("ident", cb)]
    if rest:
        new.append(("sqlkw", "WHERE"))
        for k, c in enumerate(rest):
            if k:
                new.append(("kw", "AND"))
            new += c
    new += toks[wend:]
    return new


def execute_sql(sql: str, tables: dict):
    """Run a SELECT against ``tables`` ({name: ray.data.Dataset}); returns
    a Dataset for streaming shapes, or a pyarrow table for global
    aggregates / OFFSET slices (small results).  Top-level
    ``UNION [ALL]`` chains compile to ``Dataset.union`` (plus a distinct
    pass for plain UNION); a trailing ORDER BY / LIMIT binds the whole
    union, as in standard SQL.  WITH ctes and derived FROM-subqueries
    compile compositionally (see :func:`_expand_ctes_and_derived`)."""
    return _plan(sql, {n: _base_rel(ds) for n, ds in tables.items()}).ds


def _plan(sql, tables: dict) -> _Rel:
    """:func:`execute_sql` over relations ({name: _Rel})."""
    toks = _split_clauses(sql) if isinstance(sql, str) else sql
    toks = _rewrite_extract(toks)
    toks, tables = _expand_ctes_and_derived(toks, tables)
    if any(k == "ident" and str(v).upper() in ("PIVOT", "UNPIVOT")
           for k, v in toks):
        toks, tables = _rewrite_pivot_unpivot(toks, tables)
    branches, alls = _split_union(toks)
    branches = [_rewrite_comma_joins(b, tables) for b in branches]
    if len(branches) == 1:
        return _execute(_SqlParser(branches[0]).parse(), tables)
    parsed = [_SqlParser(b).parse() for b in branches]
    tail = parsed[-1]
    order, limit, offset = tail["order"], tail["limit"], tail["offset"]
    tail["order"], tail["limit"], tail["offset"] = [], None, None
    for q in parsed[:-1]:
        if q["order"] or q["limit"] is not None:
            raise SqlError("ORDER BY / LIMIT inside a UNION branch is "
                           "not supported — only the trailing, "
                           "union-wide clause")
    parts = [_as_rel(_execute(q, tables)) for q in parsed]
    # column names and types come from the FIRST branch (SQL set-op rule)
    names = parts[0].schema.names
    tail_q = dict(order=order, limit=limit, offset=offset)
    setops = [a for a in alls if a in ("intersect", "except")]
    if setops:
        if any(a not in ("intersect", "except") for a in alls) \
                or len(set(alls)) > 1:
            raise SqlError("mixed UNION/INTERSECT/EXCEPT chains are "
                           "not supported — parenthesize as separate "
                           "queries")
        # later branches align by position
        aligned = [parts[0]]
        for p in parts[1:]:
            if len(p.schema) != len(names):
                raise SqlError("set-operation branches must have the "
                               "same number of columns")
            if p.schema.names != names:
                p = p.map(lambda b, _n=tuple(names):
                          b.rename_columns(list(_n)))
            aligned.append(p)
        return _finish(_set_op_rows(aligned, names, alls[0]), tail_q,
                       names)
    out = parts[0]._replace(
        ds=parts[0].ds.union(*[p.ds for p in parts[1:]]))
    if not all(alls):
        out = _distinct_rows(out, names)
    return _finish(out, tail_q, names)


def _set_op_rows(parts, names, op):
    """Distributed INTERSECT / EXCEPT (distinct set semantics, the SQL
    default).  Set identities make any left-assoc chain ONE pass:
    a INTERSECT b INTERSECT c keeps rows present in every branch;
    a EXCEPT b EXCEPT c = a − (b ∪ c) keeps rows present ONLY in the
    first branch.  Shape: per-branch local arrow dedup → side-tagged
    row-hash partition (NULL-safe, same scheme as _distinct_rows) → one
    arrow group_by per bucket counting distinct sides."""
    import os

    import numpy as np
    import pandas as pd

    P = max(8, 4 * (os.cpu_count() or 8))
    nb = len(parts)

    def tagger(si):
        def tag(batch: pa.Table) -> pa.Table:
            g = batch.select(names) \
                .group_by(names, use_threads=False).aggregate([]) \
                .select(names)
            key = pd.util.hash_pandas_object(
                g.to_pandas(), index=False).to_numpy(np.uint64)
            g = g.append_column(
                "part__", pa.array((key % np.uint64(P)).astype(np.int64)))
            return g.append_column(
                "side__",
                pa.array(np.full(g.num_rows, si, dtype=np.int64)))
        return tag

    tagged = [p.ds.map_batches(tagger(si), batch_format="pyarrow")
              for si, p in enumerate(parts)]
    allds = tagged[0].union(*tagged[1:])

    def resolve(gt: pa.Table) -> pa.Table:
        gt = gt.drop_columns(["part__"]).combine_chunks()
        t = gt.group_by(names, use_threads=False).aggregate(
            [("side__", "count_distinct"), ("side__", "min")])
        nd = t["side___count_distinct"]
        if op == "intersect":
            keep = pc.equal(nd, nb)
        else:
            keep = pc.and_(pc.equal(nd, 1),
                           pc.equal(t["side___min"], 0))
        return t.filter(keep).select(names)

    return parts[0]._replace(ds=allds.groupby("part__").map_groups(
        resolve, batch_format="pyarrow"))


def _distinct_rows(out, names):
    """Distributed DISTINCT over full rows, NULL-safe and never one
    Python call per distinct key: a local (per-batch) arrow hash
    group_by shrinks each block, rows hash-partition to ~4×CPU buckets,
    and each bucket deduplicates with one more arrow group_by.  (Ray's
    own ``groupby(cols)`` sort-shuffles and cannot compare NULL keys;
    arrow's hash aggregation treats NULL as an ordinary key value —
    SQL set semantics.)"""
    import os

    import numpy as np
    import pandas as pd

    P = max(8, 4 * (os.cpu_count() or 8))

    def local(batch: pa.Table) -> pa.Table:
        g = batch.group_by(names, use_threads=False).aggregate([])
        g = g.select(names)
        key = pd.util.hash_pandas_object(
            g.to_pandas(), index=False).to_numpy(np.uint64)
        return g.append_column(
            "part__", pa.array((key % np.uint64(P)).astype(np.int64)))

    def uniq(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["part__"]).combine_chunks()
        return g.group_by(names, use_threads=False).aggregate([]) \
            .select(names)

    return out.shuffle(local, "part__", uniq)


def _split_union(toks):
    """Split a token stream on top-level UNION [ALL] / INTERSECT /
    EXCEPT boundaries.  Returns (branch token lists, per-boundary op
    markers: True = UNION ALL, False = UNION, "intersect"/"except")."""
    branches, alls, cur, depth = [], [], [], 0
    i = 0
    while i < len(toks):
        k, v = toks[i]
        if (k, v) == ("op", "("):
            depth += 1
        elif (k, v) == ("op", ")"):
            depth -= 1
        u = str(v).upper() if k in ("ident", "sqlkw") else ""
        if depth == 0 and u in ("UNION", "INTERSECT", "EXCEPT"):
            branches.append(cur)
            cur = []
            if u == "UNION":
                is_all = (i + 1 < len(toks)
                          and toks[i + 1][0] in ("ident", "sqlkw")
                          and str(toks[i + 1][1]).upper() == "ALL")
                alls.append(is_all)
                i += 2 if is_all else 1
            else:
                alls.append(u.lower())
                i += 1
            continue
        cur.append(toks[i])
        i += 1
    branches.append(cur)
    return branches, alls


def _strip_qual(name, valid):
    """``table.col`` → ``col`` when the qualifier names a table of THIS
    query's FROM/JOIN scope (ogr/swq supports qualified names the same
    way).  Unknown qualifiers pass through untouched — they may belong
    to an inner subquery scope, whose own _execute pass resolves them
    (a genuinely unknown name still fails loudly at column lookup)."""
    if isinstance(name, str) and "." in name:
        t, c = name.split(".", 1)
        if t in valid:
            return c
    return name


def _dequalify(q: dict, tables: dict | None = None) -> dict:
    """Resolve table-qualified column references against the query's
    FROM/JOIN scope (ogr/swq supports qualified names the same way).

    Two regimes, decided per relation INSTANCE (a FROM or JOIN entry,
    identified by its alias when one is given):

    - no column collision with any other instance → the qualifier is
      simply STRIPPED (``lineitem.l_qty`` / ``l.l_qty`` → ``l_qty``),
      the long-standing behavior;
    - an ALIASED instance whose columns collide with another instance
      (the self-join case, ``FROM nation n1 JOIN nation n2``) is
      RENAMED: every column ``c`` becomes the physical name
      ``alias.c`` (zero-copy arrow rename in _execute), qualified
      references keep that physical spelling, and bare references to a
      column owned by exactly one renamed instance are rewritten to
      it.  ``q["renamed"]`` records {alias: [cols]} for _execute.

    Unknown qualifiers pass through untouched — they may belong to an
    inner subquery scope, whose own _execute pass resolves them (a
    genuinely unknown name still fails loudly at column lookup)."""
    insts = [(q["table"], q.get("from_alias"))]
    insts += [(t2, al) for _, t2, _, al in q["joins"]]
    valid = {t for t, _ in insts} | {a for _, a in insts if a}

    renamed = {}
    inst_cols = []
    if len(insts) > 1 and any(al for _, al in insts):
        # column ownership per instance (needs registered schemas)
        for t, al in insts:
            tb = (tables or {}).get(t)
            cols = frozenset(tb.schema.names) if tb is not None \
                else frozenset()
            inst_cols.append((t, al, cols))
        for i, (t, al, cols) in enumerate(inst_cols):
            if not al:
                continue
            others = set().union(
                *(c for j, (_, _, c) in enumerate(inst_cols) if j != i))
            if cols & others:
                renamed[al] = sorted(cols)
    q["renamed"] = renamed
    # bare name → unique renamed owner (only when NO un-renamed
    # instance also owns it — the un-renamed physical name wins there)
    bare_map = {}
    if renamed:
        owners = {}
        for t, al, cols in inst_cols:
            for c in cols:
                owners.setdefault(c, []).append(al if al in renamed
                                                else None)
        for c, own in owners.items():
            if len(own) == 1 and own[0] is not None:
                bare_map[c] = f"{own[0]}.{c}"

    def one(name):
        """Resolve a single identifier (qualified or bare)."""
        if not isinstance(name, str):
            return name
        if "." in name:
            pre, suf = name.split(".", 1)
            if pre in renamed:
                return name            # physical spelling already
            if pre in valid:
                return suf
            return name
        return bare_map.get(name, name)

    def toks(tl):
        if not tl:
            return tl
        out = []
        j = 0
        n = len(tl)
        while j < n:
            k, v = tl[j]
            if (k, v) == ("op", "(") and j + 1 < n \
                    and tl[j + 1] == ("sqlkw", "SELECT"):
                # subquery region: a NESTED scope — leave its tokens
                # (including outer-qualified correlation refs like
                # l1.l_suppkey) for the subquery rewriters to resolve
                depth = 0
                e = j
                while e < n:
                    if tl[e] == ("op", "("):
                        depth += 1
                    elif tl[e] == ("op", ")"):
                        depth -= 1
                        if depth == 0:
                            break
                    e += 1
                out.extend(tl[j:e + 1])
                j = e + 1
                continue
            if k == "ident" and not (j + 1 < n
                                     and tl[j + 1] == ("op", "(")):
                out.append(("ident", one(v)))
            else:
                out.append((k, v))
            j += 1
        return out

    q["where"] = toks(q["where"])
    q["having"] = toks(q["having"])
    if q.get("qualify"):
        q["qualify"] = toks(q["qualify"])
    if q["group"]:
        q["group"] = [toks(g) if isinstance(g, list)
                      else (one(g) if isinstance(g, str) else g)
                      for g in q["group"]]
    q["order"] = [((toks(c) if isinstance(c, list)
                    else (one(c) if isinstance(c, str) else c)), d, nf)
                  for c, d, nf in q["order"]]
    q["joins"] = [(jt, t2, [(one(ca), one(cb), op)
                            for ca, cb, op in pairs], al)
                  for jt, t2, pairs, al in q["joins"]]
    for it in (q["items"] if q["items"] != "*" else ()):
        if it.expr_toks:
            it.expr_toks = toks(it.expr_toks)
        if it.filt_toks:
            it.filt_toks = toks(it.filt_toks)
        if it.over:
            part, order, frame = it.over
            it.over = ([one(p) for p in part],
                       [(one(e[0]), *e[1:]) for e in order],
                       frame)
    return q


def _rename_instance(rel: _Rel, alias: str, cols) -> _Rel:
    """Physically rename an aliased instance's columns to ``alias.c``
    (zero-copy: arrow rename_columns is metadata-only)."""
    mapping = {c: f"{alias}.{c}" for c in cols}

    def ren(batch: pa.Table, _m=mapping) -> pa.Table:
        return batch.rename_columns(
            [_m.get(c, c) for c in batch.column_names])

    return rel.map(ren)


def _group_key_hash(batch: pa.Table, group_cols, P: int):
    """Deterministic uint64 hash of the group-key tuple per row →
    partition id in [0, P).  NULL keys hash like ordinary values (a
    null-indicator bit is mixed in).  Returns None for key types the
    vectorized hash doesn't cover (caller falls back)."""
    import numpy as np

    from .util import hash_strings
    h = np.zeros(batch.num_rows, dtype=np.uint64)
    for g in group_cols:
        col = batch[g]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        t = col.type
        if pa.types.is_integer(t) or pa.types.is_boolean(t) \
                or pa.types.is_temporal(t):
            x = pc.fill_null(pc.cast(col, pa.int64()), -1) \
                .to_numpy(zero_copy_only=False).astype(np.uint64)
        elif pa.types.is_string(t) or pa.types.is_large_string(t) \
                or pa.types.is_binary(t):
            x = hash_strings(pc.fill_null(col, ""))
        elif pa.types.is_floating(t):
            # x + 0.0 normalizes -0.0 → +0.0 so bit-hashing agrees
            # with arrow group_by equality
            x = pc.fill_null(pc.add(pc.cast(col, pa.float64()), 0.0),
                             float("nan")) \
                .to_numpy(zero_copy_only=False).view(np.uint64)
        else:
            raise SqlError(
                f"GROUP BY key {g!r} has type {t} — unsupported by "
                "the hash partitioner")
        x = x.copy()
        x ^= pc.is_null(col).to_numpy(zero_copy_only=False) \
            .astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        # splitmix-style avalanche, folded into the rolling key hash
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x &= np.uint64(0xFFFFFFFFFFFFFFFF)
        x ^= x >> np.uint64(31)
        h = h * np.uint64(0x100000001B3) + x
        h &= np.uint64(0xFFFFFFFFFFFFFFFF)
    return (h % np.uint64(P)).astype(np.int64)


def _hash_grouped_aggregate(prepped, group_cols, specs,
                            num_partitions: int | None = None):
    """Distributed GROUP BY via per-block arrow hash-aggregation
    partials → key-hash partition → per-partition arrow combine —
    the partial-aggregation shape a 100 TB groupby needs (measured
    4-5× faster than Ray's sort-based ``groupby().aggregate`` at 150k
    int keys / 600k rows, and NULL keys are ordinary groups, which the
    sort-based path rejects).

    ``specs``: [(alias, FUNC, col)] with FUNC in COUNT_ALL / COUNT /
    SUM / AVG / MIN / MAX (COUNT counts non-null of ``col``).  The
    partition hash covers int/bool/temporal/string/binary/float keys —
    everything the dialect's GROUP BY can produce; STDDEV stays on the
    native Ray path (Welford), decided by the caller."""
    import numpy as np

    import ray
    P = num_partitions or 4 * max(
        2, int(ray.cluster_resources().get("CPU", 8))
        if ray.is_initialized() else 8)

    # arrow partial plan: one (col, fn) per distinct need
    part_plan = {}                      # (col|None, fn) -> output name

    def need(col, fn):
        key = (col, fn)
        if key not in part_plan:
            part_plan[key] = ("count_all" if col is None
                              else f"{col}_{fn}")
        return part_plan[key]

    finals = []                         # (alias, kind, p1, p2)
    for alias, func, col in specs:
        if func == "COUNT_ALL":
            finals.append((alias, "sum", need(None, "count_all"), None))
        elif func == "COUNT":
            finals.append((alias, "sum", need(col, "count"), None))
        elif func == "SUM":
            finals.append((alias, "sum", need(col, "sum"), None))
        elif func == "MIN":
            finals.append((alias, "min", need(col, "min"), None))
        elif func == "MAX":
            finals.append((alias, "max", need(col, "max"), None))
        elif func == "AVG":
            finals.append((alias, "avg", need(col, "sum"),
                           need(col, "count")))
        else:
            return None
    agg_list = [(([] if col is None else col),
                 ("count_all" if col is None else fn))
                for (col, fn) in part_plan]
    pnames = list(part_plan.values())
    nk = len(group_cols)

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(group_cols, use_threads=False) \
            .aggregate(agg_list)
        # arrow output: keys first, then aggregates in plan order,
        # named col_fn / "count_all" — realign to pnames
        gn = g.column_names
        out_cols = {k: g[k] for k in group_cols}
        for want, got in zip(pnames, gn[nk:]):
            out_cols[want] = g[got]
        g2 = pa.table(out_cols)
        pid = _group_key_hash(g2, group_cols, P)
        return g2.append_column("part__", pa.array(pid))

    comb_list = []
    for (col, fn), name in part_plan.items():
        comb_fn = {"count_all": "sum", "count": "sum", "sum": "sum",
                   "min": "min", "max": "max"}[fn]
        comb_list.append((name, comb_fn))

    def combine(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["part__"]).combine_chunks()
        gg = g.group_by(group_cols, use_threads=False) \
            .aggregate(comb_list)
        gn = gg.column_names
        agg_out = {name: gg[got]
                   for (name, _), got in zip(comb_list, gn[nk:])}
        cols = {k: gg[k] for k in group_cols}
        for alias, kind, p1, p2 in finals:
            if kind == "avg":
                s = pc.cast(agg_out[p1], pa.float64())
                n = pc.cast(agg_out[p2], pa.float64())
                cols[alias] = pc.divide(s, n)
            elif kind == "sum" and (p1 == "count_all"
                                    or p1.endswith("_count")):
                # COUNT must come back int64 and never NULL
                cols[alias] = pc.fill_null(
                    pc.cast(agg_out[p1], pa.int64()), 0)
            else:
                cols[alias] = agg_out[p1]
        return pa.table(cols)

    return prepped.shuffle(partial, "part__", combine)


def _asof_join_fold(rel: _Rel, rrel: _Rel, pairs) -> _Rel:
    """ASOF JOIN (DuckDB syntax): exactly one equality key + one >=/<=
    inequality on an ordered column.  Compiles onto the engine's
    hash-partitioned vectorized :func:`georay.windows.asof_join` via
    hidden probe columns (``__asof_k__``/``__asof_ts__``) appended
    zero-copy on both sides, so the user-visible columns of BOTH tables
    survive under their own names.  ``l.ts >= r.ts`` (or the flipped
    spelling) is the standard backward match; ``l.ts <= r.ts`` is the
    forward match, implemented by NEGATING the int64 probe on both
    sides (order reversal ⇒ the same backward kernel).  Ordered column
    types: integers and timestamps (cast to int64 µs).  Ties on a right
    (key, ts) are reduced deterministically inside asof_join — pre-
    aggregate the right side in the query text when the oracle must
    match exactly."""
    from .windows import _asof_join

    left_names, rnames = set(rel.schema.names), set(rrel.schema.names)
    eqs = [(ca, cb) for ca, cb, op in pairs if op == "="]
    ineqs = [(ca, cb, op) for ca, cb, op in pairs if op != "="]
    if len(eqs) != 1 or len(ineqs) != 1:
        raise SqlError("ASOF JOIN needs exactly one equality and one "
                       ">=/<= condition")

    def orient(ca, cb, what):
        if ca in left_names and cb in rnames:
            return ca, cb, False
        if cb in left_names and ca in rnames:
            return cb, ca, True
        raise SqlError(f"ASOF JOIN {what} {ca}/{cb}: columns not found "
                       "one per side")

    lk, rk, _ = orient(*eqs[0], "key")
    ca, cb, op = ineqs[0]
    lt, rt, flipped = orient(ca, cb, "inequality")
    backward = (op == ">=") != flipped
    sign = 1 if backward else -1

    def _probe_i64(col, _sign=sign):
        t = col.type
        if pa.types.is_timestamp(t):
            v = pc.cast(pc.cast(col, pa.timestamp("us")), pa.int64())
        elif pa.types.is_integer(t):
            v = pc.cast(col, pa.int64())
        else:
            raise SqlError(
                f"ASOF JOIN ordering column must be integer or "
                f"timestamp, got {t}")
        return pc.multiply(v, pa.scalar(_sign, pa.int64())) \
            if _sign < 0 else v

    def prep(kcol, tcol):
        def f(batch: pa.Table) -> pa.Table:
            batch = batch.append_column("__asof_k__", batch[kcol])
            return batch.append_column("__asof_ts__",
                                       _probe_i64(batch[tcol]))
        return f

    lrel = rel.map(prep(lk, lt))
    rprep = rrel.map(prep(rk, rt))
    right_cols = sorted(rnames)
    out = _asof_join(lrel.ds, rprep.ds, lrel.schema, rprep.schema,
                     key_col="__asof_k__", ts_col="__asof_ts__",
                     right_cols=tuple(right_cols), suffix="",
                     num_partitions=None)
    # output: every left column, then the right columns
    schema = pa.schema(list(lrel.schema)
                       + [rprep.schema.field(c) for c in right_cols])

    def drop_probe(batch: pa.Table) -> pa.Table:
        return batch.drop_columns(["__asof_k__", "__asof_ts__"])

    return _Rel(out, schema).map(drop_probe)


def _execute(q: dict, tables: dict):
    from ray.data.aggregate import Count, Max, Mean, Min, Std, Sum

    q = _dequalify(q, tables)
    if q["table"] == "__dual__" and "__dual__" not in tables:
        import ray
        dual = pa.table({"__dummy__": pa.array([0], pa.int8())})
        tables = dict(tables)
        tables["__dual__"] = _Rel(ray.data.from_arrow(dual), dual.schema)
    if q["table"] not in tables:
        raise SqlError(f"unknown table {q['table']!r}")
    rel = tables[q["table"]]
    renamed = q.get("renamed") or {}
    fal = q.get("from_alias")
    if fal in renamed:
        rel = _rename_instance(rel, fal, renamed[fal])
    if q["joins"]:
        # FROM a JOIN b ON x = y — fold left through the engine's
        # hash-shuffle equi_join (byte-sized partitions); column names
        # across the joined tables must be disjoint so unqualified
        # references stay unambiguous (the TPC-H / OGR naming style);
        # self-joins get per-alias renamed instances (see _dequalify)
        from .join import equi_join
        for jtype, t2, pairs, jal in q["joins"]:
            if t2 not in tables:
                raise SqlError(f"unknown table {t2!r}")
            rrel = tables[t2]
            if jal in renamed:
                rrel = _rename_instance(rrel, jal, renamed[jal])
            left_names = set(rel.schema.names)
            rnames = set(rrel.schema.names)
            dup = left_names & rnames
            if dup:
                raise SqlError(
                    f"ambiguous columns across joined tables: {sorted(dup)}")
            if jtype == "asof":
                rel = _asof_join_fold(rel, rrel, pairs)
                continue
            lks, rks = [], []
            for ca, cb, _op in pairs:
                if ca in left_names and cb in rnames:
                    lks.append(ca)
                    rks.append(cb)
                elif cb in left_names and ca in rnames:
                    lks.append(cb)
                    rks.append(ca)
                else:
                    raise SqlError(f"JOIN ON {ca} = {cb}: columns not "
                                   "found one per side")
            left_rebuild = jtype == "left_outer" and any(
                rk != lk for lk, rk in zip(lks, rks))
            if jtype in ("right_outer", "full_outer") or left_rebuild:
                # Ray's outer joins COALESCE the key columns into one
                # name; SQL keeps each side's key separately NULLABLE.
                # Presence sentinels let the post-join stage
                # reconstruct both: a side's key is NULL exactly where
                # its sentinel is (its rows were absent).  For
                # left_outer only the RIGHT key needs rebuilding (the
                # merged column keeps the left name and is never NULL
                # for left rows).
                def addp(name):
                    def f(b: pa.Table, _n=name) -> pa.Table:
                        return b.append_column(
                            _n, pa.array([1] * b.num_rows, pa.int8()))
                    return f

                if not left_rebuild:
                    rel = rel.map(addp("__lp__"))
                rrel = rrel.map(addp("__rp__"))
            # Ray's join is pyarrow's join per hash partition: it keeps
            # the right keys (coalesced) for RIGHT OUTER, else the left
            if jtype == "right_outer":
                schema = pa.schema([f for f in rel.schema
                                    if f.name not in lks]
                                   + list(rrel.schema))
            else:
                schema = pa.schema(list(rel.schema)
                                   + [f for f in rrel.schema
                                      if f.name not in rks])
            if len(lks) == 1:
                rel = _Rel(equi_join(rel.ds, rrel.ds, left_on=lks[0],
                                     right_on=rks[0], join_type=jtype),
                           schema)
            else:
                rel = _Rel(equi_join(rel.ds, rrel.ds, left_on=lks,
                                     right_on=rks, join_type=jtype),
                           schema)
            if left_rebuild:
                # rebuild each right key: equals the (never-NULL) left
                # key where the right row matched, NULL elsewhere
                def remake_right(batch: pa.Table, _lks=tuple(lks),
                                 _rks=tuple(rks)) -> pa.Table:
                    rp = pc.is_valid(batch["__rp__"])
                    for lk, rk in zip(_lks, _rks):
                        if rk != lk and rk not in batch.column_names:
                            merged = batch[lk]
                            batch = batch.append_column(
                                rk, pc.if_else(rp, merged,
                                               pa.scalar(None,
                                                         merged.type)))
                    return batch.drop_columns(["__rp__"])

                rel = rel.map(remake_right)
            if jtype in ("right_outer", "full_outer"):
                # Ray names the coalesced key after the RIGHT side for
                # right_outer and the LEFT side for full_outer
                merged_right = jtype == "right_outer"

                def unmerge(batch: pa.Table, _lks=tuple(lks),
                            _rks=tuple(rks),
                            _mr=merged_right) -> pa.Table:
                    lp = pc.is_valid(batch["__lp__"])
                    rp = pc.is_valid(batch["__rp__"])
                    for lk, rk in zip(_lks, _rks):
                        src = rk if _mr else lk
                        merged = batch[src]
                        t = merged.type
                        batch = batch.set_column(
                            batch.column_names.index(src), src,
                            pc.if_else(rp if _mr else lp, merged,
                                       pa.scalar(None, t)))
                        other = lk if _mr else rk
                        if other != src \
                                and other not in batch.column_names:
                            batch = batch.append_column(
                                other,
                                pc.if_else(lp if _mr else rp, merged,
                                           pa.scalar(None, t)))
                    return batch.drop_columns(["__lp__", "__rp__"])

                rel = rel.map(unmerge)
            if jtype == "inner":
                # Ray's join merges the right KEY columns into the left
                # ones; SQL keeps both names in scope (a later JOIN ON
                # or SELECT may reference s_nationkey after joining on
                # it).  Equal values under inner semantics → re-alias
                # (zero-copy column append).  After LEFT OUTER the right
                # key is NULL for unmatched rows, so no alias there.
                pairs_lr = [(ln, rn) for ln, rn in zip(lks, rks)
                            if rn != ln]
                if pairs_lr:
                    def realias(batch: pa.Table,
                                _p=tuple(pairs_lr)) -> pa.Table:
                        for ln, rn in _p:
                            if rn not in batch.column_names:
                                batch = batch.append_column(rn, batch[ln])
                        return batch

                    rel = rel.map(realias)
    if q["where"]:
        # outer scope for correlated subqueries: table names + aliases
        # whose qualified references strip to bare outer columns
        # (renamed self-join aliases resolve by physical spelling)
        oq = ({q["table"]} | {t2 for _, t2, _, _ in q["joins"]}
              | set(q.get("aliases") or ())) - set(renamed)
        wtoks = _resolve_subqueries(q["where"], tables, rel.schema.names,
                                    oq)
        wnode, used = _parse_expr_tokens(wtoks)
        if used != len(wtoks):
            raise SqlError("trailing tokens in WHERE")

        def filt(batch: pa.Table, _n=wnode) -> pa.Table:
            return batch.filter(pc.fill_null(_eval(_n, batch), False))

        rel = rel.map(filt)

    items = q["items"]
    if items == "*":
        items = [_SelectItem("expr", expr_toks=[("ident", n)])
                 for n in rel.schema.names]
        q = dict(q, items=items)
    names = [_item_default_name(it, i) for i, it in enumerate(items)]
    # a default (un-AS'd) name over a renamed self-join instance keeps
    # only the column part (SELECT n1.n_name → column "n_name"), like SQL
    names = [n.split(".", 1)[1]
             if ("." in n and it.name is None
                 and n.split(".", 1)[0] in (q.get("renamed") or ()))
             else n
             for n, it in zip(names, items)]
    if len(set(names)) != len(names):
        raise SqlError(f"duplicate output column names: {names}")
    # aggregates INSIDE expressions (ROUND(SUM(x)), 100*SUM(a)/SUM(b)):
    # each aggregate call hoists to a HIDDEN agg item and the outer
    # expression is rewritten to reference it; the expression itself
    # evaluates AFTER aggregation (postagg), then hidden columns drop
    visible_n = len(items)
    postagg = {}
    items = list(items)
    for i in range(visible_n):
        it = items[i]
        if it.kind != "expr":
            continue
        spans = _find_agg_calls(it.expr_toks)
        if not spans:
            continue
        newtoks = []
        last = 0
        for k, (a, b, func, inner) in enumerate(spans):
            hname = f"aggh{i}_{k}__"
            newtoks += it.expr_toks[last:a]
            newtoks.append(("ident", hname))
            last = b
            star = inner == [("op", "*")]
            hid = _SelectItem("agg", func=func,
                              expr_toks=None if star else inner,
                              star=star)
            items.append(hid)
            names.append(hname)
        newtoks += it.expr_toks[last:]
        node, used = _parse_expr_tokens(newtoks)
        if used != len(newtoks):
            raise SqlError("bad aggregate expression")
        postagg[i] = node
    has_agg = any(it.kind == "agg" for it in items)

    win_items = [(i, it) for i, it in enumerate(items)
                 if it.kind == "window"]
    if q.get("qualify") and not win_items:
        raise SqlError("QUALIFY requires a window function in the "
                       "SELECT list")
    if win_items:
        if q["group"] or has_agg:
            raise SqlError("window functions cannot mix with GROUP BY or "
                           "plain aggregates in one SELECT")
        return _execute_window(rel, q, items, names, win_items)

    if not has_agg and not q["group"]:
        # pure projection
        nodes = []
        for it in items:
            node, used = _parse_expr_tokens(it.expr_toks)
            if used != len(it.expr_toks):
                raise SqlError("bad select expression")
            nodes.append(node)

        out = _project(rel, names, nodes)
        if q["distinct"]:
            out = _distinct_rows(out, names)
        return _finish(out, q, names)

    # aggregate shapes ------------------------------------------------------
    # normalize GROUP BY entries: ordinals → the select item's name
    # (alias grouping), expressions → the matching select item's name,
    # else a hidden computed key column (dropped from the output)
    group_cols, hidden_group_nodes = [], {}
    for j, g in enumerate(q["group"] or []):
        if isinstance(g, str):
            group_cols.append(g)
        elif isinstance(g, int):
            if not 1 <= g <= len(items):
                raise SqlError(f"GROUP BY ordinal {g} out of range")
            group_cols.append(names[g - 1])
        else:
            hit = next((names[i] for i, it in enumerate(items)
                        if it.kind == "expr" and it.expr_toks == g),
                       None)
            if hit is not None:
                group_cols.append(hit)
            else:
                node, used = _parse_expr_tokens(g)
                if used != len(g):
                    raise SqlError("trailing tokens in GROUP BY")
                h = f"__grp{j}"
                group_cols.append(h)
                hidden_group_nodes[h] = node
    having_node, having_hidden = None, []
    if q["having"] and group_cols:
        # HAVING may use aggregates that are NOT select items: hoist
        # them as hidden aggregate columns (computed alongside the
        # visible ones, dropped after the filter).  Scalar/IN
        # subqueries in HAVING (the TPC-H Q11 shape) are resolved to
        # literals FIRST — otherwise their inner aggregates would be
        # mistaken for hoistable HAVING aggregates
        htoks = q["having"]
        if any(t == ("sqlkw", "SELECT") for t in htoks):
            oq = ({q["table"]} | {t2 for _, t2, _, _ in q["joins"]}
                  | set(q.get("aliases") or ())) - set(renamed)
            htoks = _resolve_subqueries(htoks, tables, rel.schema.names,
                                        oq)
        having_node, having_hidden = _parse_having(
            htoks, items, names, extend=True)
    agg_items = [(i, it) for i, it in enumerate(items) if it.kind == "agg"]
    plain_items = [(i, it) for i, it in enumerate(items)
                   if it.kind == "expr"]
    # a GROUP BY name may be a table column OR the alias of a scalar
    # select item (DuckDB/OGR alias-grouping) — aliased expressions are
    # computed into the key column inside ``prep``
    alias_nodes = {}
    for i, it in plain_items:
        if i in postagg:
            continue
        if names[i] in group_cols and not (
                len(it.expr_toks) == 1 and it.expr_toks[0][0] == "ident"
                and it.expr_toks[0][1] == names[i]):
            node, used = _parse_expr_tokens(it.expr_toks)
            if used != len(it.expr_toks):
                raise SqlError("bad select expression")
            alias_nodes[names[i]] = node
    alias_nodes.update(hidden_group_nodes)
    # non-aggregated select items must be GROUP BY columns (or aliases)
    for i, it in plain_items:
        if i in postagg:
            continue
        ok = names[i] in group_cols or (
            len(it.expr_toks) == 1 and it.expr_toks[0][0] == "ident"
            and it.expr_toks[0][1] in group_cols)
        if not ok:
            raise SqlError(
                f"non-aggregated select item {names[i]!r} must be a "
                f"GROUP BY column")

    # DISTINCT aggregates: MIN/MAX(DISTINCT) ≡ MIN/MAX (dedup can't
    # change an extremum); COUNT/SUM/AVG(DISTINCT) route to the
    # dedicated single-shuffle distinct plan
    for _, it in agg_items:
        if it.distinct and it.func in ("MIN", "MAX"):
            it.distinct = False
        elif it.distinct and it.func not in ("COUNT", "SUM", "AVG"):
            raise SqlError(f"{it.func}(DISTINCT) is not supported")
    cd = [(i, it) for i, it in agg_items if it.distinct]
    if cd and (q.get("rollup") or q.get("grouping_sets")):
        raise SqlError("DISTINCT aggregates cannot mix with "
                       "ROLLUP/CUBE/GROUPING SETS")
    if (cd or any(it.func in _QUANT_FUNCS for _, it in agg_items)) \
            and any(it.filt_toks for _, it in agg_items):
        raise SqlError("FILTER is not supported with COUNT(DISTINCT) "
                       "or MEDIAN/QUANTILE_CONT")
    if any(it.func in _QUANT_FUNCS for _, it in agg_items):
        if cd:
            raise SqlError("MEDIAN/QUANTILE_CONT cannot be mixed with "
                           "COUNT(DISTINCT)")
        if postagg:
            raise SqlError("MEDIAN/QUANTILE_CONT cannot appear inside "
                           "an expression")
        return _execute_quantile(
            rel, q, items, names, group_cols, agg_items, alias_nodes,
            having_node, having_hidden)
    if cd:
        for i, it in agg_items:
            if not it.distinct and it.func not in (
                    "COUNT", "SUM", "AVG", "MIN", "MAX"):
                raise SqlError(
                    f"{it.func} cannot be mixed with COUNT(DISTINCT)")
        if postagg:
            raise SqlError("COUNT(DISTINCT) cannot mix with aggregates "
                           "inside expressions")
        return _execute_count_distinct(
            rel, q, items, names, group_cols, agg_items, alias_nodes,
            having_node, having_hidden)

    # evaluate group keys + aggregate inputs in one projection
    agg_nodes = {}
    filt_nodes = {}
    for i, it in agg_items:
        if not it.star:
            node, used = _parse_expr_tokens(it.expr_toks)
            if used != len(it.expr_toks):
                raise SqlError("bad aggregate expression")
            agg_nodes[i] = node
        if it.filt_toks:
            node, used = _parse_expr_tokens(it.filt_toks)
            if used != len(it.filt_toks):
                raise SqlError("bad FILTER condition")
            filt_nodes[i] = node

    def prep(batch: pa.Table) -> pa.Table:
        cols = {}
        for g in group_cols:
            if g in alias_nodes:
                cols[g] = _const(_eval(alias_nodes[g], batch),
                                 batch.num_rows)
            else:
                cols[g] = batch[g]
        for i, it in agg_items:
            if it.star and i not in filt_nodes:
                continue
            if it.star:
                # COUNT(*) FILTER (WHERE c) → count a 1/NULL column
                v = pa.array([1] * batch.num_rows, pa.int64())
            else:
                v = _const(_eval(agg_nodes[i], batch), batch.num_rows)
            if i in filt_nodes:
                c = pc.fill_null(pc.cast(_eval(filt_nodes[i], batch),
                                         pa.bool_()), False)
                vt = v.type if not isinstance(v, pa.ChunkedArray) \
                    else v.type
                v = pc.if_else(c, v, pa.scalar(None, vt))
            cols[f"a{i}__"] = v
        if any(it.star and i not in filt_nodes
               for i, it in agg_items) or not cols:
            # COUNT(*) needs a concrete column: Ray's Count() without
            # `on` yields 0 in the global-aggregate path
            cols["one__"] = pa.array([1] * batch.num_rows, pa.int64())
        return pa.table(cols)

    prepped = rel.map(prep)
    gsets = q.get("grouping_sets")
    rollup = (bool(q.get("rollup")) or gsets is not None) \
        and bool(group_cols)
    if rollup:
        # GROUP BY ROLLUP/CUBE/GROUPING SETS: each prepped row explodes
        # into one copy per grouping set (gid = BITMASK of kept keys;
        # dropped keys take a type filler so Ray's sort-based groupby
        # never sees nulls) — ONE shuffle computes every set; dropped
        # keys are nulled back after the aggregate, matching SQL.
        L = len(group_cols)
        if q.get("rollup") == "cube":
            if L > 6:
                raise SqlError("CUBE over more than 6 keys explodes "
                               "64x+ per row — use GROUPING SETS")
            masks = list(range((1 << L) - 1, -1, -1))
        elif gsets is not None:
            bit = {g: j for j, g in enumerate(group_cols)}
            masks = []
            for st in gsets:
                m = 0
                for c in st:
                    m |= 1 << bit[c]
                masks.append(m)
        else:                                   # ROLLUP: prefix masks
            masks = [(1 << g) - 1 for g in range(L, -1, -1)]

        def _filler(t):
            if pa.types.is_string(t) or pa.types.is_large_string(t):
                return pa.scalar("", t)
            if pa.types.is_timestamp(t) or pa.types.is_date(t):
                return pa.scalar(0, t)
            if pa.types.is_boolean(t):
                return pa.scalar(False, t)
            return pa.scalar(0, t)

        def explode(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            parts = []
            for gid in masks:
                cols = {}
                for j, g in enumerate(group_cols):
                    col = batch[g]
                    if (gid >> j) & 1:
                        cols[g] = col
                    else:
                        t = col.type
                        cols[g] = pa.array([_filler(t).as_py()] * n, t)
                for name in batch.column_names:
                    if name not in cols:
                        cols[name] = batch[name]
                cols["gid__"] = pa.array([gid] * n, pa.int64())
                parts.append(pa.table(cols))
            return pa.concat_tables(parts, promote_options="default")

        prepped = prepped.map(explode)
        group_cols = group_cols + ["gid__"]
    aggs = []
    hash_specs = []                  # (alias, FUNC, col) — None'd on Std
    for i, it in agg_items:
        alias = names[i]
        col = f"a{i}__"
        if it.func == "COUNT" and it.star:
            if i in filt_nodes:
                aggs.append(Count(col, ignore_nulls=True,
                                  alias_name=alias))
                if hash_specs is not None:
                    hash_specs.append((alias, "COUNT", col))
            else:
                aggs.append(Count(alias_name=alias) if group_cols
                            else Sum("one__", alias_name=alias))
                if hash_specs is not None:
                    hash_specs.append((alias, "COUNT_ALL", None))
        elif it.func == "COUNT":
            aggs.append(Count(col, ignore_nulls=True, alias_name=alias))
            if hash_specs is not None:
                hash_specs.append((alias, "COUNT", col))
        elif it.func == "SUM":
            aggs.append(Sum(col, alias_name=alias))
            if hash_specs is not None:
                hash_specs.append((alias, "SUM", col))
        elif it.func == "AVG":
            aggs.append(Mean(col, alias_name=alias))
            if hash_specs is not None:
                hash_specs.append((alias, "AVG", col))
        elif it.func == "MIN":
            aggs.append(Min(col, alias_name=alias))
            if hash_specs is not None:
                hash_specs.append((alias, "MIN", col))
        elif it.func == "MAX":
            aggs.append(Max(col, alias_name=alias))
            if hash_specs is not None:
                hash_specs.append((alias, "MAX", col))
        elif it.func == "STDDEV_POP":
            aggs.append(Std(col, ddof=0, alias_name=alias))
            hash_specs = None
        elif it.func == "STDDEV_SAMP":
            aggs.append(Std(col, ddof=1, alias_name=alias))
            hash_specs = None
        else:
            raise SqlError(f"unsupported aggregate {it.func}")

    if group_cols:
        if hash_specs is not None:
            # partial-aggregation plan: per-block arrow hash partials →
            # key-hash partition → arrow combine (4-5× the sort-based
            # native groupby at high key cardinality; NULL keys are
            # ordinary groups)
            out = _hash_grouped_aggregate(prepped, group_cols,
                                          hash_specs)
        else:
            # Ray's aggregates: COUNT int64, AVG and STDDEV float64, SUM
            # arrow's sum type, MIN/MAX the input type
            fields = [prepped.schema.field(g) for g in group_cols]
            for i, it in agg_items:
                t = (pa.int64() if it.func == "COUNT"
                     else prepped.schema.field(f"a{i}__").type)
                if it.func == "SUM":
                    t = pc.sum(pa.array([], t)).type
                elif it.func in ("AVG", "STDDEV_POP", "STDDEV_SAMP"):
                    t = pa.float64()
                fields.append(pa.field(names[i], t))
            out = _Rel(prepped.ds.groupby(group_cols).aggregate(*aggs),
                       pa.schema(fields))
        if rollup:
            group_cols = group_cols[:-1]     # drop gid__ from scope

            def unroll(batch: pa.Table) -> pa.Table:
                gid = batch["gid__"]
                for j, g in enumerate(group_cols):
                    col = batch[g]
                    keep = pc.not_equal(
                        pc.bit_wise_and(gid, 1 << j), 0)
                    t = col.type if not isinstance(col, pa.ChunkedArray) \
                        else col.type
                    batch = batch.set_column(
                        batch.column_names.index(g), g,
                        pc.if_else(keep, col, pa.scalar(None, t)))
                return batch.drop_columns(["gid__"])

            out = out.map(unroll)

        def proj2(batch: pa.Table) -> pa.Table:
            cols = {}
            for i, it in enumerate(items[:visible_n]):
                if i in postagg:
                    cols[names[i]] = _const(_eval(postagg[i], batch),
                                            batch.num_rows)
                elif it.kind == "agg" or names[i] in group_cols:
                    cols[names[i]] = batch[names[i]]
                else:
                    cols[names[i]] = batch[it.expr_toks[0][1]]
            for h in having_hidden:     # HAVING's hoisted aggregates
                cols[h] = batch[h]      # pass through; dropped post-filter
            return pa.table(cols)

        return _having_finish(out.map(proj2), q, names[:visible_n],
                              having_node, having_hidden)

    # global aggregate → one-row table
    if q["having"]:
        raise SqlError("HAVING requires GROUP BY")
    res = prepped.ds.aggregate(*aggs)
    row = {}
    for i, it in agg_items:
        v = res[names[i]]
        if v is None and it.func == "COUNT":
            v = 0   # SQL COUNT over an empty input is 0, not NULL
        row[names[i]] = [v]
    t = pa.table(row)
    if postagg:
        cols = {}
        for i, it in enumerate(items[:visible_n]):
            if i in postagg:
                v = _eval(postagg[i], t)
                cols[names[i]] = (pa.array([v.as_py()])
                                  if isinstance(v, pa.Scalar) else v)
            elif it.kind == "agg":
                cols[names[i]] = t[names[i]]
        t = pa.table(cols)
    return _Rel(t, t.schema)


def _split_call_args(toks):
    """Split a function-argument token stream on top-level commas."""
    parts, cur, depth = [], [], 0
    for t in toks:
        if t == ("op", "("):
            depth += 1
        elif t == ("op", ")"):
            depth -= 1
        if depth == 0 and t == ("op", ","):
            parts.append(cur)
            cur = []
        else:
            cur.append(t)
    parts.append(cur)
    return parts


def _execute_quantile(rel, q, items, names, group_cols, agg_items,
                      alias_nodes, having_node, having_hidden):
    """MEDIAN(x) / QUANTILE_CONT(x, q) — grouped and global, optionally
    mixed with COUNT(*)/COUNT/SUM/AVG/MIN/MAX over the SAME expression
    (the reference's SQLite dialect gets median from sqlite3 itself;
    here it maps onto the census / histogram-refinement plans of
    georay.quantiles — see that module for the scale analysis).

    Grouped = exact (key, value)-census plan, one vectorized resolve per
    hash bucket; companions derive from the census with NO extra pass
    (census values are cast to float64, so MIN/MAX/SUM over an integer
    column surface as DOUBLE — use a separate plain aggregate query if
    integer-typed output matters).  Global = histogram refinement for
    the quantiles + one streaming aggregate pass for the companions.
    """
    from .quantiles import global_quantiles, grouped_quantiles

    qi, plain = [], []
    for i, it in agg_items:
        (qi if it.func in _QUANT_FUNCS else plain).append((i, it))
    qspec = []           # (select idx, fraction, value expr toks)
    for i, it in qi:
        if it.func == "MEDIAN":
            qspec.append((i, 0.5, tuple(it.expr_toks)))
            continue
        parts = _split_call_args(it.expr_toks)
        if len(parts) != 2 or len(parts[1]) != 1 \
                or parts[1][0][0] != "num":
            raise SqlError("QUANTILE_CONT needs (expr, fraction) with "
                           "a literal fraction")
        frac = float(parts[1][0][1])
        if not 0.0 <= frac <= 1.0:
            raise SqlError("QUANTILE_CONT fraction must be in [0, 1]")
        qspec.append((i, frac, tuple(parts[0])))
    vtoks = qspec[0][2]
    if any(t != vtoks for _, _, t in qspec):
        raise SqlError("all MEDIAN/QUANTILE_CONT items in one query "
                       "must aggregate the same expression (one census "
                       "per query) — split the query otherwise")
    extras = {}
    for i, it in plain:
        if it.func == "COUNT" and it.star:
            extras[names[i]] = "count_star"
        elif it.func in ("COUNT", "SUM", "AVG", "MIN", "MAX") \
                and tuple(it.expr_toks) == vtoks:
            extras[names[i]] = it.func.lower()
        else:
            raise SqlError(
                f"{it.func} mixed with MEDIAN/QUANTILE_CONT must "
                f"aggregate the same expression (or be COUNT(*)) — "
                f"split the query otherwise")
    vnode, used = _parse_expr_tokens(list(vtoks))
    if used != len(vtoks):
        raise SqlError("bad MEDIAN/QUANTILE_CONT expression")

    def prep(batch: pa.Table) -> pa.Table:
        cols = {}
        for g in group_cols:
            if g in alias_nodes:
                cols[g] = _const(_eval(alias_nodes[g], batch),
                                 batch.num_rows)
            else:
                cols[g] = batch[g]
        cols["qv__"] = _const(_eval(vnode, batch), batch.num_rows)
        if "count_star" in extras.values() and not group_cols:
            # Ray's Count() without `on` yields 0 in the global path
            cols["one__"] = pa.array([1] * batch.num_rows, pa.int64())
        return pa.table(cols)

    prepped = rel.map(prep)
    q_names = [names[i] for i, _, _ in qspec]
    qs_list = [f for _, f, _ in qspec]

    if group_cols:
        # grouped_quantiles emits the keys, float64 quantiles, then the
        # extras (int64 counts, float64 otherwise)
        fields = [prepped.schema.field(g) for g in group_cols]
        fields += [pa.field(nm, pa.float64()) for nm in q_names]
        fields += [pa.field(nm, pa.int64() if kind.startswith("count")
                            else pa.float64())
                   for nm, kind in extras.items()]
        out = _Rel(grouped_quantiles(prepped.ds, group_cols, "qv__",
                                     qs_list, q_names=q_names,
                                     extras=extras), pa.schema(fields))

        def proj2(batch: pa.Table) -> pa.Table:
            cols = {}
            for i, it in enumerate(items):
                if it.kind == "agg" or names[i] in group_cols:
                    cols[names[i]] = batch[names[i]]
                else:
                    cols[names[i]] = batch[it.expr_toks[0][1]]
            return pa.table(cols)

        return _having_finish(out.map(proj2), q, names, having_node,
                              having_hidden)

    # global form: histogram-refinement quantiles + one aggregate pass
    if q["having"]:
        raise SqlError("HAVING requires GROUP BY")
    qt = global_quantiles(prepped.ds, "qv__", qs_list, q_names=q_names)
    row = {}
    if extras:
        from ray.data.aggregate import Count, Max, Mean, Min, Sum
        aggs, kinds = [], []
        for nm, kind in extras.items():
            kinds.append((nm, kind))
            if kind == "count_star":
                aggs.append(Sum("one__", alias_name=nm))
            elif kind == "count":
                aggs.append(Count("qv__", ignore_nulls=True,
                                  alias_name=nm))
            elif kind == "sum":
                aggs.append(Sum("qv__", alias_name=nm))
            elif kind == "avg":
                aggs.append(Mean("qv__", alias_name=nm))
            elif kind == "min":
                aggs.append(Min("qv__", alias_name=nm))
            else:
                aggs.append(Max("qv__", alias_name=nm))
        res = prepped.ds.aggregate(*aggs)
        for nm, kind in kinds:
            v = res[nm]
            if v is None and kind in ("count", "count_star"):
                v = 0
            row[nm] = [v]
    for nm in q_names:
        row[nm] = [qt[nm][0].as_py()]
    t = pa.table({nm: row[nm] for nm in names})
    return _Rel(t, t.schema)


def _execute_count_distinct(rel, q, items, names, group_cols, agg_items,
                            alias_nodes, having_node, having_hidden):
    """COUNT(DISTINCT) — grouped, global, several at once, and mixed
    with COUNT/SUM/AVG/MIN/MAX — in ONE shuffle and no per-key Python
    (the reference's SQLite dialect gets this from sqlite3 itself;
    ogr/ogrsf_frmts/sqlite/ogrsqliteexecutesql.cpp).

    Shape: each block pre-shrinks with an arrow hash ``group_by`` on
    (group keys, distinct exprs) — regular aggregates become mergeable
    PARTIALS while every group's distinct value SETS survive — then rows
    hash-partition on the GROUP key alone, so a group finalizes in
    exactly one bucket with a single arrow ``group_by`` call
    (``count_distinct`` + partial combination).  NULL group keys are
    ordinary hash values (arrow kernels), unlike Ray's sort-based
    groupby.  Global form: partitions on the distinct value itself when
    there is one distinct expr (buckets split the value space, so
    per-bucket distinct counts SUM), else one bucket of block-shrunk
    rows; either way only ≤P tiny partial rows reach the driver."""
    import os

    import numpy as np
    import pandas as pd

    dist = [(i, it) for i, it in agg_items if it.distinct]
    regular = [(i, it) for i, it in agg_items if not it.distinct]
    nodes = {}
    for i, it in agg_items:
        if it.star:
            continue
        node, used = _parse_expr_tokens(it.expr_toks)
        if used != len(it.expr_toks):
            raise SqlError("bad aggregate expression")
        nodes[i] = node
    need_one = any(it.star for _, it in regular)
    dcols = {i: f"d{i}__" for i, _ in dist}
    rcols = {i: f"a{i}__" for i, it in regular if not it.star}

    # mergeable partials per regular item: (input col, arrow fn) pairs
    partials = {}   # (col, fn) -> partial output column name
    item_partials = {}   # item idx -> dict(role -> partial col)
    for i, it in regular:
        col = "one__" if it.star else rcols[i]
        want = {"COUNT": [("sum", col) if it.star else ("count", col)],
                "SUM": [("sum", col)], "MIN": [("min", col)],
                "MAX": [("max", col)],
                "AVG": [("sum", col), ("count", col)]}[it.func]
        item_partials[i] = {}
        for fn, c in want:
            key = (c, fn)
            if key not in partials:
                partials[key] = f"p{len(partials)}__"
            item_partials[i][fn] = partials[key]

    P = max(8, 4 * (os.cpu_count() or 8))
    part_keys = list(group_cols) if group_cols else (
        [dcols[dist[0][0]]] if len(dist) == 1 else [])

    def prep(batch: pa.Table) -> pa.Table:
        cols = {}
        for g in group_cols:
            if g in alias_nodes:
                cols[g] = _const(_eval(alias_nodes[g], batch),
                                 batch.num_rows)
            else:
                cols[g] = batch[g]
        for i, _ in dist:
            cols[dcols[i]] = _eval(nodes[i], batch)
        for i in rcols:
            cols[rcols[i]] = _eval(nodes[i], batch)
        if need_one:
            cols["one__"] = pa.array(
                np.ones(batch.num_rows, np.int64))
        t = pa.table(cols)
        keys = list(group_cols) + [dcols[i] for i, _ in dist]
        specs = [(c, fn) for (c, fn), _ in partials.items()]
        g = t.group_by(keys, use_threads=False).aggregate(specs)
        ren = {f"{c}_{fn}": out for (c, fn), out in partials.items()}
        g = g.rename_columns([ren.get(n, n) for n in g.schema.names])
        if part_keys:
            key = pd.util.hash_pandas_object(
                g.select(part_keys).to_pandas(), index=False) \
                .to_numpy(np.uint64)
            part = (key % np.uint64(P)).astype(np.int64)
        else:
            part = np.zeros(g.num_rows, np.int64)
        return g.append_column("part__", pa.array(part))

    def _item_col(i, it, t, cd_name):
        """Final output column for one select item from the combined
        bucket table ``t``."""
        if it.kind != "agg":
            return t[names[i]] if names[i] in t.schema.names \
                else t[it.expr_toks[0][1]]
        if it.distinct:
            if it.func == "COUNT":
                return pc.cast(t[cd_name(i)], pa.int64())
            if it.func == "SUM":
                return t[f"{dcols[i]}_dsum"]
            # AVG(DISTINCT) = sum of distinct / count of distinct
            return pc.divide(
                pc.cast(t[f"{dcols[i]}_dsum"], pa.float64()),
                pc.cast(t[f"{dcols[i]}_dcnt"], pa.float64()))
        p = item_partials[i]
        if it.func == "COUNT":
            v = p.get("count", p.get("sum"))
            return pc.cast(pc.fill_null(t[v], 0), pa.int64())
        if it.func == "AVG":
            return pc.divide(pc.cast(t[p["sum"]], pa.float64()),
                             pc.cast(t[p["count"]], pa.float64()))
        return t[p[{"SUM": "sum", "MIN": "min", "MAX": "max"}[it.func]]]

    if group_cols:
        def finish_bucket(g: pa.Table) -> pa.Table:
            g = g.drop_columns(["part__"]).combine_chunks()
            specs = [(dcols[i], "count_distinct") for i, _ in dist]
            specs += [(out, {"count": "sum"}.get(fn, fn))
                      for (c, fn), out in partials.items()]
            t = g.group_by(list(group_cols),
                           use_threads=False).aggregate(specs)
            # combined-partial names: p3___sum etc.
            comb = {out: f"{out}_{({'count': 'sum'}).get(fn, fn)}"
                    for (c, fn), out in partials.items()}
            t = t.rename_columns(
                [ {v: k for k, v in comb.items()}.get(n, n)
                  for n in t.schema.names])
            # SUM/AVG(DISTINCT): dedupe (group, value) pairs, aggregate
            # the distinct values per group, join back on the group keys
            for i, it in dist:
                if it.func == "COUNT":
                    continue
                d2 = g.group_by(list(group_cols) + [dcols[i]],
                                use_threads=False).aggregate([])
                a2 = [(dcols[i], "sum")]
                if it.func == "AVG":
                    a2.append((dcols[i], "count"))
                s2 = d2.group_by(list(group_cols),
                                 use_threads=False).aggregate(a2)
                ren = {f"{dcols[i]}_sum": f"{dcols[i]}_dsum",
                       f"{dcols[i]}_count": f"{dcols[i]}_dcnt"}
                s2 = s2.rename_columns(
                    [ren.get(n, n) for n in s2.schema.names])
                t = t.join(s2, keys=list(group_cols))
            cols = {names[i]: _item_col(
                        i, it, t,
                        lambda j: f"{dcols[j]}_count_distinct")
                    for i, it in enumerate(items)}
            return pa.table(cols)

        return _having_finish(rel.shuffle(prep, "part__", finish_bucket),
                              q, names, having_node, having_hidden)

    # global: per-bucket scalar partials, tiny driver-side combine
    if q["having"]:
        raise SqlError("HAVING requires GROUP BY")

    def bucket_scalars(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        cols = {}
        for i, it in dist:
            # buckets partition the distinct-VALUE space (single
            # distinct expr) or everything is in one bucket — either
            # way per-bucket distinct partials combine by addition
            uniq = pc.unique(g[dcols[i]])
            cols[dcols[i]] = pa.array(
                [pc.count_distinct(g[dcols[i]]).as_py()], pa.int64())
            if it.func in ("SUM", "AVG"):
                cols[f"{dcols[i]}_dsum"] = pa.array(
                    [pc.sum(uniq).as_py()])
        for (c, fn), out in partials.items():
            v = {"sum": pc.sum, "count": pc.sum, "min": pc.min,
                 "max": pc.max}[fn](g[out])
            cols[out] = pa.array([v.as_py()])
        return pa.table(cols)

    rows = _collect(*rel.shuffle(prep, "part__", bucket_scalars))
    final = {}
    for i, it in dist:
        col = rows[dcols[i]] if rows.num_rows else None
        final[dcols[i] + "_count_distinct"] = pa.array(
            [int(pc.sum(col).as_py() or 0) if col is not None else 0],
            pa.int64())
        if it.func in ("SUM", "AVG"):
            sc = rows[f"{dcols[i]}_dsum"] if rows.num_rows else None
            final[f"{dcols[i]}_dsum"] = pa.array(
                [pc.sum(sc).as_py() if sc is not None else None])
            final[f"{dcols[i]}_dcnt"] = final[
                dcols[i] + "_count_distinct"]
    for (c, fn), out in partials.items():
        if rows.num_rows:
            v = {"sum": pc.sum, "count": pc.sum, "min": pc.min,
                 "max": pc.max}[fn](rows[out]).as_py()
        else:
            v = 0 if fn in ("sum", "count") and c == "one__" else None
        final[out] = pa.array([v])
    t = pa.table(final)
    t = pa.table({names[i]: _item_col(
                     i, it, t, lambda j: f"{dcols[j]}_count_distinct")
                  for i, it in enumerate(items)})
    return _Rel(t, t.schema)


def _execute_window(rel, q, items, names, win_items):
    """SELECT with window functions: WHERE has already been applied; the
    windows run through ``georay.windows.window_compute`` (hash-partition
    the PARTITION BY keys, one vectorized lexsort+segment pass per
    partition), then a plain projection emits the select list."""
    from .windows import _window_type, window_compute

    specs = []
    prep_nodes = {}
    for i, it in win_items:
        arg = None
        if it.expr_toks:
            if len(it.expr_toks) == 1 and it.expr_toks[0][0] == "ident":
                arg = it.expr_toks[0][1]
            else:
                node, used = _parse_expr_tokens(it.expr_toks)
                if used != len(it.expr_toks):
                    raise SqlError("bad window-function argument")
                arg = f"w{i}__"
                prep_nodes[arg] = node
        part, order, frame = it.over
        if not part:
            # global window (no PARTITION BY): route through ONE hidden
            # constant partition — semantically exact, but the whole
            # input lands in a single partition, so this is a small-
            # result / driver-scale construct (same class as a global
            # ORDER BY without LIMIT).  Partitioned windows stay fully
            # distributed.
            part = ["wglob__"]
            prep_nodes.setdefault("wglob__", ("lit", 0))
        # expression ORDER BY keys hoist to hidden computed columns,
        # exactly like expression arguments
        norm_order = []
        for j, entry in enumerate(order or []):
            c, d = entry[0], entry[1]
            if len(entry) == 3 and entry[2] is not None:
                raise SqlError("NULLS FIRST/LAST is not supported in "
                               "window ORDER BY")
            if isinstance(c, str):
                norm_order.append((c, d))
            else:
                node, used = _parse_expr_tokens(c)
                if used != len(c):
                    raise SqlError("bad window ORDER BY expression")
                cname = f"wo{i}_{j}__"
                prep_nodes[cname] = node
                norm_order.append((cname, d))
        order = norm_order
        ftype = None
        if frame is not None and len(frame) == 3:
            lo, hi, ftype = frame
            frame = (lo, hi)
        spec = dict(func=it.func, arg=arg, name=f"wout{i}__",
                    partition_by=part, order_by=order, star=it.star,
                    frame=frame, frame_type=ftype or "rows")
        spec.update(it.win_args or {})
        specs.append(spec)

    if prep_nodes:
        def addcols(batch: pa.Table, _nodes=prep_nodes) -> pa.Table:
            for cname, node in _nodes.items():
                batch = batch.append_column(
                    cname, _const(_eval(node, batch), batch.num_rows))
            return batch

        rel = rel.map(addcols)

    schema = rel.schema
    for spec in specs:
        schema = schema.append(
            pa.field(spec["name"], _window_type(spec, rel.schema)))
    rel = _Rel(window_compute(rel.ds, specs), schema)

    if q.get("qualify"):
        # QUALIFY filters AFTER window computation, BEFORE projection
        # (DuckDB semantics); window values are referenced by their
        # SELECT aliases, which rewrite to the hidden wout columns —
        # non-window columns are still present at this point, so the
        # predicate may mix both.
        alias_to_w = {names[i]: f"wout{i}__" for i, _ in win_items}
        qtoks = [("ident", alias_to_w[v])
                 if k == "ident" and v in alias_to_w else (k, v)
                 for k, v in q["qualify"]]
        qnode, used = _parse_expr_tokens(qtoks)
        if used != len(qtoks):
            raise SqlError("trailing tokens in QUALIFY")

        def qfilt(batch: pa.Table, _n=qnode) -> pa.Table:
            return batch.filter(pc.fill_null(_eval(_n, batch), False))

        rel = rel.map(qfilt)

    nodes = []
    for i, it in enumerate(items):
        if it.kind == "window":
            nodes.append(("col", f"wout{i}__"))
        else:
            node, used = _parse_expr_tokens(it.expr_toks)
            if used != len(it.expr_toks):
                raise SqlError("bad select expression")
            nodes.append(node)

    out = _project(rel, names, nodes)
    if q["distinct"]:
        out = _distinct_rows(out, names)
    return _finish(out, q, names)


def _parse_having(toks, items, names, extend=False):
    """HAVING: rewrite aggregate calls to references to their SELECT
    output columns.  With ``extend=True``, aggregates NOT in the SELECT
    list are HOISTED: appended to ``items``/``names`` in place as hidden
    aggregate columns (returned so the caller can drop them after the
    filter); otherwise they raise."""
    sigs = {}
    for i, it in enumerate(items):
        if it.kind == "agg":
            sigs[_agg_signature(it)] = names[i]
    hidden = []
    out = []
    i = 0
    while i < len(toks):
        k, v = toks[i]
        if k == "sqlkw" and v in _AGG_FUNCS:
            # collect FUNC ( ... )
            j = i + 1
            if j >= len(toks) or toks[j] != ("op", "("):
                raise SqlError(f"{v} needs (...) in HAVING")
            depth = 1
            j += 1
            inner = []
            while j < len(toks) and depth:
                if toks[j] == ("op", "("):
                    depth += 1
                elif toks[j] == ("op", ")"):
                    depth -= 1
                    if depth == 0:
                        break
                inner.append(toks[j])
                j += 1
            star = inner == [("op", "*")]
            distinct = bool(inner) and inner[0] == ("sqlkw", "DISTINCT")
            if distinct:
                inner = inner[1:]
            sig = (v, distinct, star, tuple(() if star else inner))
            if sig not in sigs:
                if not extend:
                    raise SqlError(
                        f"HAVING aggregate {v} must also appear in "
                        "SELECT")
                hid = f"__hav{len(items)}"
                items.append(_SelectItem(
                    "agg", func=v, distinct=distinct,
                    expr_toks=list(inner), star=star, name=hid))
                names.append(hid)
                sigs[sig] = hid
                hidden.append(hid)
            out.append(("ident", sigs[sig]))
            i = j + 1
        else:
            out.append((k, v))
            i += 1
    node, used = _parse_expr_tokens(out)
    if used != len(out):
        raise SqlError("trailing tokens in HAVING")
    return (node, hidden) if extend else node


def _having_finish(out: _Rel, q, names, having_node, having_hidden):
    """A grouped result's HAVING filter, minus its hoisted aggregate
    columns, then :func:`_finish`."""
    if having_node is not None:
        out = out.map(lambda b, _n=having_node:
                      b.filter(pc.fill_null(_eval(_n, b), False)))
        if having_hidden:
            out = out.map(lambda b, _h=tuple(having_hidden):
                          b.drop_columns(list(_h)))
            names = [n for n in names if n not in having_hidden]
    return _finish(out, q, names)


def _finish(out: _Rel, q, names) -> _Rel:
    if q["order"]:
        sort_cols, desc, hidden = [], [], []
        for j, entry in enumerate(q["order"]):
            c, d, nf = entry if len(entry) == 3 else (*entry, None)
            if isinstance(c, int):
                if not 1 <= c <= len(names):
                    raise SqlError(f"ORDER BY ordinal {c} out of range")
                c = names[c - 1]
            if isinstance(c, str):
                if c not in names and "." in c \
                        and c.split(".", 1)[0] in (q.get("renamed") or ()) \
                        and c.split(".", 1)[1] in names:
                    # ORDER BY n1.n_name where the select list exposed
                    # the stripped default name n_name
                    c = c.split(".", 1)[1]
                if c not in names:
                    raise SqlError(
                        f"ORDER BY column {c!r} not in SELECT list")
                if nf is not None:
                    # NULLS FIRST|LAST: a hidden is-null bool key
                    # sorted ahead of the value column places the null
                    # block (ascending bool → nulls last; descending →
                    # nulls first)
                    nn = f"__nn{j}"

                    def add_nn(batch: pa.Table, _c=c,
                               _h=nn) -> pa.Table:
                        return batch.append_column(
                            _h, pc.is_null(batch[_c]))

                    out = out.map(add_nn)
                    sort_cols.append(nn)
                    desc.append(bool(nf))    # FIRST → descending bool
                    hidden.append(nn)
                sort_cols.append(c)
            else:
                # ORDER BY <expression over SELECT-list columns>:
                # computed once into a hidden key column, dropped after
                # the sort (ogr_gensql evaluates order expressions the
                # same way)
                if nf is not None:
                    raise SqlError("NULLS FIRST/LAST needs a plain "
                                   "column or alias ORDER BY key")
                node, used = _parse_expr_tokens(c)
                if used != len(c):
                    raise SqlError("trailing tokens in ORDER BY")
                hname = f"__ord{j}"

                def add_key(batch: pa.Table, _n=node,
                            _h=hname) -> pa.Table:
                    v = _eval(_n, batch)
                    if not isinstance(v, (pa.Array, pa.ChunkedArray)):
                        v = pa.array(v)
                    return batch.append_column(_h, v)

                out = out.map(add_key)
                sort_cols.append(hname)
                hidden.append(hname)
            desc.append(d)
        out = out._replace(ds=out.ds.sort(sort_cols, descending=desc))
        if hidden:
            out = out.map(lambda b, _h=tuple(hidden):
                          b.drop_columns(list(_h)))
    if q["limit"] is not None:
        off = q["offset"] or 0
        out = out._replace(ds=out.ds.limit(q["limit"] + off))
        if off:
            # OFFSET applies to a small post-LIMIT result: slice driver-side
            tbl = _collect(*out).slice(off)
            return _Rel(tbl, tbl.schema)
    return out
