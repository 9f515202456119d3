"""SQL front-end (georay.sql): parser errors + 3-way parity with DuckDB
running the identical SQL text over the same parquet tables."""

import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _duck(sql: str) -> pd.DataFrame:
    import duckdb
    con = duckdb.connect()
    for p in glob.glob(f"{SF}/*.parquet"):
        t = os.path.basename(p).removesuffix(".parquet")
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")
    return con.execute(sql).df()


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    out = df[cols].sort_values(cols).reset_index(drop=True)
    for c in out.columns:
        if out[c].dtype.kind in "iu":
            out[c] = out[c].astype("int64")
    return out


def _run(sql: str, tables):
    from georay.queries import _rp
    from georay.sql import execute_sql
    return execute_sql(sql, {t: _rp(SF, t) for t in tables}).to_pandas()


def _run_row(name: str) -> pd.DataFrame:
    """A georay.queries.SQL_TEXT row over the tables its runner derives
    from the text (synthesized partsupp included)."""
    from georay import queries as Q
    from georay.sql import execute_sql
    text = Q.SQL_TEXT[name]
    res = execute_sql(text, Q._sql_tables(SF, text))
    return res if isinstance(res, pd.DataFrame) else res.to_pandas()


CASES = [
    ("SELECT o_orderpriority, COUNT(*) AS n, SUM(o_orderkey % 97) AS s "
     "FROM orders WHERE o_totalprice > 50000 GROUP BY o_orderpriority",
     ["orders"]),
    ("SELECT p_partkey, p_size FROM part WHERE p_size >= 10 "
     "ORDER BY p_size DESC, p_partkey LIMIT 15", ["part"]),
    ("SELECT DISTINCT c_mktsegment FROM customer", ["customer"]),
    ("SELECT COUNT(DISTINCT o_custkey) AS n FROM orders", ["orders"]),
    ("SELECT o_orderstatus, COUNT(*) AS n, MAX(o_totalprice) AS hi "
     "FROM orders GROUP BY o_orderstatus HAVING COUNT(*) > 20",
     ["orders"]),
    ("SELECT MIN(o_totalprice) AS lo, MAX(o_totalprice) AS hi, "
     "COUNT(*) AS n FROM orders", ["orders"]),
    ("SELECT o_orderkey, o_totalprice / 2 AS half FROM orders "
     "WHERE o_orderkey < 20 AND o_orderpriority LIKE '1-%'", ["orders"]),
    # GROUP BY ALL: every non-aggregate select item becomes a key
    ("SELECT o_orderstatus, o_orderpriority, COUNT(*) AS n, "
     "AVG(o_totalprice) AS m FROM orders GROUP BY ALL", ["orders"]),
    ("SELECT UPPER(o_orderstatus) AS u, COUNT(*) AS n FROM orders "
     "GROUP BY ALL ORDER BY u", ["orders"]),
]


@pytest.mark.parametrize("sql,tables", CASES,
                         ids=[f"case{i}" for i in range(len(CASES))])
def test_sql_matches_duckdb(ray_session, sql, tables):
    got = _norm(_run(sql, tables))
    want = _norm(_duck(sql))
    want.columns = got.columns
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=False, rtol=1e-12)


def test_sql_errors(ray_session):
    import ray
    from georay.sql import SqlError, execute_sql
    tabs = {"orders": ray.data.read_parquet(f"{SF}/orders.parquet")}
    for bad in [
        "SELECT FROM orders",
        "SELECT o_orderkey FROM nope",
        "SELECT o_custkey, COUNT(*) AS n FROM orders GROUP BY o_orderkey",
        "SELECT COUNT(*) AS n FROM orders HAVING SUM(o_orderkey) > 5",
        "SELECT o_orderkey FROM orders ORDER BY zzz",
    ]:
        with pytest.raises(SqlError):
            r = execute_sql(bad, tabs)
            if not isinstance(r, pa.Table):
                r.materialize()


def test_sql_limit_offset(ray_session):
    import ray
    from georay.sql import execute_sql
    tabs = {"part": ray.data.read_parquet(f"{SF}/part.parquet")}
    full = execute_sql("SELECT p_partkey FROM part ORDER BY p_partkey "
                       "LIMIT 10", tabs).to_pandas()
    off = execute_sql("SELECT p_partkey FROM part ORDER BY p_partkey "
                      "LIMIT 7 OFFSET 3", tabs)
    off = off.to_pandas()
    assert list(off["p_partkey"]) == list(full["p_partkey"][3:10])


def test_cast_and_group_by_alias(ray_session, sf_dir):
    """CAST + scalar functions + GROUP BY alias through the front-end,
    checked against DuckDB running the identical text (SUM kept int64 via
    CAST; DuckDB SUM(BIGINT)→HUGEINT handled by value comparison)."""
    import duckdb
    import ray
    sql = ("SELECT upper(substr(o_orderpriority, 3, 8)) AS pri, "
           "count(*) AS n, "
           "sum(cast(round(o_totalprice * 100.0, 0) AS BIGINT)) AS cents "
           "FROM orders GROUP BY pri ORDER BY pri")
    tables = {"orders": ray.data.read_parquet(f"{sf_dir}/orders.parquet")}
    from georay.sql import execute_sql
    got = execute_sql(sql, tables)
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    con = duckdb.connect()
    con.sql(f"CREATE VIEW orders AS SELECT * FROM "
            f"read_parquet('{sf_dir}/orders.parquet')")
    want = con.sql(sql).df()
    assert got["pri"].tolist() == want["pri"].tolist()
    assert got["n"].tolist() == want["n"].tolist()
    assert [float(x) for x in got["cents"]] == \
        [float(x) for x in want["cents"]]


def test_cast_semantics():
    """CAST rounds float→int to nearest (ties away) like DuckDB, and
    casts between string/number types."""
    import pyarrow as pa
    from georay.expr import FilterSyntaxError, _Parser, _eval, _tokenize

    t = pa.table({"x": [2.5, -2.5, 2.4, 2.6], "s": ["10", "11", "12", "13"]})

    def ev(src):
        return _eval(_Parser(_tokenize(src)).parse(), t).to_pylist()

    assert ev("cast(x AS BIGINT)") == [3, -3, 2, 3]
    assert ev("cast(s AS INTEGER)") == [10, 11, 12, 13]
    assert ev("cast(x AS VARCHAR)")[2] == "2.4"
    import pytest as _pt
    with _pt.raises(FilterSyntaxError):
        ev("cast(x AS NOSUCHTYPE)")


def test_ilike_and_stddev(ray_session, sf_dir):
    import duckdb
    import ray
    from georay.sql import execute_sql
    tables = {"customer": ray.data.read_parquet(f"{sf_dir}/customer.parquet")}
    con = duckdb.connect()
    con.sql(f"CREATE VIEW customer AS SELECT * FROM "
            f"read_parquet('{sf_dir}/customer.parquet')")
    sql = ("SELECT c_custkey FROM customer "
           "WHERE c_mktsegment ILIKE 'bui%' ORDER BY c_custkey")
    got = execute_sql(sql, tables)
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    want = con.sql(sql).df()
    assert got["c_custkey"].tolist() == want["c_custkey"].tolist()
    assert len(got) > 0
    sql2 = ("SELECT c_mktsegment, STDDEV_SAMP(c_acctbal) AS sd "
            "FROM customer GROUP BY c_mktsegment ORDER BY c_mktsegment")
    got2 = execute_sql(sql2, tables)
    got2 = got2.to_pandas() if hasattr(got2, "to_pandas") else got2
    want2 = con.sql(sql2).df()
    assert got2["c_mktsegment"].tolist() == want2["c_mktsegment"].tolist()
    import numpy as np
    assert np.allclose(got2["sd"], want2["sd"], rtol=1e-9)


WINDOW_CASES = [
    # peer-tied running SUM: the default RANGE frame gives equal order
    # keys the same cumulative value (o_orderpriority has heavy ties)
    ("SELECT o_custkey, o_orderkey, "
     "SUM(CAST(o_orderkey % 13 AS DOUBLE)) OVER "
     "(PARTITION BY o_custkey ORDER BY o_orderpriority) AS s "
     "FROM orders WHERE o_custkey % 4 = 0", ["orders"]),
    # RANK vs DENSE_RANK on a tied key
    ("SELECT o_custkey, o_orderkey, "
     "RANK() OVER (PARTITION BY o_custkey ORDER BY o_orderstatus) AS r, "
     "DENSE_RANK() OVER "
     "(PARTITION BY o_custkey ORDER BY o_orderstatus) AS dr "
     "FROM orders WHERE o_custkey % 6 = 0", ["orders"]),
    # LEAD null at the partition edge; LAG with a default
    ("SELECT user_id, event_id, "
     "LAG(value, 2, -1.0) OVER "
     "(PARTITION BY user_id ORDER BY ts, event_id) AS pv, "
     "LEAD(event_id) OVER "
     "(PARTITION BY user_id ORDER BY ts, event_id) AS nxt "
     "FROM events WHERE user_id % 9 = 0", ["events"]),
    # whole-partition aggregates (no ORDER BY): AVG/MIN/MAX/COUNT
    ("SELECT o_custkey, o_orderkey, "
     "AVG(o_totalprice) OVER (PARTITION BY o_custkey) AS m, "
     "MIN(o_totalprice) OVER (PARTITION BY o_custkey) AS lo, "
     "MAX(o_totalprice) OVER (PARTITION BY o_custkey) AS hi, "
     "COUNT(*) OVER (PARTITION BY o_custkey) AS n "
     "FROM orders WHERE o_custkey % 8 = 0", ["orders"]),
    # DESC ordering + multi-key ORDER BY in OVER
    ("SELECT o_custkey, o_orderkey, "
     "ROW_NUMBER() OVER (PARTITION BY o_custkey "
     "ORDER BY o_totalprice DESC, o_orderkey) AS rn "
     "FROM orders WHERE o_custkey % 7 = 0", ["orders"]),
    # FIRST_VALUE / LAST_VALUE: default frame (LAST_VALUE ends at the
    # current PEER RUN — the classic trap), explicit unbounded frame,
    # bounded ROWS frame over a string column, DESC order
    ("SELECT o_orderkey, FIRST_VALUE(o_totalprice) OVER "
     "(PARTITION BY o_custkey ORDER BY o_orderkey) AS fv FROM orders",
     ["orders"]),
    ("SELECT o_orderkey, LAST_VALUE(o_totalprice) OVER "
     "(PARTITION BY o_custkey ORDER BY o_orderkey) AS lv FROM orders",
     ["orders"]),
    ("SELECT o_orderkey, LAST_VALUE(o_totalprice) OVER "
     "(PARTITION BY o_custkey ORDER BY o_orderkey ROWS BETWEEN "
     "UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS lv FROM orders",
     ["orders"]),
    ("SELECT o_orderkey, FIRST_VALUE(o_orderstatus) OVER "
     "(PARTITION BY o_custkey ORDER BY o_totalprice DESC ROWS BETWEEN "
     "1 PRECEDING AND 1 FOLLOWING) AS fv FROM orders", ["orders"]),
    # NTILE
    ("SELECT o_orderkey, NTILE(4) OVER (PARTITION BY o_orderstatus "
     "ORDER BY o_orderkey) AS q FROM orders", ["orders"]),
    # RANGE frames: value-distance windows, both directions, peers via
    # CURRENT ROW, DESC order keys
    ("SELECT o_orderkey, SUM(o_totalprice) OVER (PARTITION BY o_custkey "
     "ORDER BY o_orderkey RANGE BETWEEN 100 PRECEDING AND CURRENT ROW) "
     "AS s FROM orders", ["orders"]),
    ("SELECT o_orderkey, COUNT(*) OVER (PARTITION BY o_custkey "
     "ORDER BY o_totalprice RANGE BETWEEN 50000 PRECEDING AND "
     "50000 FOLLOWING) AS c FROM orders", ["orders"]),
    ("SELECT o_orderkey, AVG(o_totalprice) OVER "
     "(PARTITION BY o_orderstatus ORDER BY o_orderkey RANGE BETWEEN "
     "500 PRECEDING AND 200 FOLLOWING) AS a FROM orders", ["orders"]),
    ("SELECT o_orderkey, MIN(o_totalprice) OVER "
     "(PARTITION BY o_orderstatus ORDER BY o_orderkey RANGE BETWEEN "
     "CURRENT ROW AND 300 FOLLOWING) AS m FROM orders", ["orders"]),
    ("SELECT o_orderkey, SUM(o_totalprice) OVER (PARTITION BY o_custkey "
     "ORDER BY o_orderkey DESC RANGE BETWEEN 100 PRECEDING AND "
     "CURRENT ROW) AS s FROM orders", ["orders"]),
    # QUALIFY: post-window filter by select alias
    ("SELECT o_custkey, o_orderkey, ROW_NUMBER() OVER "
     "(PARTITION BY o_custkey ORDER BY o_totalprice DESC, o_orderkey) "
     "AS rn FROM orders QUALIFY rn <= 3", ["orders"]),
    # QUALIFY mixing a window alias with a plain column predicate
    ("SELECT o_custkey, o_orderkey, RANK() OVER "
     "(PARTITION BY o_orderstatus ORDER BY o_totalprice DESC) AS r "
     "FROM orders WHERE o_custkey < 500 "
     "QUALIFY r <= 5 AND o_orderkey % 2 = 0", ["orders"]),
]


@pytest.mark.parametrize("sql,tables", WINDOW_CASES,
                         ids=[f"win{i}" for i in range(len(WINDOW_CASES))])
def test_sql_window_matches_duckdb(ray_session, sql, tables):
    got = _norm(_run(sql, tables))
    want = _norm(_duck(sql))
    want.columns = got.columns
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=False, rtol=1e-12)


SUBQ_CASES = [
    ("SELECT c_name FROM customer WHERE c_custkey IN "
     "(SELECT o_custkey FROM orders WHERE o_totalprice > 200000) "
     "ORDER BY c_name", ["customer", "orders"]),
    ("SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity > "
     "(SELECT AVG(l_quantity) FROM lineitem)", ["lineitem"]),
    # NOT IN + empty result → COUNT(*) must be 0, not NULL
    ("SELECT COUNT(*) AS n FROM customer WHERE c_custkey NOT IN "
     "(SELECT o_custkey FROM orders)", ["customer", "orders"]),
    # scalar subquery inside an IN-subquery (nested resolution)
    ("SELECT c_mktsegment, COUNT(*) AS n FROM customer "
     "WHERE c_custkey IN (SELECT o_custkey FROM orders "
     "WHERE o_totalprice > (SELECT MAX(o_totalprice) FROM orders) * 0.8) "
     "GROUP BY c_mktsegment ORDER BY c_mktsegment",
     ["customer", "orders"]),
]


@pytest.mark.parametrize("sql,tables", SUBQ_CASES,
                         ids=[f"subq{i}" for i in range(len(SUBQ_CASES))])
def test_sql_subquery_matches_duckdb(ray_session, sql, tables):
    got = _norm(_run(sql, tables))
    want = _norm(_duck(sql))
    want.columns = got.columns
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=False, rtol=1e-12)


def test_sql_window_errors(ray_session):
    import ray
    from georay.sql import SqlError, execute_sql
    tabs = {"orders": ray.data.read_parquet(f"{SF}/orders.parquet")}
    for bad in [
        # window + GROUP BY mix
        "SELECT o_custkey, COUNT(*) AS n, ROW_NUMBER() OVER "
        "(PARTITION BY o_custkey ORDER BY o_custkey) AS rn "
        "FROM orders GROUP BY o_custkey",
        # OVER after a plain column
        "SELECT o_custkey OVER (PARTITION BY o_custkey) FROM orders",
        # QUALIFY without any window function
        "SELECT o_custkey FROM orders QUALIFY o_custkey > 5",
    ]:
        with pytest.raises(SqlError):
            r = execute_sql(bad, tabs)
            if not isinstance(r, pa.Table):
                r.materialize()


def test_sql_global_window_and_left_join_right_key(ray_session):
    """r4: OVER () with no PARTITION BY routes through one hidden
    constant partition; after LEFT JOIN the right key column is rebuilt
    (NULL where unmatched) so WHERE/SELECT can still reference it."""
    import ray
    from georay.sql import execute_sql
    tabs = {"orders": ray.data.read_parquet(f"{SF}/orders.parquet"),
            "customer": ray.data.read_parquet(f"{SF}/customer.parquet")}
    df = execute_sql(
        "SELECT o_orderkey, DENSE_RANK() OVER (ORDER BY o_orderkey) AS rk"
        " FROM orders ORDER BY o_orderkey LIMIT 5", tabs).to_pandas()
    assert list(df["rk"]) == [1, 2, 3, 4, 5]
    df2 = execute_sql(
        "SELECT COUNT(*) AS n FROM customer LEFT JOIN orders "
        "ON c_custkey = o_custkey WHERE o_custkey > 0", tabs).to_pandas()
    df3 = execute_sql(
        "SELECT COUNT(*) AS n FROM customer JOIN orders "
        "ON c_custkey = o_custkey WHERE o_custkey > 0", tabs).to_pandas()
    assert int(df2["n"][0]) == int(df3["n"][0]) > 0


def test_sql_correlated_exists(ray_session):
    """[NOT] EXISTS with one equality correlation decorrelates to a
    broadcast semi-join and matches DuckDB on the identical text."""
    for sql in (
        "SELECT c_custkey, c_mktsegment FROM customer WHERE EXISTS "
        "(SELECT 1 FROM orders WHERE o_custkey = c_custkey "
        "AND o_totalprice > 300000)",
        "SELECT c_custkey FROM customer WHERE NOT EXISTS "
        "(SELECT 1 FROM orders WHERE o_custkey = c_custkey "
        "AND o_totalprice > 300000)",
        # correlation written outer = inner also works
        "SELECT c_custkey FROM customer WHERE EXISTS "
        "(SELECT 1 FROM orders WHERE c_custkey = o_custkey)",
    ):
        got = _norm(_run(sql, ["customer", "orders"]))
        want = _norm(_duck(sql))
        want.columns = got.columns
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_exists_rejects_non_equality_correlation(ray_session):
    from georay.sql import SqlError, execute_sql
    import ray
    tabs = {t: ray.data.read_parquet(f"{SF}/{t}.parquet")
            for t in ("customer", "orders")}
    with pytest.raises(SqlError):
        execute_sql(
            "SELECT c_custkey FROM customer WHERE EXISTS "
            "(SELECT 1 FROM orders WHERE o_totalprice > c_custkey + 1)",
            tabs)


def test_sql_qualified_column_names(ray_session):
    """table.col qualification (swq-style) resolves against the FROM/JOIN
    scope everywhere: select list, WHERE, JOIN ON, GROUP/ORDER BY."""
    for sql, tables in [
        ("SELECT customer.c_mktsegment, COUNT(*) AS n FROM customer "
         "WHERE customer.c_acctbal > 0 GROUP BY c_mktsegment "
         "ORDER BY customer.c_mktsegment", ["customer"]),
        ("SELECT o_orderpriority, SUM(lineitem.l_quantity) AS q "
         "FROM lineitem JOIN orders ON lineitem.l_orderkey = "
         "orders.o_orderkey GROUP BY orders.o_orderpriority "
         "ORDER BY o_orderpriority", ["lineitem", "orders"]),
    ]:
        got = _norm(_run(sql, tables))
        want = _norm(_duck(sql))
        want.columns = got.columns
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=False, rtol=1e-12)


def test_sql_unknown_qualifier_fails_at_lookup(ray_session):
    import ray

    from georay.sql import execute_sql
    tabs = {"customer": ray.data.read_parquet(f"{SF}/customer.parquet")}
    with pytest.raises(Exception):
        execute_sql("SELECT nosuch.c_custkey FROM customer",
                    tabs).to_pandas()


def test_sql_order_by_expression(ray_session):
    for sql, tables in [
        ("SELECT p_partkey, p_size FROM part "
         "ORDER BY p_size * -1, p_partkey LIMIT 12", ["part"]),
        ("SELECT o_orderkey, o_totalprice FROM orders "
         "WHERE o_orderkey < 500 "
         "ORDER BY o_totalprice % 1000 DESC, o_orderkey LIMIT 9",
         ["orders"]),
    ]:
        got = _run(sql, tables)
        want = _duck(sql)
        want.columns = got.columns
        pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                      want.reset_index(drop=True),
                                      check_dtype=False)


def test_sql_not_exists_null_keys(ray_session):
    """NOT EXISTS keeps rows whose correlation key is NULL (no inner row
    can match a NULL); the IN-rewrite alone would drop them (advisor r3)."""
    import duckdb
    import ray
    from georay.sql import execute_sql

    left = pa.table({"lk": pa.array([1, 2, None, 4, None], pa.int64()),
                     "v": pa.array(["a", "b", "c", "d", "e"])})
    right = pa.table({"rk": pa.array([2, 4, 7], pa.int64())})
    sql = ("SELECT v FROM l WHERE NOT EXISTS "
           "(SELECT 1 FROM r WHERE rk = lk) ORDER BY v")
    tabs = {"l": ray.data.from_arrow(left), "r": ray.data.from_arrow(right)}
    res = execute_sql(sql, tabs)
    got = (res.to_pandas() if not isinstance(res, pa.Table)
           else res.to_pandas())
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    want = con.execute(sql).df()
    assert got["v"].tolist() == want["v"].tolist() == ["a", "c", "e"]


def test_sql_window_frames(ray_session):
    """Explicit ROWS frames: SUM/AVG/COUNT via prefix-sum differences,
    MIN/MAX via sparse-table range queries — identical text vs DuckDB."""
    for sql in (
        "SELECT o_custkey, o_orderkey, SUM(CAST(o_totalprice AS DOUBLE)) "
        "OVER (PARTITION BY o_custkey ORDER BY o_orderkey "
        "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS s FROM orders",
        "SELECT o_custkey, o_orderkey, AVG(o_totalprice) OVER "
        "(PARTITION BY o_custkey ORDER BY o_orderkey "
        "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS a FROM orders",
        "SELECT o_custkey, o_orderkey, MIN(o_totalprice) OVER "
        "(PARTITION BY o_custkey ORDER BY o_orderkey "
        "ROWS BETWEEN 3 PRECEDING AND 1 PRECEDING) AS m FROM orders",
        "SELECT o_custkey, o_orderkey, MAX(o_totalprice) OVER "
        "(PARTITION BY o_custkey ORDER BY o_orderkey "
        "ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS m "
        "FROM orders",
        "SELECT o_custkey, o_orderkey, COUNT(*) OVER "
        "(PARTITION BY o_custkey ORDER BY o_orderkey ROWS 2 PRECEDING) "
        "AS c FROM orders",
    ):
        got = _norm(_run(sql, ["orders"]))
        want = _norm(_duck(sql))
        want.columns = got.columns
        for c in got.columns:
            if got[c].dtype.kind == "f":
                got[c] = got[c].round(6)
                want[c] = want[c].round(6)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_window_frame_errors(ray_session):
    from georay.sql import SqlError, execute_sql
    import ray
    tabs = {"orders": ray.data.read_parquet(f"{SF}/orders.parquet")}
    for bad in (
        # frame without ORDER BY
        "SELECT SUM(o_totalprice) OVER (PARTITION BY o_custkey "
        "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS s FROM orders",
        # start after end
        "SELECT SUM(o_totalprice) OVER (PARTITION BY o_custkey ORDER BY "
        "o_orderkey ROWS BETWEEN 1 FOLLOWING AND 1 PRECEDING) AS s "
        "FROM orders",
        # UNBOUNDED FOLLOWING as start
        "SELECT SUM(o_totalprice) OVER (PARTITION BY o_custkey ORDER BY "
        "o_orderkey ROWS BETWEEN UNBOUNDED FOLLOWING AND CURRENT ROW) "
        "AS s FROM orders",
    ):
        with pytest.raises((SqlError, ValueError)):
            r = execute_sql(bad, tabs)
            if not isinstance(r, pa.Table):
                r.materialize()


def test_sql_correlated_scalar_subquery(ray_session):
    """Correlated scalar subqueries decorrelate to ONE grouped aggregate
    + a broadcast key→value lookup; parity vs DuckDB on identical text."""
    for sql, tables in [
        ("SELECT c_custkey, c_acctbal FROM customer WHERE c_acctbal > "
         "(SELECT AVG(o_totalprice) FROM orders "
         "WHERE o_custkey = c_custkey) / 40", ["customer", "orders"]),
        # alias on the inner table; extra conjunct in the inner WHERE
        ("SELECT c_custkey FROM customer WHERE c_acctbal < "
         "(SELECT MIN(o2.o_totalprice) FROM orders o2 "
         "WHERE o2.o_custkey = c_custkey AND o2.o_totalprice > 1000)",
         ["customer", "orders"]),
        # COUNT: missing correlation keys count as 0, not NULL
        ("SELECT c_custkey FROM customer WHERE (SELECT COUNT(*) "
         "FROM orders WHERE o_custkey = c_custkey) > 10 "
         "ORDER BY c_custkey", ["customer", "orders"]),
    ]:
        got = _norm(_run(sql, tables))
        want = _norm(_duck(sql))
        want.columns = got.columns
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_in_subquery_on_expression(ray_session):
    """IN-subquery whose left side is a computed expression."""
    sql = ("SELECT o_orderkey FROM orders WHERE o_custkey % 50 IN "
           "(SELECT c_custkey FROM customer WHERE c_acctbal > 9000)")
    got = _norm(_run(sql, ["orders", "customer"]))
    want = _norm(_duck(sql))
    want.columns = got.columns
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_case_expressions(ray_session):
    """Searched + simple CASE, nested in arithmetic, NULL fall-through."""
    for sql, tables in [
        ("SELECT o_orderkey, CASE WHEN o_totalprice > 200000 THEN 'high' "
         "WHEN o_totalprice > 100000 THEN 'mid' ELSE 'low' END AS band "
         "FROM orders WHERE o_orderkey < 500", ["orders"]),
        # simple form, no ELSE (NULL otherwise), CASE inside arithmetic
        ("SELECT o_orderkey, CASE o_orderstatus WHEN 'F' THEN 1 "
         "WHEN 'O' THEN 2 END + 10 AS code FROM orders "
         "WHERE o_orderkey < 300", ["orders"]),
        # CASE as a GROUP BY key via select alias
        ("SELECT CASE WHEN c_acctbal < 0 THEN 'neg' ELSE 'pos' END AS "
         "sgn, COUNT(*) AS n FROM customer GROUP BY sgn", ["customer"]),
    ]:
        got = _norm(_run(sql, tables))
        want = _norm(_duck(sql))
        want.columns = got.columns
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_nullif_coalesce(ray_session):
    sql = ("SELECT c_custkey, COALESCE(NULLIF(c_mktsegment, 'BUILDING'), "
           "'REPLACED') AS seg FROM customer WHERE c_custkey < 200")
    got = _norm(_run(sql, ["customer"]))
    want = _norm(_duck(sql))
    want.columns = got.columns
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_union(ray_session):
    """UNION ALL streams through Dataset.union; plain UNION dedups with
    NULL-safe set semantics (NULL rows collapse); trailing ORDER BY +
    LIMIT bind the whole union."""
    for sql, tables in [
        ("SELECT c_name AS name FROM customer WHERE c_custkey < 50 "
         "UNION ALL SELECT s_name AS name FROM supplier", 
         ["customer", "supplier"]),
        ("SELECT NULLIF(c_mktsegment, 'BUILDING') AS seg FROM customer "
         "UNION SELECT NULLIF(c_mktsegment, 'MACHINERY') AS seg "
         "FROM customer", ["customer"]),
        ("SELECT c_custkey AS k FROM customer WHERE c_custkey < 30 "
         "UNION SELECT o_custkey AS k FROM orders WHERE o_custkey < 40 "
         "ORDER BY k DESC LIMIT 10", ["customer", "orders"]),
    ]:
        got = _norm(_run(sql, tables))
        want = _norm(_duck(sql))
        want.columns = got.columns
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_union_branch_order_rejected(ray_session):
    from georay.sql import SqlError
    with pytest.raises(SqlError):
        _run("SELECT c_custkey AS k FROM customer ORDER BY k "
             "UNION ALL SELECT o_custkey AS k FROM orders",
             ["customer", "orders"])


def test_sql_distinct_null_keys(ray_session):
    """SELECT DISTINCT over a column with NULLs (the old sort-shuffle
    distinct raised TypeError on None keys)."""
    sql = ("SELECT DISTINCT NULLIF(c_mktsegment, 'BUILDING') AS seg "
           "FROM customer")
    got = _norm(_run(sql, ["customer"]))
    want = _norm(_duck(sql))
    want.columns = got.columns
    assert len(got) == len(want)
    assert got["seg"].isna().sum() == 1


def test_sql_date_functions(ray_session):
    """YEAR/MONTH/DAY/HOUR, DATE_TRUNC, STRFTIME — identical text in
    DuckDB; arrow temporal kernels match DuckDB part semantics."""
    for sql, tables in [
        ("SELECT event_id, YEAR(ts) AS y, MONTH(ts) AS m, DAY(ts) AS d, "
         "HOUR(ts) AS h FROM events WHERE event_id < 200", ["events"]),
        ("SELECT DATE_TRUNC('hour', ts) AS th, COUNT(*) AS n "
         "FROM events GROUP BY th", ["events"]),
        ("SELECT STRFTIME(ts, '%Y-%m-%d') AS d, COUNT(*) AS n "
         "FROM events GROUP BY d", ["events"]),
        ("SELECT event_id FROM events "
         "WHERE MINUTE(ts) < 30 AND SECOND(ts) >= 15 "
         "AND event_id < 500", ["events"]),
    ]:
        got = _norm(_run(sql, tables))
        want = _norm(_duck(sql))
        want.columns = got.columns
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_json_extract(ray_session):
    sql = ("SELECT event_id, JSON_EXTRACT_STRING(props, '$.k') AS k "
           "FROM events WHERE event_id < 300")
    got = _norm(_run(sql, ["events"]))
    want = _norm(_duck(sql))
    want.columns = got.columns
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_multi_key_join(ray_session):
    """JOIN ... ON a = b AND c = d — composite keys through the native
    hash-shuffle join (single-key joins keep the broadcast fast path)."""
    import ray

    import pyarrow as pa
    from georay.sql import execute_sql

    left = pa.table({"k1": [1, 1, 2, 2, 3], "k2": ["a", "b", "a", "b",
                                                   "a"],
                     "lv": [10, 20, 30, 40, 50]})
    right = pa.table({"r1": [1, 2, 2, 4], "r2": ["a", "a", "b", "a"],
                      "rv": [100, 200, 300, 400]})
    tabs = {"l": ray.data.from_arrow(left),
            "r": ray.data.from_arrow(right)}
    sql = ("SELECT lv, rv FROM l JOIN r ON k1 = r1 AND k2 = r2")
    got = _norm(_run_tabs(sql, tabs))
    import duckdb
    con = duckdb.connect()
    con.register("l", left.to_pandas())
    con.register("r", right.to_pandas())
    want = _norm(con.execute(sql).df())
    want.columns = got.columns
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def _run_tabs(sql, tabs):
    from georay.sql import execute_sql
    res = execute_sql(sql, tabs)
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()


def test_sql_extract_syntax(ray_session):
    sql = ("SELECT event_id, EXTRACT(YEAR FROM ts) AS y, "
           "EXTRACT(DOW FROM ts) AS dw FROM events WHERE event_id < 100")
    got = _norm(_run(sql, ["events"]))
    want = _norm(_duck(sql))
    want.columns = got.columns
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.parametrize("sql,tables", [
    # grouped COUNT(DISTINCT)
    ("SELECT c_mktsegment, COUNT(DISTINCT c_nationkey) AS n FROM customer "
     "GROUP BY c_mktsegment", ["customer"]),
    # mixed with every other supported aggregate
    ("SELECT o_orderstatus, COUNT(DISTINCT o_custkey) AS nc, COUNT(*) AS n, "
     "SUM(o_orderkey % 97) AS s, AVG(o_totalprice) AS a, "
     "MIN(o_totalprice) AS lo, MAX(o_totalprice) AS hi "
     "FROM orders GROUP BY o_orderstatus", ["orders"]),
    # several distinct exprs at once, one on an expression
    ("SELECT o_orderpriority, COUNT(DISTINCT o_custkey) AS nc, "
     "COUNT(DISTINCT o_orderstatus) AS ns FROM orders "
     "GROUP BY o_orderpriority", ["orders"]),
    ("SELECT o_orderstatus, COUNT(DISTINCT o_custkey % 10) AS n FROM orders "
     "WHERE o_totalprice > 100000 GROUP BY o_orderstatus", ["orders"]),
    # global, mixed with other aggregates (multi-distinct → single bucket)
    ("SELECT COUNT(DISTINCT c_nationkey) AS n, COUNT(*) AS m FROM customer",
     ["customer"]),
    ("SELECT COUNT(DISTINCT l_returnflag) AS a, "
     "COUNT(DISTINCT l_linestatus) AS b, SUM(l_quantity) AS q "
     "FROM lineitem", ["lineitem"]),
    # HAVING over a selected AND an unselected (hoisted) COUNT(DISTINCT)
    ("SELECT o_orderstatus, COUNT(DISTINCT o_custkey) AS n FROM orders "
     "GROUP BY o_orderstatus HAVING COUNT(DISTINCT o_custkey) > 144",
     ["orders"]),
    ("SELECT o_orderpriority, SUM(o_totalprice) AS s FROM orders "
     "GROUP BY o_orderpriority HAVING COUNT(DISTINCT o_orderstatus) >= 3",
     ["orders"]),
    # ORDER BY + LIMIT through the distinct path
    ("SELECT c_mktsegment, COUNT(DISTINCT c_nationkey) AS n FROM customer "
     "GROUP BY c_mktsegment ORDER BY n DESC, c_mktsegment LIMIT 3",
     ["customer"]),
])
def test_sql_count_distinct_matches_duckdb(ray_session, sql, tables):
    got = _norm(_run(sql, tables))
    want = _norm(_duck(sql))
    want.columns = got.columns
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.parametrize("sql,tables", [
    # SELECT *
    ("SELECT * FROM customer WHERE c_custkey < 5", ["customer"]),
    ("SELECT * FROM nation ORDER BY n_nationkey LIMIT 7", ["nation"]),
    # GROUP BY expression (with and without a matching select item)
    ("SELECT COUNT(*) AS n FROM orders GROUP BY o_custkey % 10",
     ["orders"]),
    ("SELECT o_custkey % 10 AS b, COUNT(*) AS n FROM orders "
     "GROUP BY o_custkey % 10", ["orders"]),
    ("SELECT COUNT(DISTINCT o_custkey) AS n FROM orders "
     "GROUP BY o_custkey % 7", ["orders"]),
    # GROUP BY / ORDER BY ordinals
    ("SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY 1",
     ["orders"]),
    ("SELECT o_orderstatus, COUNT(*) AS n FROM orders "
     "GROUP BY o_orderstatus ORDER BY 2 DESC, 1", ["orders"]),
    ("SELECT UPPER(c_mktsegment) || '_' || CAST(c_nationkey AS VARCHAR) "
     "AS k, COUNT(*) AS n FROM customer GROUP BY 1 "
     "ORDER BY 2 DESC, 1 LIMIT 5", ["customer"]),
    # || concatenation: projection, predicate, NULL propagation via
    # NULLIF, implicit number→string cast
    ("SELECT o_orderkey, o_orderstatus || '-x' AS t FROM orders "
     "WHERE o_orderkey < 10", ["orders"]),
    ("SELECT o_orderkey FROM orders "
     "WHERE o_orderstatus || o_orderpriority = 'O1-URGENT' "
     "AND o_orderkey < 200", ["orders"]),
    ("SELECT o_orderkey, NULLIF(o_orderstatus, 'O') || 'z' AS t "
     "FROM orders WHERE o_orderkey < 20", ["orders"]),
    ("SELECT o_orderkey, o_orderkey || '-' || o_orderstatus AS t "
     "FROM orders WHERE o_orderkey < 10", ["orders"]),
])
def test_sql_star_groupexpr_ordinals_concat(ray_session, sql, tables):
    got = _norm(_run(sql, tables))
    want = _norm(_duck(sql))
    want.columns = got.columns
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.parametrize("sql,tables", [
    ("SELECT c_nationkey FROM customer INTERSECT "
     "SELECT s_nationkey FROM supplier", ["customer", "supplier"]),
    ("SELECT n_nationkey FROM nation EXCEPT "
     "SELECT s_nationkey FROM supplier", ["nation", "supplier"]),
    # left-assoc chains collapse to one pass (set identities)
    ("SELECT o_custkey FROM orders INTERSECT "
     "SELECT c_custkey FROM customer INTERSECT "
     "SELECT c_custkey FROM customer WHERE c_acctbal > 0",
     ["orders", "customer"]),
    ("SELECT n_nationkey FROM nation EXCEPT "
     "SELECT s_nationkey FROM supplier EXCEPT "
     "SELECT n_nationkey FROM nation WHERE n_nationkey % 2 = 0",
     ["nation", "supplier"]),
    # trailing ORDER BY / LIMIT binds the whole set operation
    ("SELECT c_nationkey FROM customer INTERSECT "
     "SELECT s_nationkey FROM supplier ORDER BY c_nationkey LIMIT 5",
     ["customer", "supplier"]),
])
def test_sql_intersect_except_matches_duckdb(ray_session, sql, tables):
    got = _norm(_run(sql, tables))
    want = _norm(_duck(sql))
    want.columns = got.columns
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_mixed_set_ops_rejected(ray_session):
    import ray
    from georay.sql import SqlError, execute_sql
    tabs = {t: ray.data.read_parquet(f"{SF}/{t}.parquet")
            for t in ("customer", "supplier", "nation")}
    with pytest.raises(SqlError, match="mixed"):
        execute_sql(
            "SELECT c_nationkey FROM customer UNION "
            "SELECT s_nationkey FROM supplier INTERSECT "
            "SELECT n_nationkey FROM nation", tabs)


def test_sql_count_distinct_rejects_unsupported(ray_session):
    import ray
    from georay.sql import SqlError, execute_sql
    tabs = {"orders": ray.data.read_parquet(f"{SF}/orders.parquet")}
    with pytest.raises(SqlError, match="DISTINCT"):
        execute_sql("SELECT STDDEV_POP(DISTINCT o_custkey) AS s "
                    "FROM orders", tabs)
    with pytest.raises(SqlError, match="mixed"):
        execute_sql(
            "SELECT COUNT(DISTINCT o_custkey) AS n, "
            "STDDEV_POP(o_totalprice) AS sd FROM orders", tabs)


def test_sql_having_unselected_aggregate(ray_session):
    """HAVING on an aggregate that is NOT a select item — hoisted as a
    hidden aggregate column and dropped after the filter."""
    for sql, tables in [
        ("SELECT o_orderstatus, COUNT(*) AS n FROM orders "
         "GROUP BY o_orderstatus HAVING MAX(o_totalprice) > 300000",
         ["orders"]),
        ("SELECT o_orderpriority FROM orders GROUP BY o_orderpriority "
         "HAVING COUNT(*) > 100 AND AVG(o_totalprice) < 255000",
         ["orders"]),
    ]:
        got = _norm(_run(sql, tables))
        want = _norm(_duck(sql))
        want.columns = got.columns
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_join_key_reuse_after_merge(ray_session):
    """A later JOIN ON (or SELECT) may reference a right-side key column
    that Ray's join merged away — the post-join re-alias restores SQL
    scope semantics (TPC-H Q5's s_nationkey double use)."""
    sql = ("SELECT n_name, s_nationkey, COUNT(*) AS n "
           "FROM customer "
           "JOIN supplier ON c_nationkey = s_nationkey "
           "JOIN nation ON s_nationkey = n_nationkey "
           "GROUP BY n_name, s_nationkey ORDER BY n_name")
    got = _norm(_run(sql, ["customer", "supplier", "nation"]))
    want = _norm(_duck(sql))
    want.columns = got.columns
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_date_literals_and_cast_date(ray_session):
    for sql in [
        "SELECT COUNT(*) AS n FROM orders "
        "WHERE o_orderdate >= DATE '1995-01-01'",
        "SELECT COUNT(*) AS n FROM orders WHERE o_orderdate BETWEEN "
        "DATE '1995-01-01' AND TIMESTAMP '1996-06-01 12:00:00'",
        "SELECT CAST(o_orderdate AS DATE) AS d, COUNT(*) AS n "
        "FROM orders GROUP BY d ORDER BY n DESC, d LIMIT 3",
    ]:
        got = _norm(_run(sql, ["orders"]))
        want = _norm(_duck(sql))
        want.columns = got.columns
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_aggregate_filter_clause(ray_session):
    for sql in [
        "SELECT SUM(o_totalprice) FILTER (WHERE o_orderstatus = 'F') "
        "AS s, COUNT(*) AS n FROM orders",
        "SELECT o_orderpriority, "
        "COUNT(*) FILTER (WHERE o_totalprice > 200000) AS hi, "
        "COUNT(*) AS n, "
        "AVG(o_totalprice) FILTER (WHERE o_orderstatus = 'O') AS a "
        "FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority",
        "SELECT COUNT(*) FILTER "
        "(WHERE o_orderdate >= DATE '1999-01-01') AS recent FROM orders",
    ]:
        got = _norm(_run(sql, ["orders"]))
        want = _norm(_duck(sql))
        want.columns = got.columns
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_rollup(ray_session):
    for sql in [
        "SELECT o_orderstatus, o_orderpriority, COUNT(*) AS n, "
        "SUM(o_totalprice) AS s FROM orders "
        "GROUP BY ROLLUP (o_orderstatus, o_orderpriority)",
        "SELECT o_orderstatus, COUNT(*) AS n FROM orders "
        "GROUP BY ROLLUP (o_orderstatus)",
        # rollup composing with HAVING
        "SELECT o_orderstatus, o_orderpriority, COUNT(*) AS n "
        "FROM orders GROUP BY ROLLUP (o_orderstatus, o_orderpriority) "
        "HAVING COUNT(*) > 50",
    ]:
        got = _norm(_run(sql, ["orders"]))
        want = _norm(_duck(sql))
        want.columns = got.columns
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_cte_and_derived_tables(ray_session):
    """WITH ctes (chained, later sees earlier) and derived FROM/JOIN
    subqueries compile compositionally; identical text through DuckDB."""
    for sql, tables in [
        ("WITH t AS (SELECT o_orderpriority AS p FROM orders) "
         "SELECT p, COUNT(*) AS n FROM t GROUP BY p ORDER BY p",
         ["orders"]),
        ("WITH a AS (SELECT o_custkey AS k FROM orders), "
         "b AS (SELECT k, COUNT(*) AS c FROM a GROUP BY k) "
         "SELECT MAX(c) AS mx, MIN(c) AS mn FROM b", ["orders"]),
        ("SELECT COUNT(*) AS n FROM (SELECT * FROM "
         "(SELECT o_orderkey FROM orders) x) y", ["orders"]),
        ("SELECT c_mktsegment AS seg, COUNT(*) AS n FROM customer "
         "JOIN (SELECT o_custkey FROM orders) o "
         "ON c_custkey = o_custkey GROUP BY seg ORDER BY seg",
         ["customer", "orders"]),
    ]:
        got = _norm(_run(sql, tables))
        want = _norm(_duck(sql))
        want.columns = got.columns
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_bare_alias(ray_session):
    """``expr alias`` / ``COUNT(*) n`` without AS (standard SQL); the
    stripper must NOT misfire on IS NULL / NOT LIKE tails."""
    for sql in [
        "SELECT o_orderpriority p, COUNT(*) n FROM orders "
        "GROUP BY p ORDER BY p",
        "SELECT o_totalprice * 2.0 dbl FROM orders ORDER BY dbl LIMIT 3",
        "SELECT COUNT(*) n FROM orders WHERE o_orderpriority IS NOT NULL",
        "SELECT o_orderpriority p, ROW_NUMBER() OVER "
        "(PARTITION BY o_orderpriority ORDER BY o_orderkey) rn "
        "FROM orders ORDER BY p, rn LIMIT 5",
        "SELECT COUNT(*) n FROM orders WHERE o_orderpriority NOT LIKE '1%'",
    ]:
        got = _norm(_run(sql, ["orders"]))
        want = _norm(_duck(sql))
        want.columns = got.columns
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_coalesce_null_literal(ray_session):
    for sql in [
        "SELECT COALESCE(NULL, o_orderpriority, 'x') AS p FROM orders "
        "ORDER BY p LIMIT 3",
        "SELECT COALESCE(NULLIF(o_orderpriority, '1-URGENT'), 'u') AS p, "
        "COUNT(*) AS n FROM orders GROUP BY p ORDER BY p",
    ]:
        got = _norm(_run(sql, ["orders"]))
        want = _norm(_duck(sql))
        want.columns = got.columns
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_string_functions_vs_duckdb(ray_session):
    """Round-4 string/util scalar additions, identical text both engines."""
    for sql in [
        "SELECT REPLACE(o_orderpriority, '-', '_') AS p, COUNT(*) AS n "
        "FROM orders GROUP BY p ORDER BY p",
        "SELECT REVERSE(o_orderpriority) AS r FROM orders ORDER BY r LIMIT 3",
        "SELECT STRPOS(o_orderpriority, 'URGENT') AS s, COUNT(*) AS n "
        "FROM orders GROUP BY s ORDER BY s",
        "SELECT LEFT(o_orderpriority, 3) AS l, RIGHT(o_orderpriority, 2) "
        "AS r, COUNT(*) AS n FROM orders GROUP BY l, r ORDER BY l, r",
        "SELECT LPAD(o_orderpriority, 12, '.') AS p FROM orders "
        "ORDER BY p LIMIT 3",
        "SELECT SPLIT_PART(o_orderpriority, '-', 2) AS w, COUNT(*) AS n "
        "FROM orders GROUP BY w ORDER BY w",
        "SELECT SPLIT_PART(o_orderpriority, '-', 5) AS w, COUNT(*) AS n "
        "FROM orders GROUP BY w ORDER BY w",
        "SELECT COUNT(*) AS n FROM orders "
        "WHERE CONTAINS(o_orderpriority, 'HIGH')",
        "SELECT COUNT(*) AS n FROM orders "
        "WHERE STARTS_WITH(o_orderpriority, '1')",
        "SELECT COUNT(*) AS n FROM orders "
        "WHERE REGEXP_MATCHES(o_orderpriority, '^[12]-')",
        "SELECT REGEXP_REPLACE(o_orderpriority, '[0-9]', '#') AS p, "
        "COUNT(*) AS n FROM orders GROUP BY p ORDER BY p",
        "SELECT GREATEST(o_orderkey % 7, o_orderkey % 5) AS g, "
        "COUNT(*) AS n FROM orders GROUP BY g ORDER BY g",
        "SELECT LEAST(o_orderkey % 7, o_orderkey % 5) AS g, COUNT(*) AS n "
        "FROM orders GROUP BY g ORDER BY g",
        "SELECT SIGN(o_orderkey % 3 - 1) AS s, COUNT(*) AS n FROM orders "
        "GROUP BY s ORDER BY s",
        "SELECT REPEAT(LEFT(o_orderpriority, 1), 3) AS r, COUNT(*) AS n "
        "FROM orders GROUP BY r ORDER BY r",
    ]:
        got = _norm(_run(sql, ["orders"]))
        want = _norm(_duck(sql))
        want.columns = got.columns
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_cube_and_grouping_sets(ray_session):
    """CUBE and GROUPING SETS via bitmask grouping ids (one shuffle for
    all sets); identical text both engines."""
    for sql, tables in [
        ("SELECT o_orderstatus, o_orderpriority, COUNT(*) AS n, "
         "SUM(CAST(o_orderkey % 97 AS DOUBLE)) AS s FROM orders "
         "GROUP BY CUBE (o_orderstatus, o_orderpriority)", ["orders"]),
        ("SELECT o_orderstatus, o_orderpriority, COUNT(*) AS n "
         "FROM orders GROUP BY GROUPING SETS "
         "((o_orderstatus, o_orderpriority), (o_orderpriority), ())",
         ["orders"]),
        ("SELECT c_mktsegment, COUNT(*) AS n FROM customer "
         "GROUP BY GROUPING SETS ((c_mktsegment), ())", ["customer"]),
    ]:
        got = _norm(_run(sql, tables))
        want = _norm(_duck(sql))
        want.columns = got.columns
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_percent_rank_cume_dist(ray_session):
    for sql in [
        "SELECT o_orderkey, PERCENT_RANK() OVER (PARTITION BY "
        "o_orderpriority ORDER BY o_totalprice) AS pr FROM orders "
        "WHERE o_orderkey < 600",
        "SELECT o_orderkey, CUME_DIST() OVER (PARTITION BY "
        "o_orderpriority ORDER BY o_totalprice) AS cd FROM orders "
        "WHERE o_orderkey < 600",
        # ties: CUME_DIST counts the whole run, PERCENT_RANK its start
        "SELECT o_orderkey, PERCENT_RANK() OVER (PARTITION BY "
        "o_orderstatus ORDER BY o_orderkey % 5) AS pr, CUME_DIST() "
        "OVER (PARTITION BY o_orderstatus ORDER BY o_orderkey % 5) "
        "AS cd FROM orders WHERE o_orderkey < 100",
    ]:
        got = _norm(_run(sql, ["orders"]))
        want = _norm(_duck(sql))
        want.columns = got.columns
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      atol=1e-12)


def test_sql_aggregates_inside_expressions(ray_session):
    """ROUND(SUM(..)), SUM(..)/COUNT(*), CASE inside SUM, HAVING on a
    wrapped aggregate — hoisted to hidden agg items, evaluated post-
    aggregation.  Identical text both engines (TPC-H Q6/Q14 shapes)."""
    for sql, tables in [
        ("SELECT ROUND(SUM(l_extendedprice * l_discount), 2) AS revenue "
         "FROM lineitem WHERE l_shipdate >= DATE '1994-01-01' "
         "AND l_shipdate < DATE '1995-01-01' "
         "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
         ["lineitem"]),
        ("SELECT ROUND(100.00 * SUM(CASE WHEN p_type LIKE 'PROMO%' "
         "THEN l_extendedprice * (1 - l_discount) ELSE 0 END) "
         "/ SUM(l_extendedprice * (1 - l_discount)), 4) AS promo_revenue "
         "FROM lineitem JOIN part ON l_partkey = p_partkey",
         ["lineitem", "part"]),
        ("SELECT o_orderpriority, ROUND(AVG(o_totalprice) / "
         "MAX(o_totalprice), 6) AS ratio FROM orders "
         "GROUP BY o_orderpriority ORDER BY o_orderpriority", ["orders"]),
        ("SELECT o_orderstatus, SUM(o_totalprice) / COUNT(*) AS avg2, "
         "AVG(o_totalprice) AS avg1 FROM orders GROUP BY o_orderstatus "
         "ORDER BY o_orderstatus", ["orders"]),
        ("SELECT o_orderpriority, SUM(o_totalprice) AS s FROM orders "
         "GROUP BY o_orderpriority "
         "HAVING ROUND(AVG(o_totalprice), 0) > 150000 "
         "ORDER BY o_orderpriority", ["orders"]),
    ]:
        got = _norm(_run(sql, tables))
        want = _norm(_duck(sql))
        want.columns = got.columns
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_tpch_q4_exists(ray_session):
    sql = ("SELECT o_orderpriority, COUNT(*) AS order_count FROM orders "
           "WHERE o_orderdate >= DATE '1995-01-01' "
           "AND o_orderdate < DATE '1995-04-01' "
           "AND EXISTS (SELECT * FROM lineitem "
           "WHERE l_orderkey = o_orderkey) "
           "GROUP BY o_orderpriority ORDER BY o_orderpriority")
    got = _norm(_run(sql, ["orders", "lineitem"]))
    want = _norm(_duck(sql))
    want.columns = got.columns
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_comma_joins(ray_session):
    """TPC-H implicit-join style FROM a, b, c WHERE — rewritten to
    explicit JOIN chains by schema-resolved equality conjuncts."""
    for sql, tables in [
        ("SELECT c_custkey, c_name, "
         "ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue "
         "FROM customer, orders, lineitem "
         "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
         "AND o_orderdate >= DATE '1996-10-01' "
         "AND o_orderdate < DATE '1997-01-01' AND l_returnflag = 'R' "
         "GROUP BY c_custkey, c_name "
         "ORDER BY revenue DESC, c_custkey LIMIT 20",
         ["customer", "orders", "lineitem"]),
        ("SELECT c_mktsegment, COUNT(*) AS n "
         "FROM customer, orders WHERE c_custkey = o_custkey "
         "AND o_totalprice > 200000 GROUP BY c_mktsegment "
         "ORDER BY c_mktsegment", ["customer", "orders"]),
    ]:
        got = _norm(_run(sql, tables))
        want = _norm(_duck(sql))
        want.columns = got.columns
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
    import pytest

    from georay.sql import SqlError
    with pytest.raises(SqlError):
        _run("SELECT COUNT(*) AS n FROM customer, part "
             "WHERE c_custkey > 0", ["customer", "part"])  # cross join


def test_sql_table_aliases_self_join(ray_session):
    """Self-joins via table aliases: two instances of ``nation`` under
    n1/n2 are physically renamed to alias-qualified columns and folded
    through the same equi_join; qualified references, bare-unique
    references and default output names all resolve.  Explicit-JOIN and
    implicit comma-join spellings both verified against DuckDB."""
    explicit = (
        "SELECT n1.n_name AS na, n2.n_name AS nb, "
        "n1.n_regionkey AS rk "
        "FROM nation n1 JOIN nation AS n2 "
        "ON n1.n_regionkey = n2.n_regionkey "
        "WHERE n1.n_name < n2.n_name "
        "ORDER BY na, nb LIMIT 15")
    implicit = (
        "SELECT n1.n_name AS na, COUNT(*) AS n "
        "FROM supplier, nation n1, nation n2 "
        "WHERE s_nationkey = n1.n_nationkey "
        "AND n1.n_regionkey = n2.n_regionkey "
        "AND n1.n_name <> n2.n_name "
        "GROUP BY na ORDER BY n DESC, na LIMIT 10")
    for sql in (explicit, implicit):
        got = _norm(_run(sql, ["supplier", "nation"]))
        want = _norm(_duck(sql))
        want.columns = got.columns
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # default output name keeps only the column part (n1.n_name → n_name)
    one = _run("SELECT n1.n_name FROM nation n1 "
               "JOIN nation n2 ON n1.n_nationkey = n2.n_nationkey "
               "ORDER BY n1.n_name LIMIT 3", ["nation"])
    assert list(one.columns) == ["n_name"]


def test_sql_extract_sugar(ray_session):
    """EXTRACT(part FROM expr) desugars onto the date-part kernels."""
    sql = ("SELECT EXTRACT(year FROM o_orderdate) AS y, "
           "EXTRACT(month FROM o_orderdate) AS m, COUNT(*) AS n "
           "FROM orders GROUP BY y, m ORDER BY y, m LIMIT 12")
    got = _norm(_run(sql, ["orders"]))
    want = _norm(_duck(sql))
    want.columns = got.columns
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    import pytest

    from georay.sql import SqlError
    with pytest.raises(SqlError):
        _run("SELECT EXTRACT(epoch FROM o_orderdate) AS e FROM orders "
             "LIMIT 1", ["orders"])


def test_sql_tpch_q7_q8(ray_session):
    """TPC-H Q7 and Q8 (the self-join queries) verbatim vs DuckDB at
    sf0.001 through the driver query texts."""
    from georay.queries import SQL_TEXT
    for name in ["sql_q7", "sql_q8"]:
        got = _norm(_run_row(name))
        want = _norm(_duck(SQL_TEXT[name]))
        want.columns = got.columns
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_tpch_q12_q13_q17_q18_q19(ray_session):
    """The round-out TPC-H set vs DuckDB at sf0.001: Q12 (CASE-bucket
    sums), Q13 (LEFT JOIN + null-skipping COUNT through a derived
    table), Q17 (correlated scalar subquery whose item is an expression
    over the aggregate), Q18 (IN over grouped HAVING), Q19 (OR-of-AND
    residual join predicates)."""
    from georay.queries import SQL_TEXT
    for name in ["sql_q12", "sql_q13", "sql_q17", "sql_q18", "sql_q19"]:
        got = _norm(_run_row(name))
        want = _norm(_duck(SQL_TEXT[name]))
        assert len(got) > 0 or name != "sql_q17"
        want.columns = got.columns
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_tpch_q15_q22(ray_session):
    """TPC-H Q15 (CTE referenced twice: join side + scalar MAX) and Q22
    (string-IN + scalar AVG in a derived table + NOT EXISTS with a
    residual conjunct) vs DuckDB at sf0.001."""
    from georay.queries import SQL_TEXT
    for name in ["sql_q15", "sql_q22"]:
        got = _norm(_run_row(name))
        want = _norm(_duck(SQL_TEXT[name]))
        assert len(got) > 0
        want.columns = got.columns
        for c in got.columns:
            if got[c].dtype.kind == "f":
                got[c] = got[c].round(6)
                want[c] = want[c].round(6)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_tpch_q21_inequality_exists(ray_session):
    """TPC-H Q21 shape: correlated [NOT] EXISTS with an inner↔outer
    inequality on a self-referenced lineitem — decorrelated to grouped
    count-distinct/min maps.  Verified against DuckDB at sf0.001, plus
    a hand-built miniature where the expected keep-set is enumerable."""
    from georay.queries import SQL_TEXT
    got = _norm(_run_row("sql_q21"))
    want = _norm(_duck(SQL_TEXT["sql_q21"]))
    assert len(got) > 0
    want.columns = got.columns
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    import ray
    from georay.sql import execute_sql
    # miniature: orders 1 (sup 10 only), 2 (sup 10+11), 3 (sup 12+12)
    li = pa.table({"l_orderkey": [1, 2, 2, 3, 3],
                   "l_suppkey": [10, 10, 11, 12, 12]})
    tabs = {"lineitem": ray.data.from_arrow(li)}
    out = execute_sql(
        "SELECT l_orderkey, l_suppkey FROM lineitem l1 "
        "WHERE EXISTS (SELECT * FROM lineitem l2 "
        "WHERE l2.l_orderkey = l1.l_orderkey "
        "AND l2.l_suppkey <> l1.l_suppkey) "
        "ORDER BY l_orderkey, l_suppkey", tabs)
    out = out.to_pandas() if hasattr(out, "to_pandas") else out
    assert list(map(tuple, out.values.tolist())) == [(2, 10), (2, 11)]
    out2 = execute_sql(
        "SELECT l_orderkey, l_suppkey FROM lineitem l1 "
        "WHERE NOT EXISTS (SELECT * FROM lineitem l2 "
        "WHERE l2.l_orderkey = l1.l_orderkey "
        "AND l2.l_suppkey <> l1.l_suppkey) "
        "ORDER BY l_orderkey, l_suppkey", tabs)
    out2 = out2.to_pandas() if hasattr(out2, "to_pandas") else out2
    assert list(map(tuple, out2.values.tolist())) == \
        [(1, 10), (3, 12), (3, 12)]


def test_sql_right_and_full_outer_joins(ray_session):
    """RIGHT JOIN / FULL [OUTER] JOIN through Ray's hash-shuffle join;
    unmatched sides null-fill, verified against DuckDB."""
    import pyarrow as _pa
    import ray
    from georay.sql import execute_sql
    a = _pa.table({"ak": [1, 2, 3], "av": ["x", "y", "z"]})
    b = _pa.table({"bk": [2, 3, 4], "bv": [20.0, 30.0, 40.0]})
    import duckdb
    con = duckdb.connect()
    con.register("ta", a)
    con.register("tb", b)
    tabs = {"ta": ray.data.from_arrow(a), "tb": ray.data.from_arrow(b)}
    for sql in [
            "SELECT av, bk, bv FROM ta RIGHT JOIN tb ON ak = bk",
            "SELECT av, bv FROM ta FULL OUTER JOIN tb ON ak = bk",
            "SELECT ak, av, bv FROM ta LEFT OUTER JOIN tb ON ak = bk"]:
        got = execute_sql(sql, dict(tabs))
        got = got.to_pandas() if hasattr(got, "to_pandas") else got
        want = con.execute(sql).df()
        cols = sorted(got.columns)
        g = got[cols].sort_values(cols, na_position="first") \
            .reset_index(drop=True)
        w = want[cols].sort_values(cols, na_position="first") \
            .reset_index(drop=True)
        pd.testing.assert_frame_equal(g, w, check_dtype=False)


def test_sql_order_by_nulls_first_last(ray_session):
    """ORDER BY ... NULLS FIRST|LAST via a hidden is-null sort key;
    ties broken by the following key, verified against DuckDB."""
    import pyarrow as _pa
    import ray
    from georay.sql import execute_sql
    a = _pa.table({"k": [1, None, 3, None, 2],
                   "v": ["a", "b", "c", "d", "e"]})
    import duckdb
    con = duckdb.connect()
    con.register("t", a)
    tabs = {"t": ray.data.from_arrow(a)}
    for sql in [
            "SELECT k, v FROM t ORDER BY k NULLS FIRST, v LIMIT 5",
            "SELECT k, v FROM t ORDER BY k DESC NULLS LAST, v LIMIT 5",
            "SELECT k, v FROM t ORDER BY k ASC NULLS LAST, v DESC "
            "LIMIT 4"]:
        got = execute_sql(sql, dict(tabs))
        got = (got.to_pandas() if hasattr(got, "to_pandas")
               else got.to_pandas())
        want = con.execute(sql).df()
        pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                      want.reset_index(drop=True),
                                      check_dtype=False)


def test_sql_sum_avg_distinct(ray_session):
    """SUM/AVG(DISTINCT) via the single-shuffle distinct plan (dedupe
    (group, value) pairs per bucket, aggregate the distinct values,
    join back on the group keys); MIN/MAX(DISTINCT) normalize to plain
    MIN/MAX.  Verified against DuckDB."""
    for sql, tables in [
        ("SELECT o_orderstatus, "
         "SUM(DISTINCT CAST(o_custkey % 50 AS DOUBLE)) AS sd, "
         "COUNT(DISTINCT o_custkey) AS cd, COUNT(*) AS n "
         "FROM orders GROUP BY o_orderstatus ORDER BY o_orderstatus",
         ["orders"]),
        ("SELECT o_orderpriority, AVG(DISTINCT o_totalprice) AS ad, "
         "MAX(DISTINCT o_totalprice) AS mx FROM orders "
         "GROUP BY o_orderpriority ORDER BY o_orderpriority",
         ["orders"]),
        ("SELECT SUM(DISTINCT CAST(o_custkey % 97 AS DOUBLE)) AS sd "
         "FROM orders", ["orders"]),
        ("SELECT AVG(DISTINCT o_totalprice) AS ad, "
         "COUNT(DISTINCT o_orderstatus) AS cs FROM orders",
         ["orders"]),
    ]:
        got = _run(sql, tables)
        want = _duck(sql)
        cols = sorted(got.columns)
        g = got[cols].sort_values(cols).reset_index(drop=True)
        w = want[cols].sort_values(cols).reset_index(drop=True)
        for c in cols:
            if g[c].dtype.kind == "f" or w[c].dtype.kind == "f":
                g[c] = pd.to_numeric(g[c]).round(6)
                w[c] = pd.to_numeric(w[c]).round(6)
        pd.testing.assert_frame_equal(g, w, check_dtype=False)


def test_partsupp_synth_matches_cte(ray_session):
    """synth_partsupp must be ROW-IDENTICAL to the oracle CTE — the two
    engines compute the same deterministic table from part × {0..3}."""
    from georay.queries import _PARTSUPP_CTE, synth_partsupp
    mine = synth_partsupp(SF).to_pandas() \
        .sort_values(["ps_partkey", "ps_suppkey"]).reset_index(drop=True)
    want = _duck(_PARTSUPP_CTE + "SELECT * FROM partsupp") \
        .sort_values(["ps_partkey", "ps_suppkey"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(mine, want, check_dtype=False)
    # 4 suppliers per part, suppkeys within range, costs are cents
    assert (mine.groupby("ps_partkey").size() == 4).all()
    S = _duck("SELECT COUNT(*) AS n FROM supplier")["n"][0]
    assert mine.ps_suppkey.between(0, S - 1).all()


def test_sql_tpch_partsupp_five(ray_session):
    """TPC-H Q2 / Q9 / Q11 / Q16 / Q20 over the synthetic partsupp:
    Q2 = correlated scalar subquery containing its own 4-table join;
    Q9 = composite-key comma-join hop; Q11 = HAVING threshold from an
    uncorrelated scalar subquery (resolved before aggregate hoisting);
    Q16 = NOT IN value set + grouped COUNT(DISTINCT); Q20 = correlated
    scalar with a COMPOSITE (two-column) correlation key."""
    from georay import queries as Q
    for name in ["sql_q2", "sql_q9", "sql_q11", "sql_q16", "sql_q20"]:
        got = _norm(_run_row(name))
        want = _norm(_duck(Q._PARTSUPP_CTE + Q.SQL_TEXT[name]))
        for c in got.columns:
            if got[c].dtype.kind == "f":
                got[c] = got[c].round(6)
                want[c] = pd.to_numeric(want[c]).round(6)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_empty_in_subquery_semantics(ray_session):
    """x IN (empty subquery) is FALSE, NOT IN is TRUE — even when the
    empty pipeline loses its schema (the documented Ray wart)."""
    got = _norm(_run(
        "SELECT COUNT(*) AS n FROM orders WHERE o_custkey NOT IN "
        "(SELECT s_suppkey FROM supplier WHERE s_acctbal < -99999)",
        ["orders", "supplier"]))
    want = _norm(_duck(
        "SELECT COUNT(*) AS n FROM orders WHERE o_custkey NOT IN "
        "(SELECT s_suppkey FROM supplier WHERE s_acctbal < -99999)"))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    got2 = _run(
        "SELECT COUNT(*) AS n FROM orders WHERE o_custkey IN "
        "(SELECT s_suppkey FROM supplier WHERE s_acctbal < -99999)",
        ["orders", "supplier"])
    assert int(got2["n"][0]) == 0


def test_sql_groups_frame(ray_session):
    """GROUPS window frames (offsets count PEER GROUPS of equal ORDER BY
    keys).  This container's DuckDB does not implement GROUPS mode, so
    the pin is a brute-force per-partition Python reference."""
    sql = """SELECT o_orderkey, o_orderstatus,
        SUM(CAST(o_orderkey % 11 AS DOUBLE)) OVER (
          PARTITION BY o_orderstatus ORDER BY o_orderpriority
          GROUPS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s,
        COUNT(*) OVER (PARTITION BY o_orderstatus ORDER BY o_orderpriority
          GROUPS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS c,
        MIN(o_custkey) OVER (PARTITION BY o_orderstatus ORDER BY o_orderpriority
          GROUPS BETWEEN 2 PRECEDING AND 1 PRECEDING) AS m
    FROM orders"""
    got = _run(sql, ["orders"])

    df = pd.read_parquet(f"{SF}/orders.parquet")
    rows = []
    for st, grp in df.groupby("o_orderstatus"):
        grp = grp.sort_values(["o_orderpriority", "o_orderkey"]) \
            .reset_index(drop=True)
        runs = (grp.o_orderpriority
                != grp.o_orderpriority.shift()).cumsum() - 1
        run_rows = {}
        for i, r in enumerate(runs):
            run_rows.setdefault(r, []).append(i)
        nruns = runs.max() + 1
        x = (grp.o_orderkey % 11).astype(float).to_numpy()
        ck = grp.o_custkey.to_numpy()
        for i in range(len(grp)):
            r = runs[i]
            idxs = [j for rr in range(max(0, r - 1), min(nruns, r + 2))
                    for j in run_rows[rr]]
            idxs_c = [j for rr in range(0, r + 1) for j in run_rows[rr]]
            idxs_m = [j for rr in range(max(0, r - 2), r)
                      for j in run_rows[rr]]
            rows.append((grp.o_orderkey[i], st, x[idxs].sum(),
                         len(idxs_c),
                         min(ck[idxs_m]) if idxs_m else None))
    ref = pd.DataFrame(rows, columns=["o_orderkey", "o_orderstatus",
                                      "s", "c", "m"])
    cols = sorted(got.columns)
    a = got[cols].sort_values(cols).reset_index(drop=True)
    b = ref[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_sql_asof_join(ray_session):
    """ASOF JOIN (DuckDB syntax) through the front-end: backward (>=),
    forward (<=), and the flipped right-op-left spelling — all verified
    against DuckDB's native ASOF JOIN on identical text.  Right-side
    (key, ts) ties are pre-reduced in the text so both engines' tie
    freedom never shows."""
    base = """
        SELECT c.event_id, c.user_id, c.ts,
               p.p_event_id AS matched, p.p_ts
        FROM (SELECT event_id, user_id, ts FROM events
              WHERE event_type = 'click') c
        ASOF JOIN (SELECT user_id AS p_user_id, ts AS p_ts,
                          max(event_id) AS p_event_id
                   FROM events WHERE event_type = 'purchase'
                   GROUP BY user_id, ts) p
          ON c.user_id = p.p_user_id AND {cond}
    """
    for cond in ("c.ts >= p.p_ts",      # backward
                 "c.ts <= p.p_ts",      # forward
                 "p.p_ts <= c.ts",      # flipped backward
                 "p.p_ts >= c.ts"):     # flipped forward
        sql = base.format(cond=cond)
        got = _norm(_run(sql, ["events"]))
        want = _norm(_duck(sql))
        assert len(got) > 0
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_asof_join_errors(ray_session):
    from georay.sql import SqlError
    with pytest.raises(SqlError, match="exactly one equality"):
        _run("SELECT * FROM orders o ASOF JOIN lineitem l "
             "ON o.o_orderkey >= l.l_orderkey", ["orders", "lineitem"])
    with pytest.raises(SqlError, match="exactly one equality"):
        _run("SELECT * FROM orders o ASOF JOIN customer c "
             "ON o_custkey = c_custkey", ["orders", "customer"])


def test_sql_select_without_from(ray_session):
    from georay.sql import execute_sql
    res = execute_sql("SELECT 1 AS n, 2.5 AS x, 'hi' AS s", {})
    df = res.to_pandas() if not hasattr(res, "to_pandas") else \
        res.to_pandas()
    assert df.to_dict("records") == [{"n": 1, "x": 2.5, "s": "hi"}]


def test_sql_recursive_cte_series(ray_session):
    """WITH RECURSIVE series generation — identical text in DuckDB."""
    sql = """
        WITH RECURSIVE t(n) AS (
            SELECT 1
            UNION ALL
            SELECT n + 1 FROM t WHERE n < 50)
        SELECT COUNT(*) AS cnt, SUM(n) AS total, MAX(n) AS mx FROM t
    """
    got = _norm(_run(sql, []))
    want = _norm(_duck(sql))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sql_recursive_cte_union_cycle(ray_session):
    """Plain UNION recursion terminates on a CYCLIC graph (reachability
    from node 1 over 1->2->3->1): new rows already seen are dropped.
    Identical text in DuckDB over an injected edges table."""
    import ray
    edges = pd.DataFrame({"src": [1, 2, 3, 4], "dst": [2, 3, 1, 5]})
    sql = """
        WITH RECURSIVE reach(node) AS (
            SELECT 1
            UNION
            SELECT e.dst FROM edges e JOIN reach r ON e.src = r.node)
        SELECT node FROM reach ORDER BY node
    """
    from georay.sql import execute_sql
    got = execute_sql(sql, {"edges": ray.data.from_pandas(edges)})
    got = (got if isinstance(got, pd.DataFrame) else got.to_pandas())
    import duckdb
    want = duckdb.sql(sql).df()
    assert sorted(got["node"].tolist()) == sorted(want["node"].tolist())
    assert sorted(got["node"].tolist()) == [1, 2, 3]


def test_sql_recursive_cte_guards(ray_session):
    from georay.sql import SqlError
    with pytest.raises(SqlError, match="seed UNION"):
        _run("WITH RECURSIVE t(n) AS (SELECT n + 1 FROM t) "
             "SELECT * FROM t", [])
    # non-recursive WITH RECURSIVE (no self reference) still works
    sql = ("WITH RECURSIVE t(n) AS (SELECT 7) "
           "SELECT n FROM t")
    got = _run(sql, [])
    assert got["n"].tolist() == [7]


def test_sql_pivot(ray_session):
    """FROM-clause PIVOT: one grouped aggregate with FILTERed columns
    per IN value, remaining columns implicit group keys, output columns
    named by the literal values — DuckDB parity on identical text."""
    sql = """
        SELECT * FROM (SELECT o_orderpriority, o_orderstatus, o_orderkey
                       FROM orders)
        PIVOT (COUNT(o_orderkey) FOR o_orderstatus IN ('O', 'F', 'P'))
    """
    got = _norm(_run(sql, ["orders"]))
    want = _norm(_duck(sql))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert set(got.columns) == {"o_orderpriority", "O", "F", "P"}


def test_sql_pivot_nonident_values(ray_session):
    """PIVOT output columns may be names no SQL lexer accepts
    ('1-URGENT') — they are renamed post-aggregate, not parsed."""
    sql = """
        SELECT * FROM (SELECT o_orderstatus, o_orderpriority, o_orderkey
                       FROM orders)
        PIVOT (COUNT(o_orderkey)
               FOR o_orderpriority IN ('1-URGENT', '5-LOW'))
    """
    got = _norm(_run(sql, ["orders"]))
    want = _norm(_duck(sql))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert "1-URGENT" in got.columns


def test_sql_unpivot(ray_session):
    """UNPIVOT wide→long with standard NULL exclusion — DuckDB parity
    on identical text."""
    sql = """
        SELECT name, COUNT(*) AS n,
               ROUND(SUM(CAST(val AS DOUBLE)), 2) AS s
        FROM (SELECT o_orderkey, o_custkey, o_totalprice FROM orders)
        UNPIVOT (val FOR name IN (o_custkey, o_totalprice))
        GROUP BY name ORDER BY name
    """
    got = _norm(_run(sql, ["orders"]))
    want = _norm(_duck(sql))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_explain_sql():
    """EXPLAIN: parse-level plan description, no execution (works with
    no tables registered at all)."""
    from georay.sql import explain_sql
    plan = explain_sql(
        "SELECT o_orderpriority, COUNT(*) AS c "
        "FROM orders JOIN customer ON o_custkey = c_custkey "
        "WHERE o_totalprice > 1000 "
        "GROUP BY o_orderpriority ORDER BY c DESC LIMIT 5")
    assert "Scan orders" in plan
    assert "InnerJoin customer ON o_custkey=c_custkey" in plan
    assert "size-adaptive" in plan
    assert "GroupedAggregate" in plan and "one shuffle" in plan
    assert "TopK [c] limit=5" in plan

    plan2 = explain_sql(
        "WITH RECURSIVE t(n) AS (SELECT 1 UNION ALL "
        "SELECT n + 1 FROM t WHERE n < 5) SELECT n FROM t")
    assert "RecursiveCTE t" in plan2
    assert "fixpoint" in plan2
    assert "__dual__" in plan2

    plan3 = explain_sql(
        "SELECT a FROM x UNION SELECT b FROM y")
    assert "SetOp [UNION]" in plan3 and "DISTINCT" in plan3


def test_recursive_cte_row_cap(ray_session, monkeypatch):
    # VERDICT r4 caveat 2: the driver-side working set is bounded —
    # an exploding closure raises instead of materializing unbounded
    from georay import sql as S
    monkeypatch.setattr(S, "_RECURSIVE_ROW_CAP", 50)
    with pytest.raises(S.SqlError, match="working set exceeded"):
        _run("""
            WITH RECURSIVE t(n) AS (
                SELECT 1 UNION ALL SELECT n + 1 FROM t WHERE n < 1000
            ) SELECT count(*) AS c FROM t""", [])
