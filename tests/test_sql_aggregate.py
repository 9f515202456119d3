"""The SQL aggregation engine (georay.sql._AggPlan) and its key step
(georay.util.key_group_by / key_partition): every GROUP BY, global
aggregate, DISTINCT, set operation, COUNT(DISTINCT), grouped MEDIAN,
ROLLUP/CUBE and window PARTITION BY agrees with DuckDB on the keys SQL calls equal
(−0.0 and 0.0, NULL and NULL), on empty input, and on STDDEV accuracy."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _tables():
    """``t``: 600 rows in 3 blocks — ``lon`` near zero (ROUND gives
    −0.0 and 0.0), nullable ``s`` and ``v``; ``k``: the four-row
    −0.0 / 0.0 key column."""
    rng = np.random.default_rng(5)
    n = 600
    t = pa.table({
        "lon": np.round(rng.uniform(-2.0, 2.0, n), 2),
        "v": pa.array([None if i % 11 == 0 else int(x) for i, x in
                       enumerate(rng.integers(0, 8, n))], pa.int64()),
        "s": pa.array([None if i % 3 == 0 else "ab"[i % 2]
                       for i in range(n)], pa.string()),
    })
    k = pa.table({"k": [0.0, -0.0, 0.0, 1.5], "v": [1, 2, 3, 4]})
    return {"t": [t.slice(0, 200), t.slice(200, 200), t.slice(400)],
            "k": [k.slice(0, 2), k.slice(2)]}


PARITY = [
    # GROUP BY a ROUND near zero: one −0.0/0.0 group, whatever the items
    "SELECT ROUND(lon) AS gx, COUNT(*) AS n FROM t GROUP BY ROUND(lon)",
    "SELECT ROUND(lon) AS gx, COUNT(*) AS n, AVG(v) AS a, "
    "STDDEV_POP(lon) AS sp, STDDEV_SAMP(v) AS ss FROM t "
    "GROUP BY ROUND(lon)",
    "SELECT ROUND(lon) AS gx, COUNT(DISTINCT v) AS nd, SUM(v) AS sv, "
    "AVG(DISTINCT v) AS ad FROM t GROUP BY ROUND(lon)",
    "SELECT COUNT(DISTINCT ROUND(lon)) AS nd, COUNT(v) AS nv FROM t",
    "SELECT DISTINCT k FROM k",
    "SELECT DISTINCT ROUND(lon) AS gx, s FROM t",
    "SELECT k FROM k INTERSECT SELECT -k FROM k",
    "SELECT k FROM k EXCEPT SELECT k + 1.5 FROM k",
    "SELECT k, v, ROW_NUMBER() OVER (PARTITION BY k ORDER BY v) AS rn, "
    "SUM(v) OVER (PARTITION BY k) AS sv FROM k",
    # NULL keys, alone and beside other keys
    "SELECT s, v, COUNT(*) AS n, MIN(lon) AS lo, MAX(lon) AS hi FROM t "
    "GROUP BY s, v",
    "SELECT s, COUNT(DISTINCT v) AS nd, AVG(lon) AS a FROM t GROUP BY s",
    "SELECT s, STDDEV_SAMP(v) AS sd, COUNT(v) AS nv FROM t GROUP BY s",
    "SELECT s, lon, RANK() OVER (PARTITION BY s ORDER BY lon) AS rk, "
    "SUM(v) OVER (PARTITION BY s) AS sv FROM t",
    "SELECT s, MEDIAN(v) AS m, COUNT(*) AS n, MAX(v) AS mx FROM t "
    "GROUP BY s",
    "SELECT ROUND(lon) AS gx, MEDIAN(lon) AS m, AVG(lon) AS a FROM t "
    "GROUP BY ROUND(lon)",
    # empty input, grouped and global
    "SELECT s, COUNT(*) AS n, STDDEV_POP(lon) AS sd FROM t "
    "WHERE lon > 100 GROUP BY s",
    "SELECT COUNT(*) AS n, SUM(v) AS sv, AVG(v) AS a, STDDEV_SAMP(lon) "
    "AS sd, MIN(s) AS ms FROM t WHERE lon > 100",
    "SELECT COUNT(DISTINCT s) AS nd, SUM(v) AS sv FROM t WHERE lon > 100",
    # ROLLUP / CUBE: a dropped key is NULL, apart from a NULL value
    "SELECT s, ROUND(lon) AS gx, COUNT(*) AS n, SUM(v) AS sv FROM t "
    "GROUP BY ROLLUP (s, gx)",
    "SELECT s, ROUND(lon) AS gx, COUNT(*) AS n, AVG(lon) AS a FROM t "
    "GROUP BY CUBE (s, gx)",
]


def _frame(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    out = df[cols].copy()
    for c in cols:
        if out[c].dtype.kind in "iufb":
            out[c] = out[c].astype(np.float64)
    return out.sort_values(cols).reset_index(drop=True)


@pytest.mark.parametrize("sql", PARITY,
                         ids=[f"q{i}" for i in range(len(PARITY))])
def test_sql_keys_and_empty_input_match_duckdb(ray_session, sql):
    import duckdb
    import ray

    from georay.sql import execute_sql

    tabs = _tables()
    res = execute_sql(sql, {n: ray.data.from_arrow(b)
                            for n, b in tabs.items()})
    con = duckdb.connect()
    for n, b in tabs.items():
        con.register(n, pa.concat_tables(b).to_pandas())
    want = _frame(con.execute(sql).df())
    got = res.to_pandas()
    if got.columns.empty:          # Ray's frame of an empty Dataset
        assert want.empty
        return
    got = _frame(got)
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  rtol=1e-9)


def test_sql_stddev_accuracy(ray_session):
    """STDDEV over 20,000 values 1e9 + U(0, 1) in 8 blocks, global and
    grouped (5 keys), is within 1e-7 relative of numpy's two-pass std:
    (count, mean, M2) partials merge by Chan's formula, where a Σx²
    formula loses every digit to cancellation."""
    import ray

    from georay.sql import execute_sql

    rng = np.random.default_rng(11)
    x = 1e9 + rng.uniform(0.0, 1.0, 20_000)
    g = np.arange(20_000) % 5
    t = pa.table({"x": x, "g": g})
    ds = ray.data.from_arrow([t.slice(i * 2_500, 2_500) for i in range(8)])
    out = execute_sql("SELECT STDDEV_POP(x) AS sp, STDDEV_SAMP(x) AS ss "
                      "FROM t", {"t": ds}).to_pandas()
    assert out["sp"][0] == pytest.approx(np.std(x), rel=1e-7)
    assert out["ss"][0] == pytest.approx(np.std(x, ddof=1), rel=1e-7)
    out = execute_sql("SELECT g, STDDEV_POP(x) AS sp, STDDEV_SAMP(x) AS ss "
                      "FROM t GROUP BY g", {"t": ds}).to_pandas()
    assert sorted(out["g"]) == list(range(5))
    for gi, sp, ss in zip(out["g"], out["sp"], out["ss"]):
        assert sp == pytest.approx(np.std(x[g == gi]), rel=1e-7)
        assert ss == pytest.approx(np.std(x[g == gi], ddof=1), rel=1e-7)
