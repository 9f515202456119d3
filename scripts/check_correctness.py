"""Local replica of the driver's correctness gate: run every
``queries()`` entry at sf0.01 and compare against ``oracle_sql()`` via
DuckDB (row count + schema + order-insensitive value hash), printing one
line per query with its full value hash and wall time — so regressions
are caught before the driver snapshot, slow queries can be found and
trimmed, and the (name, value_hash) pairs of two runs' logs compare with
``diff`` (strip the trailing ``[..s]`` times first).

Usage: python scripts/check_correctness.py [sf_dir] [name ...]
"""

import glob
import hashlib
import json
import os
import sys
import time

import pandas as pd
import pyarrow as pa


def _to_pandas(res):
    if isinstance(res, pa.Table):
        return res.to_pandas()
    if isinstance(res, pd.DataFrame):
        return res
    return res.to_pandas()


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    out = df[cols].sort_values(cols).reset_index(drop=True)
    return out


def _value_hash(df: pd.DataFrame) -> str:
    df = _norm(df.copy())
    for c in df.columns:
        if df[c].dtype.kind in "iu":
            df[c] = df[c].astype("int64")
        elif df[c].dtype.kind == "f":
            df[c] = df[c].round(6)
        elif df[c].dtype == object:
            df[c] = df[c].astype(str)
    return hashlib.sha256(
        df.to_csv(index=False, float_format="%.6f").encode()).hexdigest()


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False)
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import __ray_entry__ as mod

    import duckdb
    con = duckdb.connect()
    for p in glob.glob(f"{sf_dir}/*.parquet"):
        t = os.path.basename(p).removesuffix(".parquet")
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    queries = mod.queries()
    oracles = mod.oracle_sql()
    results = {}
    n_fail = 0
    for name, fn in queries.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            got = _to_pandas(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            results[name] = {"err": f"query_error: {e}"}
            print(f"FAIL {name}: query raised {e!r}")
            n_fail += 1
            continue
        dt = time.perf_counter() - t0
        vh = _value_hash(got)
        if name not in oracles:
            results[name] = {"rows": len(got), "err": "no_oracle",
                             "value_hash": vh, "sec": round(dt, 2)}
            print(f"rows-only {name}: {len(got)} rows value_hash={vh}  "
                  f"[{dt:.1f}s]")
            continue
        want = con.execute(oracles[name]).df()
        rows = len(got) == len(want)
        schema = sorted(got.columns) == sorted(want.columns)
        hmatch = rows and schema and vh == _value_hash(want)
        ok = rows and schema and hmatch
        results[name] = {"rows_match": rows, "schema_match": schema,
                         "hash_match": hmatch, "n": len(got),
                         "value_hash": vh, "sec": round(dt, 2)}
        tag = "ok  " if ok else "FAIL"
        if not ok:
            n_fail += 1
        print(f"{tag} {name}: rows={rows} schema={schema} hash={hmatch} "
              f"n={len(got)} value_hash={vh}  [{dt:.1f}s]")
    total = sum(r.get("sec", 0) for r in results.values())
    print(f"\n{len(results)} queries, {n_fail} failing, "
          f"{total:.0f}s query wall time")
    with open("/tmp/correctness_local.json", "w") as f:
        json.dump(results, f, indent=1)
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
