"""Deterministic hash sampling and per-key top-k (georay/sample.py)."""

import numpy as np
import pandas as pd
import pyarrow as pa

from georay.sample import hash_bucket, hash_sample, sample_sql


def test_hash_bucket_matches_sql_arithmetic():
    keys = np.arange(1000, dtype=np.int64)
    got = hash_bucket(keys)
    want = (keys.astype(object) * 2654435761) % (1 << 32)
    assert (got == np.array(want, dtype=np.int64)).all()


def test_hash_sample_fraction_and_nesting(ray_session):
    import ray
    n = 20_000
    ds = ray.data.from_arrow(pa.table({"k": np.arange(n, dtype=np.int64)}))
    half = hash_sample(ds, "k", 0.5)
    twentieth = hash_sample(ds, "k", 0.05)
    # Nested ranges: the 5% sample is row-for-row a subset of the 50%.
    a = set(r["k"] for r in twentieth.take_all())
    b = set(r["k"] for r in half.take_all())
    assert a <= b
    assert abs(len(b) / n - 0.5) < 0.02
    assert abs(len(a) / n - 0.05) < 0.01


def test_sample_sql_clause_matches_kernel():
    import duckdb
    keys = np.arange(4096, dtype=np.int64)
    con = duckdb.connect()
    con.register("t", pa.table({"k": keys}))
    sql_kept = con.sql(
        f"SELECT k FROM t WHERE {sample_sql('k', 0.25)} ORDER BY k"
    ).df()["k"].to_numpy()
    cut = int(round(0.25 * (1 << 32)))
    np_kept = keys[hash_bucket(keys) < cut]
    assert (sql_kept == np_kept).all()


def test_hash_topk_per_key(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray

    from georay.sample import hash_bucket, hash_topk_per_key

    rng = np.random.default_rng(0)
    n = 5000
    keys = rng.integers(0, 200, n)
    vals = rng.permutation(n)
    ds = ray.data.from_arrow(pa.table({"k": pa.array(keys, pa.int64()),
                                       "v": pa.array(vals, pa.int64())}))
    out = hash_topk_per_key(ds, "k", "v", 4).to_pandas()
    # exactly min(4, group size) per key
    sizes = out.groupby("k").size()
    import pandas as pd
    full = pd.Series(keys).value_counts()
    for k, s in sizes.items():
        assert s == min(4, full[k])
    # and the chosen rows are the 4 smallest by (hash, v) per key
    df = pd.DataFrame({"k": keys, "v": vals})
    df["h"] = hash_bucket(df["v"].to_numpy())
    expect = (df.sort_values(["k", "h", "v"]).groupby("k").head(4)
              [["k", "v"]])
    got = out[["k", "v"]]
    assert (got.sort_values(["k", "v"]).reset_index(drop=True)
            .equals(expect.sort_values(["k", "v"]).reset_index(drop=True)))


def test_hash_topk_per_key_string_keys(ray_session):
    """String key columns route through the content hash (advisor r3:
    object->uint64 astype raised); picks stay min(k, group size)/key."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from georay.sample import hash_topk_per_key

    rng = np.random.default_rng(1)
    n = 3000
    keys = [f"dom{int(i):03d}.example" for i in rng.integers(0, 80, n)]
    vals = rng.permutation(n)
    ds = ray.data.from_arrow(pa.table({"k": pa.array(keys),
                                       "v": pa.array(vals, pa.int64())}))
    out = hash_topk_per_key(ds, "k", "v", 3).to_pandas()
    sizes = out.groupby("k").size()
    full = pd.Series(keys).value_counts()
    assert set(sizes.index) == set(full.index)
    for k, s in sizes.items():
        assert s == min(3, full[k])
    # deterministic: a second run picks the identical rows
    out2 = hash_topk_per_key(ds, "k", "v", 3).to_pandas()
    a = out.sort_values(["k", "v"]).reset_index(drop=True)
    b = out2.sort_values(["k", "v"]).reset_index(drop=True)
    assert a.equals(b)


