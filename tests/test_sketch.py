"""HyperLogLog accuracy, merge associativity and small-range exactness;
KLL rank error, wire-format roundtrip and the distributed quantile path."""

import numpy as np
import pyarrow as pa


# ------------------------------------------------------------------ HLL

def test_hll_accuracy_and_merge():
    from georay.sketch import hll_estimate, hll_merge, hll_partial
    rng = np.random.default_rng(4)
    for true_n in (1_000, 100_000):
        vals = pa.array(rng.choice(10 * true_n, true_n, replace=False)
                        .astype(np.int64))
        est = hll_estimate(hll_partial(vals))
        assert abs(est / true_n - 1) < 0.03, (true_n, est)
        # splitting the input and max-merging must equal the one-shot
        a, b = vals[:true_n // 3], vals[true_n // 3:]
        merged = hll_merge(hll_partial(a), hll_partial(b))
        np.testing.assert_array_equal(merged, hll_partial(vals))


def test_hll_small_range_linear_counting():
    from georay.sketch import hll_estimate, hll_partial
    vals = pa.array([f"item-{i}" for i in range(100)])
    est = hll_estimate(hll_partial(vals))
    assert abs(est - 100) < 3          # near-exact in the LC regime


def test_hll_string_vs_int_independence():
    from georay.sketch import hll_estimate, hll_partial
    ints = pa.array(np.arange(5000, dtype=np.int64))
    strs = pa.array([str(i) for i in range(5000)])
    for est in (hll_estimate(hll_partial(ints)),
                hll_estimate(hll_partial(strs))):
        assert abs(est / 5000 - 1) < 0.03


# ------------------------------------------------------------------ KLL

def test_kll_sketch_accuracy_and_roundtrip():
    """KLL: ≤1% rank error at k=512 across a 37-way partial merge;
    serialize/deserialize is lossless; n is exact."""
    import numpy as np

    from georay.sketch import KLL

    rng = np.random.default_rng(3)
    data = rng.lognormal(2.0, 1.5, 200_000)
    sks = [KLL(512).add_array(c) for c in np.array_split(data, 37)]
    m = sks[0]
    for s in sks[1:]:
        m.merge(KLL.deserialize(s.serialize()))   # via the wire format
    assert m.n == len(data)
    srt = np.sort(data)
    for q in (0.01, 0.25, 0.5, 0.75, 0.99):
        est = m.quantile(q)
        rank = np.searchsorted(srt, est) / len(srt)
        assert abs(rank - q) <= 0.01, (q, rank)
    # bounded summary: far fewer items retained than seen
    assert sum(len(a) for a in m.levels) < 4000


def test_approx_quantiles_ray(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray

    from georay.sketch import approx_quantiles

    rng = np.random.default_rng(5)
    vals = rng.normal(100.0, 15.0, 50_000)
    ds = ray.data.from_arrow(pa.table({"v": vals})).repartition(9)
    est = approx_quantiles(ds, "v", (0.5,), k=512)
    srt = np.sort(vals)
    rank = np.searchsorted(srt, est[0.5]) / len(srt)
    assert abs(rank - 0.5) <= 0.01
