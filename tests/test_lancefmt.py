"""lance-layout dataset: roundtrip, projection, pruning, MVCC, Ray source."""
import os

import numpy as np
import pyarrow as pa
import pytest

from georay import lancefmt as lf


def _mixed_table(n=100, start=0):
    i = np.arange(start, start + n)
    emb = np.random.RandomState(7 + start).randn(n, 8).astype(np.float32)
    return pa.table({
        "id": pa.array(i.astype(np.int64)),
        "small": pa.array((i % 7).astype(np.int32)),
        "score": pa.array(np.sin(i).astype(np.float64)),
        "name": pa.array([f"row-{k:05d}" for k in i]),
        "blob": pa.array([bytes([k % 256]) * (k % 17) for k in i],
                         pa.binary()),
        "flag": pa.array((i % 3 == 0)),
        "vec": pa.FixedSizeListArray.from_arrays(
            pa.array(emb.ravel()), 8),
        "day": pa.array((i % 1000).astype(np.int32)).cast(pa.date32()),
        "ts": pa.array((i * 1_000_000).astype(np.int64)).cast(
            pa.timestamp("us")),
    })


def test_fragment_roundtrip_all_types(tmp_path):
    t = _mixed_table(257)
    p = str(tmp_path / "f.lancef")
    info = lf.write_fragment(t, p)
    assert info["num_rows"] == 257
    back = lf.read_fragment(p, t.schema)
    assert back.equals(t)


def test_fragment_roundtrip_nulls(tmp_path):
    t = pa.table({
        "a": pa.array([1, None, 3, None, 5], pa.int64()),
        "s": pa.array(["x", None, "", "yy", None]),
        "b": pa.array([True, None, False, None, True]),
        "f": pa.array([1.5, None, 0.0, -2.5, None], pa.float64()),
    })
    p = str(tmp_path / "f.lancef")
    lf.write_fragment(t, p)
    back = lf.read_fragment(p, t.schema)
    assert back.equals(t)


def test_projection_reads_subset(tmp_path):
    t = _mixed_table(64)
    p = str(tmp_path / "f.lancef")
    lf.write_fragment(t, p)
    back = lf.read_fragment(p, t.schema, columns=["name", "id"])
    assert back.column_names == ["name", "id"]
    assert back["id"].equals(t["id"])
    assert back["name"].equals(t["name"])


def test_input_hint_image_schema_roundtrip(tmp_path):
    """The north rule's exact table shape (BASELINE.json input_hint)."""
    from georay import fixtures
    t = fixtures.images_table(24)
    root = str(tmp_path / "imgs.lance")
    res = lf.write_lance(t, root)
    assert res["total_rows"] == 24
    back = lf.read_lance_table(root)
    assert back.select(t.column_names).equals(t)


def test_dataset_roundtrip_and_fragment_parallelism(tmp_path, ray_session):
    import ray
    t = _mixed_table(400)
    ds = ray.data.from_arrow(t).repartition(5)
    root = str(tmp_path / "d.lance")
    res = lf.write_lance(ds, root)
    assert res["num_fragments"] == 5 and res["total_rows"] == 400
    out = lf.read_lance(root)
    got = out.take_all()
    assert len(got) == 400
    back = lf.read_lance_table(root)
    assert back.sort_by("id").equals(t.sort_by("id"))
    # projection through the Ray source
    two = lf.read_lance(root, columns=["id", "flag"]).take_all()
    assert set(two[0].keys()) == {"id", "flag"}


def test_append_and_time_travel(tmp_path):
    root = str(tmp_path / "d.lance")
    lf.write_lance(_mixed_table(50), root)
    lf.write_lance(_mixed_table(30, start=50), root, mode="append")
    latest = lf.lance_manifest(root)
    assert latest["version"] == 2 and latest["total_rows"] == 80
    v1 = lf.read_lance_table(root, version=1)
    assert v1.num_rows == 50
    v2 = lf.read_lance_table(root, version=2)
    assert v2.num_rows == 80
    assert v2.sort_by("id")["id"].to_pylist() == list(range(80))


def test_uncommitted_fragment_invisible(tmp_path):
    """MVCC: a fragment file with no manifest row does not exist."""
    root = str(tmp_path / "d.lance")
    lf.write_lance(_mixed_table(20), root)
    # simulate a killed writer: orphan fragment on disk, no commit
    lf.write_fragment(_mixed_table(99),
                      os.path.join(root, "data", "frag-orphan.lancef"))
    assert lf.read_lance_table(root).num_rows == 20
    assert lf.lance_manifest(root)["total_rows"] == 20


def test_zone_map_pruning(tmp_path):
    root = str(tmp_path / "d.lance")
    for s in (0, 100, 200, 300):
        lf.write_lance(_mixed_table(100, start=s), root,
                       mode="append" if s else "create")
    man = lf.lance_manifest(root)
    assert len(man["fragments"]) == 4
    kept = lf._prune_keep(root, man["fragments"], man["schema"],
                          ("id", 150, 160))
    assert len(kept) == 1
    t = lf.read_lance_table(root, prune=("id", 150, 160))
    assert t.num_rows == 100  # pruning is fragment-level, not row-level
    ids = t["id"].to_numpy()
    assert ids.min() == 100 and ids.max() == 199
    # string zone maps prune too (prefix-safe upper bound)
    kept_s = lf._prune_keep(root, man["fragments"], man["schema"],
                            ("name", "row-00350", "row-00360"))
    assert len(kept_s) == 1


def test_empty_blocks_skipped(tmp_path, ray_session):
    import ray
    t = _mixed_table(10)
    ds = ray.data.from_arrow(t).filter(lambda r: r["id"] < 3)
    root = str(tmp_path / "d.lance")
    res = lf.write_lance(ds, root, schema=t.schema)
    assert res["total_rows"] == 3
    assert lf.read_lance_table(root).num_rows == 3


def test_stats_recorded(tmp_path):
    t = _mixed_table(100)
    p = str(tmp_path / "f.lancef")
    lf.write_fragment(t, p)
    st = lf.fragment_stats(p)
    import struct
    assert struct.unpack("<q", st["id"][0])[0] == 0
    assert struct.unpack("<q", st["id"][1])[0] == 99
    assert st["name"][0] == b"row-00000"


def test_manifest_validates_what_it_parses(tmp_path):
    """A manifest whose fields all parse still raises when it breaks the
    row sum or lacks a required field (every cut of one is swept in
    tests/test_wire.py)."""
    from georay import wire
    schema = pa.schema([("x", pa.int64())])
    frag = (wire.varint_field(1, 0) + wire.len_field(2, b"f.lancef")
            + wire.varint_field(3, 5))
    root = tmp_path / "t"
    root.mkdir()
    for body, err in [
            (wire.len_field(2, frag) + wire.varint_field(3, 1)
             + wire.varint_field(4, 6), "total_rows 6"),
            (wire.len_field(2, frag[2:]) + wire.varint_field(3, 1)
             + wire.varint_field(4, 5), "fragment lacks id"),
            (wire.len_field(2, frag) + wire.varint_field(4, 5),
             "lacks version"),
            (wire.len_field(1, wire.len_field(1, b"x"))
             + wire.varint_field(3, 1) + wire.varint_field(4, 0),
             "field lacks code")]:
        (root / "_latest.manifest").write_bytes(
            lf._schema_proto(schema) + body)
        with pytest.raises(ValueError, match=err):
            lf.lance_manifest(str(root))


def test_unsupported_type_raises(tmp_path):
    t = pa.table({"m": pa.array([{"a": 1}], pa.struct([("a", pa.int64())]))})
    with pytest.raises(TypeError):
        lf.write_fragment(t, str(tmp_path / "f.lancef"))


def test_flagship_over_lance_table(tmp_path, ray_session):
    """The flagship pipeline runs unchanged over a lance-layout image +
    caption table (BASELINE.json input_hint) and produces the same join
    rows as the parquet path."""
    import ray

    from georay import fixtures
    from georay.pipelines import flagship_join

    t = fixtures.images_table(48)
    pq_path = str(tmp_path / "imgs.parquet")
    import pyarrow.parquet as pq
    pq.write_table(t, pq_path)
    root = str(tmp_path / "imgs.lance")
    lf.write_lance(ray.data.from_arrow(t).repartition(3), root)

    a = flagship_join(pq_path).to_pandas()
    b = flagship_join(root).to_pandas()
    key = sorted(a.columns)
    pa_ = a[key].sort_values(key).reset_index(drop=True)
    pb_ = b[key].sort_values(key).reset_index(drop=True)
    import pandas as pd
    pd.testing.assert_frame_equal(pa_, pb_)


def test_row_range_reads(tmp_path):
    """Row-range pushdown == full read sliced, for every type + nulls,
    across unaligned bitmap boundaries."""
    t = _mixed_table(257)
    # add a nullable column to exercise validity bit slicing
    vals = [None if i % 7 == 3 else i * 1.5 for i in range(257)]
    t = t.append_column("nl", pa.array(vals, pa.float64()))
    p = str(tmp_path / "f.lancef")
    lf.write_fragment(t, p)
    full = lf.read_fragment(p, t.schema)
    for a, b in [(0, 257), (0, 1), (13, 14), (7, 93), (250, 257),
                 (8, 16), (1, 256), (100, 100)]:
        part = lf.read_fragment(p, t.schema, row_range=(a, b))
        assert part.equals(full.slice(a, b - a)), (a, b)
    # projection + range together
    part = lf.read_fragment(p, t.schema, columns=["name", "nl"],
                            row_range=(31, 77))
    assert part.equals(full.select(["name", "nl"]).slice(31, 46))


def test_compact_preserves_rows_and_time_travel(tmp_path, ray_session):
    import ray
    t = _mixed_table(500)
    root = str(tmp_path / "d.lance")
    lf.write_lance(ray.data.from_arrow(t).repartition(10), root)
    assert len(lf.lance_manifest(root)["fragments"]) == 10
    res = lf.compact_lance(root, target_rows=200)
    assert res["version"] == 2 and res["compacted"] == 10
    man = lf.lance_manifest(root)
    assert len(man["fragments"]) < 10
    back = lf.read_lance_table(root)
    assert back.sort_by("id").equals(t.sort_by("id"))
    # time travel: version 1 still reads the original fragments
    v1 = lf.read_lance_table(root, version=1)
    assert v1.sort_by("id").equals(t.sort_by("id"))
    # idempotence: fragments at target are carried over
    res2 = lf.compact_lance(root, target_rows=200)
    assert res2["compacted"] in (0, 1) or res2["num_fragments"] <= \
        res["num_fragments"]


from hypothesis import given, settings, strategies as st


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.integers(-2**62, 2**62),
              st.one_of(st.none(), st.text(max_size=12)),
              st.one_of(st.none(), st.floats(allow_nan=False,
                                             allow_infinity=False)),
              st.booleans(),
              st.binary(max_size=9)),
    min_size=0, max_size=60))
def test_fragment_roundtrip_property(tmp_path_factory, rows):
    t = pa.table({
        "i": pa.array([r[0] for r in rows], pa.int64()),
        "s": pa.array([r[1] for r in rows], pa.string()),
        "f": pa.array([r[2] for r in rows], pa.float64()),
        "b": pa.array([r[3] for r in rows], pa.bool_()),
        "z": pa.array([r[4] for r in rows], pa.binary()),
    })
    p = str(tmp_path_factory.mktemp("lf") / "f.lancef")
    lf.write_fragment(t, p)
    back = lf.read_fragment(p, t.schema)
    assert back.equals(t)
    if t.num_rows > 1:
        a = t.num_rows // 3
        b = 2 * t.num_rows // 3 + 1
        part = lf.read_fragment(p, t.schema, row_range=(a, b))
        assert part.equals(t.slice(a, b - a))


def test_deletion_vectors(tmp_path, ray_session):
    """delete_lance: tombstone sidecars, no data rewrite, time travel,
    merge on repeat, purge on compaction."""
    import ray
    t = _mixed_table(300)
    root = str(tmp_path / "d.lance")
    lf.write_lance(ray.data.from_arrow(t).repartition(3), root)
    data_files = set(os.listdir(os.path.join(root, "data")))

    res = lf.delete_lance(
        root, lambda tb: tb["id"].to_numpy() % 5 == 0, columns=["id"])
    assert res["version"] == 2 and res["deleted_rows"] == 60
    # data files unchanged, only tombstones added
    now = set(os.listdir(os.path.join(root, "data")))
    assert data_files <= now
    assert all(f.startswith("del-") for f in now - data_files)

    back = lf.read_lance_table(root)
    ids = np.sort(back["id"].to_numpy())
    assert len(ids) == 240 and not (ids % 5 == 0).any()
    # Ray source applies deletes too
    assert lf.read_lance(root).count() == 240
    # time travel: version 1 still sees everything
    assert lf.read_lance_table(root, version=1).num_rows == 300

    # second delete merges with existing tombstones
    res2 = lf.delete_lance(
        root, lambda tb: tb["id"].to_numpy() % 7 == 0, columns=["id"])
    back2 = lf.read_lance_table(root)
    ids2 = back2["id"].to_numpy()
    assert not ((ids2 % 5 == 0) | (ids2 % 7 == 0)).any()
    assert res2["deleted_rows"] == int(
        ((np.arange(300) % 5 == 0) | (np.arange(300) % 7 == 0)).sum())

    # compaction materializes deletes and drops tombstones
    res3 = lf.compact_lance(root, target_rows=500)
    man = lf.lance_manifest(root)
    assert all("del_file" not in fr for fr in man["fragments"])
    back3 = lf.read_lance_table(root)
    assert back3.sort_by("id").equals(back2.sort_by("id"))


def test_flagship_direct_respects_deletes(tmp_path, ray_session):
    import ray

    from georay import fixtures
    from georay.pipelines import flagship_join

    t = fixtures.images_table(40)
    root = str(tmp_path / "imgs.lance")
    lf.write_lance(ray.data.from_arrow(t).repartition(2), root)
    full = flagship_join(root).to_pandas()
    lf.delete_lance(
        root, lambda tb: np.array([s.endswith(("0", "5"))
                                   for s in tb["image_id"].to_pylist()]),
        columns=["image_id"])
    part = flagship_join(root).to_pandas()
    assert not part["image_id"].str.endswith(("0", "5")).any()
    kept = full[~full["image_id"].str.endswith(("0", "5"))]
    assert sorted(part["image_id"]) == sorted(kept["image_id"])
