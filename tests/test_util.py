

def test_hash_strings_empty_neighbors_and_noncanonical():
    """Regression: an empty string's reduceat boundary must not
    truncate its neighbor's bytes (the old clamp dropped the LAST real
    string's trailing byte when '' fillers followed it in the buffer),
    and group_by-output / sliced / chunked layouts hash identically to
    standalone values."""
    import numpy as np
    import pyarrow as pa

    from georay.util import hash_strings

    def single(v):
        return hash_strings(pa.array([v]))[0]

    cases = [
        pa.array(["2-HIGH", "", "", "x", "", "BB", ""]),
        pa.array(["", "abc"]),
        pa.array(["abc", ""]),
        pa.array(["a", "bb", "ccc"]).slice(1),
        pa.chunked_array([pa.array(["x", ""]),
                          pa.array(["2-HIGH"])]),
    ]
    t = pa.table({"k": ["F", "F", "O", ""], "g": [3, 3, 1, 0]})
    cases.append(t.group_by(["k", "g"]).aggregate(
        [([], "count_all")])["k"].combine_chunks())
    for col in cases:
        vals = (col.combine_chunks() if isinstance(col, pa.ChunkedArray)
                else col).to_pylist()
        hs = hash_strings(col)
        for v, h in zip(vals, hs):
            assert h == single(v), (v, h, single(v))


def test_hash_strings_equal_for_dups_distinct_otherwise():
    import pyarrow as pa

    from georay.util import hash_strings

    texts = ["the quick brown fox jumps over the lazy dog and runs away fast",
             "the quick brown fox jumps over the lazy dog and runs away quick"]
    h = hash_strings(pa.chunked_array([pa.array(texts + [texts[0]])]))
    assert len(h) == 3
    assert h[0] == h[2] and h[0] != h[1]  # dup equal, near-dup differs
    # empty and short strings all hash apart
    h2 = hash_strings(pa.chunked_array([pa.array(["", "a", "ab"])]))
    assert h2[0] != h2[1] != h2[2]


def test_staged_commits_on_clean_exit_only(tmp_path):
    import pytest

    from georay.util import staged

    final = tmp_path / "out.bin"
    with staged(str(final)) as tmp:
        with open(tmp, "wb") as f:
            f.write(b"done")
        assert not final.exists()
    assert final.read_bytes() == b"done"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    failed = tmp_path / "failed.bin"
    with pytest.raises(RuntimeError):
        with staged(str(failed)) as tmp:
            with open(tmp, "wb") as f:
                f.write(b"half")
            raise RuntimeError("encoder died")
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_staged_temp_name_is_never_listed_by_a_reader(tmp_path):
    """Readers list a directory by suffix; the temp of a part file being
    written must not match any of them."""
    from georay.util import list_parts, staged

    exts = (".arrow", ".feather", ".ipc", ".avro", ".geojsonl", ".geojson",
            ".jsonl")
    committed = []
    for ext in exts:
        final = str(tmp_path / f"part-0{ext}")
        with staged(final) as tmp:
            assert not tmp.endswith(exts)
            open(tmp, "wb").close()
            assert list_parts(str(tmp_path), exts) == sorted(committed)
        committed.append(final)
    assert list_parts(str(tmp_path), exts) == sorted(committed)


def test_key_step_is_batch_independent_and_sql_equal():
    """``key_partition`` sends equal keys to one bucket whatever batch
    they arrive in (an int key beside a NULL, −0.0 beside 0.0, a string
    key in a sliced batch), and ``key_group_by`` groups by SQL equality:
    one −0.0/0.0 group and one NULL group, also for a NULL string key
    beside an int key, where pyarrow 16's grouper splits NULL 32-bit
    string keys into many groups; key types come back unchanged."""
    import pyarrow as pa

    from georay.util import key_group_by, key_partition

    def bucket(t):
        return key_partition(t, t.column_names, 8)["part__"].to_pylist()

    assert bucket(pa.table({"k": [5, 6]}))[0] \
        == bucket(pa.table({"k": [5, None]}))[0]
    assert len(set(bucket(pa.table({"k": [0.0, -0.0]})))) == 1
    s = pa.table({"s": ["a", "b", None, "a"], "k": [1, 1, 2, 1]})
    assert bucket(s)[::3] == bucket(s.slice(3))[:1] * 2
    assert bucket(s)[2] == bucket(pa.table({"s": pa.array([None], pa.string()),
                                             "k": [2]}))[0]
    n = 600
    t = pa.table({"s": pa.array([None if i % 3 else "x" for i in range(n)],
                                pa.string()),
                  "k": [0] * n, "f": [-0.0 if i % 2 else 0.0
                                      for i in range(n)]})
    g = key_group_by(t, ["s", "k", "f"], [([], "count_all")])
    assert sorted(g["count_all"].to_pylist()) == [200, 400]
    assert g.schema.field("s").type == pa.string()
