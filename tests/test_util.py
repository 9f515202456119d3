

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
