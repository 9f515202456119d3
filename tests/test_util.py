

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
