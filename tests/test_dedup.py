"""Exact dedup (georay.dedup.exact_dedup): first row per key group."""

import numpy as np
import pyarrow as pa


def _docs_table():
    base = [
        "the quick brown fox jumps over the lazy dog and runs away fast",
        "the quick brown fox jumps over the lazy dog and runs away quick",
        "completely different content about harbors ships and the open sea",
        "der hund und die katze sind nicht ein gutes team mit der maus",
        "le chat et le chien sont dans la maison avec les enfants",
        "numbers 12345 and symbols !!! ??? ,,, everywhere 67890 chaos !!!",
    ]
    # add an exact duplicate of doc 0
    texts = base + [base[0]]
    return pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                     "text": pa.array(texts, pa.string())})


def test_exact_dedup_keeps_first_per_key(ray_session):
    import ray
    from georay.dedup import exact_dedup
    from georay.util import hash_strings
    t = _docs_table()
    t = t.append_column("content_hash",
                        pa.array(hash_strings(t["text"]).view(np.int64)))
    out = exact_dedup(ray.data.from_arrow(t), "content_hash",
                      "doc_id").to_pandas()
    assert len(out) == 6  # 7 rows, one exact dup
    assert 0 in out["doc_id"].values and 6 not in out["doc_id"].values
