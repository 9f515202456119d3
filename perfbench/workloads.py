"""The three benchmark workloads.

Each workload is a closed loop: one client runs one job at a time on a
fresh Ray session with ``num_cpus = nproc``.  Inputs are generated from the
seed alone (the seed picks a fixture row offset); georay only ever sees the
generated tables.  Every job's output is checked, and a mismatch is
counted as a failed job, not raised.

* ``flagship_lance`` — the paper's headline op on its mandated input: the
  fused decode + phash verify + georef/cells + PIP join + tile assign +
  tile cut stage over a Lance image table.  Decode, phash and tile cut do
  almost all the work here.
* ``job_parquet_resume`` — the submittable checkpointed job
  (``scripts/run_flagship.py``) over a Parquet image table, then the same
  job resumed on the same output dir.  No image bytes are read: the work is
  the reads, georef/cells, the broadcast PIP join, tile assignment, the
  partition shuffle, the writer and the resume anti-join.
* ``vector_skewed`` — Zipf-hotspot points joined to polygons through the
  cell census -> salting -> bucket shuffle path (plus, in the trace run, a
  partitioned kNN).  No decode and no write: cells, R-tree/PIP and hash
  shuffles do the work.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from harness import RayOps, Tracer, digest_rows

# fixture row offsets are multiples of 16, and every table holds a multiple
# of 16 distinct payload rows, so each seed sees the same mix of the
# fixture's (fmt, w, h) classes (they cycle with the row index mod 16)
_OFFSET_ALIGN = 16
_OFFSET_SPAN = 5_000_000          # keeps image ids inside 'img%08d'
ZOOM = 12
N_POLYGONS = 500

DECODE_CLASSES = tuple(f"{fmt}_{w}x{h}"
                       for fmt, ws in (("png", (16, 64)),
                                       ("jpeg", (20, 256)))
                       for w in ws for h in (16, 20, 64, 256))


def fixture_offset(seed: int) -> int:
    return _OFFSET_ALIGN * ((seed * 2654435761 + 12345) % _OFFSET_SPAN)


def image_rows(start: int, n: int, unique: int) -> pa.Table:
    """Rows [start, start+n) of the fixture image table, with payloads
    cycled over the first ``unique`` rows of that range (the same
    throughput-fixture scheme as ``fixtures.write_images_parquet``): every
    row keeps its own image id, so its own location, tiles and joins."""
    from georay import fixtures
    base = fixtures.images_table(unique, start=start)
    ids = pa.array([f"img{start + i:08d}" for i in range(n)], pa.string())
    return base.take(pa.array(np.arange(n) % unique)).set_column(
        0, "image_id", ids)


def point_rows(start: int, n: int, id_col: str) -> pa.Table:
    """Seeded points located by ``fixtures.georef`` (30% uniform, 70% Zipf
    hotspots)."""
    from georay import fixtures
    idx = np.arange(start, start + n, dtype=np.int64)
    g = fixtures.georef(idx, np.full(n, 256.0), np.full(n, 256.0))
    return pa.table({id_col: pa.array(idx), "lon": g["lon"],
                     "lat": g["lat"]})


def to_dataset(table: pa.Table, blocks: int):
    import ray
    step = -(-table.num_rows // blocks)
    return ray.data.from_arrow([table.slice(i, step)
                                for i in range(0, table.num_rows, step)])


class Recorder:
    """Proxy over a Ray Dataset that records the UDFs a georay function
    passes to ``map_batches``/``map_groups`` and the Datasets it passes to
    ``union``, so the traced replay can run the program's own closures
    in-process.  Every call is forwarded to the real Dataset."""

    def __init__(self, target, log: list):
        self._target = target
        self._log = log

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            args = [a._target if isinstance(a, Recorder) else a
                    for a in args]
            if name in ("map_batches", "map_groups"):
                self._log.append((getattr(args[0], "__name__", ""),
                                  args[0]))
            elif name == "union":
                self._log.extend(("union", a) for a in args)
            res = attr(*args, **kwargs)
            if type(res).__module__.startswith("ray.data"):
                return Recorder(res, self._log)
            return res

        return call

    @staticmethod
    def find(log: list, name: str):
        return [fn for nm, fn in log if nm == name]


def _dataset_table(ds) -> pa.Table:
    import ray
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tables) if tables else pa.table({})


def _polygons():
    from georay import fixtures
    return fixtures.polygons_table(N_POLYGONS)


def patch_layers(tr: Tracer) -> None:
    """Wrap each georay layer the fused stage and the partitioned join
    call."""
    from georay import codecs, lancefmt, pipelines
    from georay.geom import PackedPolygons
    from georay.join import PolygonIndex
    from georay.rtree import PackedRTree

    def rows(args, res):
        return args[0].num_rows

    tr.patch(lancefmt, "read_fragment", "lancefmt.read_fragment",
             units=lambda a, r: r.num_rows,
             counts=lambda a, r: {"lancefmt.bytes": r.nbytes})
    tr.patch(codecs, "decode_image", "codecs.decode_image",
             key=lambda a, r: f"{a[1]}_{r.shape[1]}x{r.shape[0]}")
    tr.patch(codecs, "phash64", "codecs.phash64")
    tr.patch(pipelines, "add_georef", "decode.add_georef", units=rows)
    tr.patch(pipelines, "add_cells", "decode.add_cells", units=rows)
    tr.patch(pipelines, "assign_center_tile", "tiles.assign_center_tile",
             units=rows)
    tr.patch(pipelines.FlagshipStage, "__call__", "pipelines.FlagshipStage",
             units=lambda a, r: a[1].num_rows,
             counts=lambda a, r: {"pipelines.frags": (
                 pc.sum(r["frag_checksum"].is_valid()).as_py() or 0
                 if "frag_checksum" in r.column_names else 0)})
    tr.patch(PolygonIndex, "match_points", "join.match_points",
             units=lambda a, r: len(a[1]))
    tr.patch(PackedRTree, "query_points", "rtree.query_points",
             units=lambda a, r: len(a[1]),
             counts=lambda a, r: {"rtree.candidates": len(r[0])})
    tr.patch(PackedPolygons, "contains_pairs", "geom.contains_pairs",
             units=lambda a, r: len(r),
             counts=lambda a, r: {"geom.pip_hits": int(r.sum())})


def _per(span, scale: float) -> float:
    """Seconds per unit of work, times ``scale`` (1e3: ms, 1e6: us)."""
    return span.ns / 1e9 * scale / span.units if span.units else 0.0


def stage_layers(tr: Tracer, images: int) -> dict:
    """Per-layer metrics of the fused stage from a traced replay."""
    sp = tr.span
    stage = sp("pipelines.FlagshipStage")
    parts = {k: sp(k).ns for k in ("codecs.decode_image", "codecs.phash64",
                                   "decode.add_georef", "decode.add_cells",
                                   "join.match_points",
                                   "tiles.assign_center_tile")}
    # cut + checksum + output assembly: the stage minus its timed parts
    cut_ns = max(stage.ns - sum(parts.values()), 0) if stage.calls else 0
    m = {
        "lancefmt.read_fragment.ms_per_unit": (
            sp("lancefmt.read_fragment").ms / sp("lancefmt.read_fragment")
            .calls if sp("lancefmt.read_fragment").calls else 0.0),
        "lancefmt.bytes_per_img": (sp("lancefmt.bytes").units
                                   / sp("lancefmt.read_fragment").units
                                   if sp("lancefmt.read_fragment").units
                                   else 0.0),
        "codecs.decode_image.calls": sp("codecs.decode_image").calls,
        "codecs.decode_image.ms_per_img": _per(sp("codecs.decode_image"),
                                               1e3),
        "codecs.phash64.ms_per_img": _per(sp("codecs.phash64"), 1e3),
        "pipelines.FlagshipStage.ms_per_img": _per(stage, 1e3),
        "pipelines.cut.ms_per_img": (cut_ns / 1e6 / images
                                     if images else 0.0),
        "pipelines.frags_per_img": (sp("pipelines.frags").units / images
                                    if images else 0.0),
        "decode.add_georef.us_per_img": _per(sp("decode.add_georef"), 1e6),
        "decode.add_cells.us_per_img": _per(sp("decode.add_cells"), 1e6),
        "join.match_points.us_per_point": _per(sp("join.match_points"),
                                               1e6),
        "tiles.assign_center_tile.us_per_row": _per(
            sp("tiles.assign_center_tile"), 1e6),
    }
    for cls in DECODE_CLASSES:
        m[f"codecs.decode_image.ms_per_img.{cls}"] = _per(
            sp(f"codecs.decode_image.{cls}"), 1e3)
    total = stage.ns or 1
    m["flagship.share.decode"] = parts["codecs.decode_image"] / total
    m["flagship.share.phash"] = parts["codecs.phash64"] / total
    m["flagship.share.cut"] = cut_ns / total
    m["flagship.share.georef_cells_join"] = (
        parts["decode.add_georef"] + parts["decode.add_cells"]
        + parts["join.match_points"]) / total
    return m


def pip_layers(tr: Tracer) -> dict:
    q = tr.span("rtree.query_points")
    cand = tr.span("rtree.candidates").units
    return {
        "rtree.candidates_per_point": cand / q.units if q.units else 0.0,
        "join.pip_hit_ratio": (tr.span("geom.pip_hits").units
                               / tr.span("geom.contains_pairs").units
                               if tr.span("geom.contains_pairs").units
                               else 0.0),
    }


def timed_replay(replay) -> tuple:
    """Run ``replay()`` untraced, traced, untraced; returns the
    traced tracer, its result and trace.overhead_frac."""
    plain = []
    for traced in (False, True, False):
        tr = Tracer()
        with tr:
            if traced:
                patch_layers(tr)
            t0 = time.perf_counter()
            res = replay()
            dt = time.perf_counter() - t0
        if traced:
            traced_tr, traced_res, traced_s = tr, res, dt
        else:
            plain.append(dt)
    # the faster plain run: the first one may still warm caches
    return traced_tr, traced_res, traced_s / min(plain) - 1.0


class Workload:
    """Base: ``setup`` (timed, several times per run), ``job`` (one closed-
    loop job; returns its seconds, its items per second, its failed checks
    and its named metrics) and ``trace`` (per-layer metrics, plus named
    metrics measured only there)."""

    name = ""

    def __init__(self, seed: int, work: str):
        self.work = work
        self.start = fixture_offset(seed)


# ---------------------------------------------------------------------------

class FlagshipLance(Workload):
    name = "flagship_lance"
    DIGEST = ("image_id", "polygon_id", "z", "tile_x", "tile_y",
              "frag_checksum")

    def __init__(self, seed, work, tiny=False):
        super().__init__(seed, work)
        # one 512-row Lance work unit (pipelines.flagship_work_units)
        self.n = 32 if tiny else 512
        self.table = image_rows(self.start, self.n, 32 if tiny else 128)
        self.ref = None

    def inputs_digest(self) -> str:
        return digest_rows(self.table, ["image_id", "phash"])

    def _flagship(self, root):
        from georay.pipelines import flagship_join
        return flagship_join(root, zoom=ZOOM, n_polygons=N_POLYGONS,
                             decode=True, cut=True, verify=True,
                             source="direct")

    def setup(self, rep: int) -> None:
        import ray
        from georay.lancefmt import write_lance
        self.root = os.path.join(self.work, f"lance{rep}")
        write_lance(ray.data.from_arrow(self.table), self.root)
        warm = os.path.join(self.work, f"warm{rep}")
        write_lance(self.table.slice(0, 16), warm)
        self._flagship(warm).count()

    def replay(self) -> pa.Table:
        """The fused stage in-process over the table's Lance work units."""
        from georay.join import PolygonIndex
        from georay.lancefmt import lance_manifest, read_fragment
        from georay.pipelines import FlagshipStage, flagship_work_units
        stage = FlagshipStage(PolygonIndex.build(_polygons()), zoom=ZOOM,
                              decode=True, cut=True, verify=True)
        schema = lance_manifest(self.root)["schema"]
        outs = []
        for u in flagship_work_units(self.root):
            tbl = read_fragment(u["path"], schema,
                                row_range=(u["start"], u["stop"]))
            outs.append(stage(tbl))
        return pa.concat_tables(outs)

    def check(self, out: pa.Table) -> list:
        """Every phash verifies, and the digest equals the first output's:
        the same across the loop's passes, and in a trace run the Ray pass
        equals the in-process replay."""
        bad = []
        if not pc.all(out["phash_ok"]).as_py():
            bad.append("phash_ok false on some row")
        digest = digest_rows(out, self.DIGEST)
        if self.ref is None:
            self.ref = digest
        elif digest != self.ref:
            bad.append("output digest differs from the first output's")
        return bad

    def reference(self) -> None:
        """No up-front reference: the in-process replay costs a full pass,
        so it runs in the trace run only (see :meth:`check`)."""

    def _pass(self):
        t0 = time.perf_counter()
        ds = self._flagship(self.root).materialize()
        dt = time.perf_counter() - t0
        return dt, self.check(_dataset_table(ds)), ds

    def job(self):
        dt, bad, _ = self._pass()
        return dt, self.n / dt, bad, {"images_per_s": self.n / dt}

    def trace(self, ops: RayOps) -> tuple:
        dt, bad, ds = self._pass()
        ops.add(ds, dt)
        tr, out, overhead = timed_replay(self.replay)
        bad += self.check(out)
        m = stage_layers(tr, self.n)
        m.update(pip_layers(tr))
        m["trace.overhead_frac"] = overhead
        return m, bad


# ---------------------------------------------------------------------------

class JobParquetResume(Workload):
    name = "job_parquet_resume"
    DIGEST = ("image_id", "polygon_id", "tile_x", "tile_y")
    LINEAGE = ["image_id", "tile_x", "tile_y"]
    BATCH = 64        # flagship_join's default map_batches batch size

    def __init__(self, seed, work, tiny=False):
        super().__init__(seed, work)
        self.n = 256 if tiny else 8192
        # the job prunes the bytes column at the read, so 16 distinct
        # payloads (one per fixture class) are as good as n
        self.table = image_rows(self.start, self.n, 16)
        self.jobs = 0

    def inputs_digest(self) -> str:
        return digest_rows(self.table, ["image_id", "phash"])

    @staticmethod
    def _write_parquet(table, path):
        os.makedirs(path, exist_ok=True)
        pq.write_table(table, os.path.join(path, "part-00000.parquet"),
                       row_group_size=1024)

    def setup(self, rep: int) -> None:
        from georay.pipelines import flagship_checkpointed
        self.path = os.path.join(self.work, f"pq{rep}")
        self._write_parquet(self.table, self.path)
        warm = os.path.join(self.work, f"warm{rep}")
        self._write_parquet(self.table.slice(0, 64), warm)
        for _ in range(2):                       # write pass, resume pass
            flagship_checkpointed(warm, warm + "_out", zoom=ZOOM,
                                  n_polygons=N_POLYGONS).take_all()

    def replay(self) -> pa.Table:
        """flagship_join(decode=False)'s fused stage in-process, in the
        pipeline's batch size."""
        from georay.join import PolygonIndex
        from georay.pipelines import FlagshipStage
        stage = FlagshipStage(PolygonIndex.build(_polygons()), zoom=ZOOM,
                              decode=False)
        cols = self.table.select(["image_id", "w", "h", "caption", "phash"])
        return pa.concat_tables([stage(pa.Table.from_batches([b]))
                                 for b in cols.to_batches(self.BATCH)])

    def reference(self) -> None:
        self.ref = digest_rows(self.replay(), self.DIGEST)

    @staticmethod
    def _written(out_dir) -> pa.Table:
        files = sorted(f for f in os.listdir(out_dir)
                       if f.startswith("part-") and f.endswith(".parquet"))
        return pa.concat_tables([pq.read_table(os.path.join(out_dir, f))
                                 for f in files])

    def _passes(self):
        from georay.checkpoint import load_manifest
        from georay.pipelines import flagship_checkpointed
        out = os.path.join(self.work, f"out{self.jobs}")
        self.jobs += 1
        t0 = time.perf_counter()
        st1 = flagship_checkpointed(self.path, out, zoom=ZOOM,
                                    n_polygons=N_POLYGONS).materialize()
        t1 = time.perf_counter()
        man = load_manifest(out)
        st2 = flagship_checkpointed(self.path, out, zoom=ZOOM,
                                    n_polygons=N_POLYGONS).materialize()
        t2 = time.perf_counter()
        bad = []
        s1 = _dataset_table(st1)
        s2 = _dataset_table(st2)
        if (s1.num_rows == 0
                or set(s1["status"].to_pylist()) != {"written"}
                or s1.num_rows != len(man)):
            bad.append("write pass did not commit one record per partition")
        if s2.num_rows and "written" in s2["status"].to_pylist():
            bad.append("resume pass rewrote a committed partition")
        if load_manifest(out) != man:
            bad.append("resume pass changed the manifest")
        if digest_rows(self._written(out), self.DIGEST) != self.ref:
            bad.append("written rows differ from flagship_join(decode=False)")
        return t1 - t0, t2 - t1, bad, out, st1, st2

    def job(self):
        w, r, bad, out, _, _ = self._passes()
        shutil.rmtree(out, ignore_errors=True)
        return w + r, self.n / (w + r), bad, {"images_per_s": self.n / w,
                                              "resume_s": r}

    def trace(self, ops: RayOps) -> tuple:
        import ray
        from georay.checkpoint import (PartitionedWriter, load_manifest,
                                       resume_filter)
        w, r, bad, out, st1, st2 = self._passes()
        ops.add(st1, w)
        resume_ops = ops.add(st2, r)
        # rows the fused stage re-ran on the resume pass / input rows
        redo = sum(o["rows_in"] for o in resume_ops
                   if "flagship" in o["name"])
        keyed = self._written(out)
        tr, staged, overhead = timed_replay(self.replay)
        if digest_rows(staged, self.DIGEST) != self.ref:
            bad.append("traced replay differs from the reference")
        m = stage_layers(tr, self.n)
        m.update(pip_layers(tr))
        # writer and resume filter, in-process over the written rows
        replay_out = os.path.join(self.work, "trace_out")
        with Tracer() as wt:
            wt.patch(PartitionedWriter, "__call__", "checkpoint.writer")
            writer = PartitionedWriter(replay_out, ["part"], self.LINEAGE)
            parts = keyed["part"].to_numpy()
            for p in np.unique(parts):
                writer(keyed.filter(pa.array(parts == p)))
        man = load_manifest(replay_out)
        log: list = []
        resume_filter(Recorder(ray.data.range(1), log), replay_out, ["part"])
        (drop_done,) = Recorder.find(log, "drop_done")
        t0 = time.perf_counter()
        left = drop_done(keyed)
        filter_s = time.perf_counter() - t0
        if left.num_rows:
            bad.append("resume filter kept rows of committed partitions")
        ws = wt.span("checkpoint.writer")
        m.update({
            "checkpoint.writer.ms_per_partition": (ws.ms / ws.calls
                                                   if ws.calls else 0.0),
            "checkpoint.bytes_written_per_row": (
                sum(v["bytes"] for v in man.values())
                / max(sum(v["row_count"] for v in man.values()), 1)),
            "checkpoint.partitions_written": len(man),
            "checkpoint.resume_filter_s": filter_s,
            "checkpoint.resume_redo_frac": redo / self.n,
            "trace.overhead_frac": overhead,
        })
        shutil.rmtree(out, ignore_errors=True)
        return m, bad


# ---------------------------------------------------------------------------

class VectorSkewed(Workload):
    name = "vector_skewed"
    K = 5
    RES = 6                 # spatial_join_partitioned's default grid level
    KNN_SAMPLE = 64

    def __init__(self, seed, work, tiny=False):
        super().__init__(seed, work)
        self.np_ = 2000 if tiny else 25000
        self.nq = 200 if tiny else 500
        self.nn = 200 if tiny else 500
        # hot cells (those above 1/50 of the points) get salted
        self.salt_threshold = self.np_ // 50
        self.points = point_rows(self.start, self.np_, "point_id")
        self.queries = point_rows(self.start + 100_000_000, self.nq, "qid")
        self.neighbors = point_rows(self.start + 200_000_000, self.nn, "nid")
        self.polys = _polygons()

    def inputs_digest(self) -> str:
        return digest_rows(self.points.slice(0, 64), ["lon", "lat"])

    def _join(self, points_ds):
        from georay.join import spatial_join_partitioned
        return spatial_join_partitioned(
            points_ds, self.polys, res=self.RES,
            salt_threshold=self.salt_threshold, keep_cols=["point_id"])

    def _knn(self, qds, nds):
        from georay.knn import knn_points_partitioned
        return knn_points_partitioned(qds, nds, k=self.K, qid_col="qid",
                                      nid_col="nid")

    def setup(self, rep: int) -> None:
        self.points_ds = to_dataset(self.points, 8)
        self.q_ds = to_dataset(self.queries, 4)
        self.n_ds = to_dataset(self.neighbors, 4)
        warm = self.points.slice(0, 256)
        self._join(to_dataset(warm, 2)).count()

    @staticmethod
    def _pair_keys(point_id, polygon_id) -> np.ndarray:
        poly = np.char.lstrip(np.asarray(polygon_id, dtype="U16"),
                              "poly").astype(np.int64)
        return np.sort(np.asarray(point_id, np.int64) * 100_000 + poly)

    def reference(self) -> None:
        from georay.geom import haversine_m
        from georay.join import PolygonIndex
        idx = PolygonIndex.build(self.polys)
        qi, ii = idx.match_points(self.points["lon"].to_numpy(),
                                  self.points["lat"].to_numpy())
        self.ref_pairs = self._pair_keys(
            self.points["point_id"].to_numpy()[qi],
            idx.payload["polygon_id"][ii])
        # brute-force kNN on a fixed sample of queries, ties broken by id
        nlat = self.neighbors["lat"].to_numpy()
        nlon = self.neighbors["lon"].to_numpy()
        nid = self.neighbors["nid"].to_numpy()
        pick = np.linspace(0, self.nq - 1, self.KNN_SAMPLE).astype(int)
        self.ref_knn = {}
        for i in pick:
            d = haversine_m(self.queries["lat"][int(i)].as_py(),
                            self.queries["lon"][int(i)].as_py(), nlat, nlon)
            order = np.lexsort((nid, d))[:self.K]
            self.ref_knn[int(self.queries["qid"][int(i)].as_py())] = \
                nid[order].tolist()

    def check_join(self, out: pa.Table) -> list:
        got = self._pair_keys(out["point_id"].to_numpy(),
                              out["polygon_id"].to_numpy(
                                  zero_copy_only=False))
        if not np.array_equal(got, self.ref_pairs):
            return ["partitioned join pairs differ from match_points"]
        return []

    def check_knn(self, out: pa.Table) -> list:
        if out.num_rows != self.nq * self.K:
            return ["kNN returned the wrong number of rows"]
        qid = out["qid"].to_numpy()
        rank = out["rank"].to_numpy()
        nid = out["nid"].to_numpy()
        for q, want in self.ref_knn.items():
            sel = np.flatnonzero(qid == q)
            got = nid[sel[np.argsort(rank[sel])]].tolist()
            if got != want:
                return [f"kNN of query {q} differs from brute force"]
        return []

    def _join_pass(self):
        t0 = time.perf_counter()
        j = self._join(self.points_ds).materialize()
        dt = time.perf_counter() - t0
        return dt, self.check_join(_dataset_table(j)), j

    def _knn_pass(self):
        t0 = time.perf_counter()
        k = self._knn(self.q_ds, self.n_ds).materialize()
        dt = time.perf_counter() - t0
        return dt, self.check_knn(_dataset_table(k)), k

    def job(self):
        dt, bad, _ = self._join_pass()
        return dt, self.np_ / dt, bad, {"join_points_per_s": self.np_ / dt}

    def trace(self, ops: RayOps) -> tuple:
        from georay.join import cell_census
        tj, bad, j = self._join_pass()
        tk, bad_k, k = self._knn_pass()
        bad += bad_k
        ops.add(j, tj)
        ops.add(k, tk)
        t0 = time.perf_counter()
        census = cell_census(self.points_ds, self.RES).take_all()
        census_s = time.perf_counter() - t0
        ops.wall_s += census_s
        log: list = []
        self._join(Recorder(self.points_ds, log))
        (key_points,) = Recorder.find(log, "key_points")
        (add_bucket,) = Recorder.find(log, "add_bucket")
        (join_bucket,) = Recorder.find(log, "join_bucket")
        (poly_ds,) = Recorder.find(log, "union")
        poly_t = _dataset_table(poly_ds)

        def replay():
            keyed = pa.concat_tables([key_points(self.points), poly_t])
            both = add_bucket(keyed)
            buckets = both["bucket"].to_numpy()
            sizes, outs = [], []
            for b in np.unique(buckets):
                g = both.filter(pa.array(buckets == b))
                sizes.append(g.num_rows)
                outs.append(join_bucket(g))
            return keyed, np.asarray(sizes), pa.concat_tables(outs)

        tr, (keyed, sizes, out), overhead = timed_replay(replay)
        bad += self.check_join(out)
        pts = keyed.filter(pc.equal(keyed["side"], 0))
        cells = pts["hexcell"].to_numpy()
        keys = np.unique(np.stack([cells, pts["salt"].to_numpy()]), axis=1)
        m = pip_layers(tr)
        m.update({
            "join.cell_census_s": census_s,
            "join.census_cells": len(census),
            # (cell, salt) shuffle keys per point cell: 1.0 = no salting
            "join.salt_fanout": keys.shape[1] / len(np.unique(cells)),
            "join.bucket_skew": float(sizes.max() / sizes.mean()),
            "trace.overhead_frac": overhead,
            # the kNN's time swings with the seed (its round count) and by
            # up to 25% between repeats, wider than any allowed bound, so
            # it is timed here, once, and not in the closed loop
            "knn_queries_per_s": self.nq / tk,
        })
        return m, bad


WORKLOADS = {w.name: w for w in (FlagshipLance, JobParquetResume,
                                 VectorSkewed)}
