"""GeoPackage reader — from-scratch SQLite3 file-format + GPKG geometry
parsing (reference: ogr/ogrsf_frmts/gpkg/; the reference links libsqlite3,
this reads the B-tree pages directly from the public file-format spec).

SQLite surface implemented (read-only, exactly what GPKG needs):
100-byte header (page size, page count), table B-trees (page types 5/13,
interior right-pointer, cell pointer arrays), varints, the record format
(serial types 0-9, blobs, text), payload OVERFLOW chains, and the
``sqlite_master`` catalog walk with a minimal CREATE TABLE column parser
(including the INTEGER-PRIMARY-KEY-is-rowid aliasing rule).

GPKG surface: ``gpkg_contents`` / ``gpkg_geometry_columns`` catalogs and
the GeoPackageBinary geometry blob (magic ``GP``, flags byte with
envelope-indicator bits, srs_id, optional envelope, then plain WKB) —
the ``wkb`` column comes out in the engine's native convention.

Ray shape: one SQLite FILE is the natural parallel unit (like fgb);
WITHIN a large file, the root page's child subtrees give rowid-range
splits (``gpkg_splits``) so one file can still fan out to tasks.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from .util import read_units

__all__ = ["SQLiteFile", "read_gpkg", "gpkg_layers", "parse_gpkg_geom",
           "read_gpkg_dataset", "read_mbtiles", "mbtiles_metadata",
           "write_mbtiles", "write_gpkg",
           "write_gpkg_partitioned", "rtree_query", "sqlite_lookup_rowid"]


def _varint(buf, pos):
    """SQLite varint: 1-9 bytes, big-endian 7-bit groups."""
    v = 0
    for i in range(8):
        b = buf[pos + i]
        v = (v << 7) | (b & 0x7F)
        if not b & 0x80:
            return v, pos + i + 1
    return (v << 8) | buf[pos + 8], pos + 9


_SERIAL_INT = {1: (1, ">b"), 2: (2, ">h"), 4: (4, ">i"), 6: (8, ">q")}


class SQLiteFile:
    """Minimal read-only SQLite3 database (table b-trees only)."""

    def __init__(self, data: bytes):
        self.buf = memoryview(data)
        if bytes(self.buf[:16]) != b"SQLite format 3\x00"[:len(data)]:
            raise ValueError("not a SQLite 3 database")
        if len(self.buf) < 100:
            raise self._truncated()
        ps = struct.unpack_from(">H", self.buf, 16)[0]
        self.page_size = 65536 if ps == 1 else ps
        # the header's page count (0 from writers older than 3.7.0)
        if struct.unpack_from(">I", self.buf, 28)[0] * self.page_size \
                > len(self.buf):
            raise self._truncated()
        self.usable = self.page_size - self.buf[20]  # reserved bytes/page
        enc = struct.unpack_from(">I", self.buf, 56)[0]
        if enc != 1:
            raise NotImplementedError("only UTF-8 databases supported")
        self.tables = {}  # name -> (rootpage, columns, rowid_alias_idx)
        for row, _rowid in self._walk_table(1):
            # sqlite_master: type, name, tbl_name, rootpage, sql
            if row[0] == "table":
                cols, alias = _parse_create(row[4] or "")
                self.tables[row[1]] = (int(row[3]), cols, alias)

    # -- page access -------------------------------------------------------
    def _truncated(self) -> ValueError:
        return ValueError(f"truncated gpkg at byte {len(self.buf)}")

    def _page(self, n: int) -> int:
        """Byte offset of page ``n``; a page outside the file raises."""
        off = (n - 1) * self.page_size
        if n < 1 or off + self.page_size > len(self.buf):
            raise self._truncated()
        return off

    def _cells(self, page: int):
        """(cell offsets, right-most child) of table b-tree ``page``:
        the one decoder of a page header and its cell-pointer array.  A
        leaf's right child is None; a cell outside the page raises."""
        off = self._page(page)
        hdr = off + (100 if page == 1 else 0)
        ptype = self.buf[hdr]
        if ptype not in (5, 13):
            raise ValueError(f"unexpected table b-tree page type {ptype}")
        ptrs = hdr + (12 if ptype == 5 else 8)
        ncell = struct.unpack_from(">H", self.buf, hdr + 3)[0]
        end = off + self.page_size
        if ptrs + 2 * ncell > end:
            raise self._truncated()
        cells = [off + c for c in struct.unpack_from(
            f">{ncell}H", self.buf, ptrs)]
        if any(c + 4 > end for c in cells):
            raise self._truncated()
        if ptype == 13:
            return cells, None
        return cells, struct.unpack_from(">I", self.buf, hdr + 8)[0]

    def _leaf_cell(self, cp: int):
        """(rowid, payload length, payload offset) of a leaf cell."""
        plen, p = _varint(self.buf, cp)
        rowid, p = _varint(self.buf, p)
        return rowid, plen, p

    def _walk_table(self, root: int):
        """Yield (values, rowid) for every row of a table b-tree, in
        rowid order."""
        cells, right = self._cells(root)
        if right is None:
            for cp in cells:
                rowid, plen, p = self._leaf_cell(cp)
                yield _decode_record(self._payload(p, plen)), rowid
            return
        for cp in cells:
            yield from self._walk_table(
                struct.unpack_from(">I", self.buf, cp)[0])
        yield from self._walk_table(right)

    def _payload(self, pos: int, plen: int) -> memoryview:
        """Cell payload, following the overflow chain when needed
        (fileformat.html §B-tree Pages: X = U-35 for table leaves,
        K = M + (P-M) % (U-4), M = ((U-12)*32/255) - 23)."""
        U = self.usable
        X = U - 35
        if plen <= X:
            if pos + plen > len(self.buf):
                raise self._truncated()
            return self.buf[pos:pos + plen]
        M = ((U - 12) * 32 // 255) - 23
        K = M + (plen - M) % (U - 4)
        inline = K if K <= X else M
        if pos + inline + 4 > len(self.buf):
            raise self._truncated()
        out = bytearray(self.buf[pos:pos + inline])
        nxt = struct.unpack_from(">I", self.buf, pos + inline)[0]
        remaining = plen - inline
        while remaining > 0 and nxt:
            poff = self._page(nxt)
            nxt = struct.unpack_from(">I", self.buf, poff)[0]
            take = min(U - 4, remaining)
            out += self.buf[poff + 4:poff + 4 + take]
            remaining -= take
        return memoryview(bytes(out))

    def subtree_roots(self, table: str) -> list:
        """First-level children of the table's root page — rowid-range
        split points for parallel reads of one big file."""
        root = self.tables[table][0]
        cells, right = self._cells(root)
        if right is None:
            return [root]
        return [struct.unpack_from(">I", self.buf, cp)[0]
                for cp in cells] + [right]

    def read_table(self, name: str, root_override: int | None = None):
        """All rows of ``name`` → (columns, list of value tuples) with
        the INTEGER PRIMARY KEY alias filled from the rowid."""
        if name not in self.tables:
            raise KeyError(f"table {name!r} not in database")
        root, cols, alias = self.tables[name]
        rows = []
        for vals, rowid in self._walk_table(root_override or root):
            vals = list(vals) + [None] * (len(cols) - len(vals))
            if alias is not None and vals[alias] is None:
                vals[alias] = rowid
            rows.append(tuple(vals[:len(cols)]))
        return cols, rows


def _decode_record(payload) -> tuple:
    hlen, p = _varint(payload, 0)
    serials = []
    while p < hlen:
        s, p = _varint(payload, p)
        serials.append(s)
    vals = []
    for s in serials:
        if s == 0:
            vals.append(None)
        elif s in _SERIAL_INT:
            n, fmt = _SERIAL_INT[s]
            vals.append(struct.unpack_from(fmt, payload, p)[0])
            p += n
        elif s == 3:
            b = bytes(payload[p:p + 3])
            v = int.from_bytes(b, "big", signed=True)
            vals.append(v)
            p += 3
        elif s == 5:
            b = bytes(payload[p:p + 6])
            vals.append(int.from_bytes(b, "big", signed=True))
            p += 6
        elif s == 7:
            vals.append(struct.unpack_from(">d", payload, p)[0])
            p += 8
        elif s == 8:
            vals.append(0)
        elif s == 9:
            vals.append(1)
        elif s >= 12 and s % 2 == 0:
            n = (s - 12) // 2
            vals.append(bytes(payload[p:p + n]))
            p += n
        elif s >= 13:
            n = (s - 13) // 2
            vals.append(bytes(payload[p:p + n]).decode("utf-8"))
            p += n
        else:
            raise ValueError(f"unsupported serial type {s}")
    return tuple(vals)


_CONSTRAINT_KW = {"PRIMARY", "FOREIGN", "UNIQUE", "CHECK", "CONSTRAINT"}


def _parse_create(sql: str):
    """Column names (+ INTEGER PRIMARY KEY rowid-alias index) from a
    CREATE TABLE statement — the subset sqlite3/OGR emit for GPKG."""
    lo = sql.index("(")
    depth = 0
    end = len(sql)
    for i in range(lo, len(sql)):
        if sql[i] == "(":
            depth += 1
        elif sql[i] == ")":
            depth -= 1
            if depth == 0:
                end = i
                break
    body = sql[lo + 1:end]
    parts, cur, depth = [], [], 0
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    cols, alias = [], None
    for part in parts:
        toks = part.strip().split()
        if not toks:
            continue
        first = toks[0].strip('"`[]')
        if first.upper() in _CONSTRAINT_KW:
            continue
        up = part.upper()
        if "INTEGER" in up and "PRIMARY" in up and "KEY" in up:
            alias = len(cols)
        cols.append(first)
    return cols, alias


# ---------------------------------------------------------------------------
# GPKG layer
# ---------------------------------------------------------------------------

def parse_gpkg_geom(blob: bytes) -> bytes | None:
    """GeoPackageBinary header (GP magic, version, flags with 3-bit
    envelope indicator, srs_id, envelope doubles) → the embedded WKB."""
    if blob is None:
        return None
    if blob[:2] != b"GP":
        raise ValueError("not a GPKG geometry blob")
    flags = blob[3]
    env_ind = (flags >> 1) & 0x7
    env_len = {0: 0, 1: 32, 2: 48, 3: 48, 4: 64}[env_ind]
    if flags & 0x10:        # empty-geometry flag
        return None
    return bytes(blob[8 + env_len:])


def gpkg_layers(data: bytes) -> list:
    """(table_name, geometry_column, srs_id) of every feature layer."""
    db = SQLiteFile(data)
    cols, rows = db.read_table("gpkg_geometry_columns")
    ti = cols.index("table_name")
    ci = cols.index("column_name")
    si = cols.index("srs_id")
    return [(r[ti], r[ci], r[si]) for r in rows]


def read_gpkg(data: bytes, table: str | None = None,
              geom_col_out: str = "wkb", bbox=None) -> pa.Table:
    """One GPKG feature layer → Arrow table (attributes + WKB geometry).
    ``table=None`` picks the first layer in gpkg_geometry_columns.
    With ``bbox`` and the gpkg_rtree_index extension present
    (``rtree_<table>_<col>`` shadow tables), only matching rowids are
    FETCHED (targeted b-tree descents) — the GPKG analog of the fgb
    pushdown; without the index the filter falls back to an envelope
    scan over the geometry blobs, so ``bbox`` semantics never depend on
    index presence."""
    db = SQLiteFile(data)
    layers = gpkg_layers(data)
    if table is None:
        table, gcol, _ = layers[0]
    else:
        gcol = next(g for t, g, _ in layers if t == table)
    if bbox is not None and f"rtree_{table}_{gcol}_node" in db.tables:
        rowids = rtree_query(db, f"rtree_{table}_{gcol}", bbox)
        cols = db.tables[table][1]
        rows = [r for r in (sqlite_lookup_rowid(db, table, int(rid))
                            for rid in rowids) if r is not None]
    else:
        cols, rows = db.read_table(table)
        if bbox is not None:
            from .geom import wkb_envelope

            qx0, qy0, qx1, qy1 = (float(v) for v in bbox)
            gi = cols.index(gcol)

            def hit(blob):
                if blob is None:
                    return False
                x0, y0, x1, y1 = wkb_envelope(parse_gpkg_geom(blob))
                return (x0 <= qx1 and x1 >= qx0
                        and y0 <= qy1 and y1 >= qy0)

            rows = [r for r in rows if hit(r[gi])]
    gi = cols.index(gcol)
    out = {}
    for i, c in enumerate(cols):
        vals = [r[i] for r in rows]
        if i == gi:
            out[geom_col_out] = pa.array(
                [parse_gpkg_geom(v) for v in vals], pa.binary())
        else:
            out[c] = pa.array(vals)
    return pa.table(out)


def _gpkg_file(unit: dict, *, table, geom_col) -> pa.Table:
    with open(unit["path"], "rb") as f:
        return read_gpkg(f.read(), table=table, geom_col_out=geom_col)


def read_gpkg_dataset(paths, *, table: str | None = None,
                      geom_col: str = "wkb"):
    """Ray source: one task per file, which parses its file's B-tree pages
    with the from-scratch reader."""
    if isinstance(paths, str):
        paths = [paths]
    return read_units([{"path": p} for p in paths], _gpkg_file, table=table,
                      geom_col=geom_col)


# ---------------------------------------------------------------------------
# MBTiles (the OTHER SQLite-container raster driver the reference ships:
# frmts/mbtiles/ — metadata KV table + tiles(zoom_level, tile_column,
# tile_row, tile_data) in TMS row order)
# ---------------------------------------------------------------------------

def mbtiles_metadata(data: bytes) -> dict:
    db = SQLiteFile(data)
    _, rows = db.read_table("metadata")
    return {k: v for k, v in rows}


def read_mbtiles(data: bytes, *, xyz_rows: bool = True) -> pa.Table:
    """tiles table → Arrow (z, x, y, data).  ``xyz_rows`` flips the TMS
    row index to the XYZ convention the tile pipeline uses
    (y_xyz = 2^z − 1 − y_tms, the same flip as gdal2tiles)."""
    db = SQLiteFile(data)
    cols, rows = db.read_table("tiles")
    zi = cols.index("zoom_level")
    xi = cols.index("tile_column")
    yi = cols.index("tile_row")
    di = cols.index("tile_data")
    z = np.array([r[zi] for r in rows], dtype=np.int64)
    x = np.array([r[xi] for r in rows], dtype=np.int64)
    y = np.array([r[yi] for r in rows], dtype=np.int64)
    if xyz_rows:
        y = (np.int64(1) << z) - 1 - y
    return pa.table({"z": pa.array(z), "tile_x": pa.array(x),
                     "tile_y": pa.array(y),
                     "data": pa.array([r[di] for r in rows], pa.binary())})


def write_mbtiles(ds, path: str, metadata: dict | None = None,
                  xyz_rows: bool = True, batch_size: int = 4096):
    """MBTiles SINK: a tiles Dataset ``(z, tile_x, tile_y, data)`` →
    one .mbtiles file.  The READ side above parses SQLite from scratch;
    writing uses the stdlib ``sqlite3`` module (the reference's own
    MBTiles driver equally writes through libsqlite3 —
    frmts/mbtiles/mbtilesdataset.cpp).  One file == one writer (SQLite's
    own constraint), so at scale the unit of parallelism is one
    .mbtiles per partition — same contract as the fgb/COG sinks.
    ``xyz_rows`` converts incoming XYZ y to the TMS rows MBTiles stores."""
    import sqlite3

    con = sqlite3.connect(path)
    con.executescript(
        "CREATE TABLE IF NOT EXISTS metadata (name TEXT, value TEXT);"
        "CREATE TABLE IF NOT EXISTS tiles (zoom_level INTEGER, "
        "tile_column INTEGER, tile_row INTEGER, tile_data BLOB);"
        "CREATE UNIQUE INDEX IF NOT EXISTS tile_index ON tiles "
        "(zoom_level, tile_column, tile_row);")
    for k, v in (metadata or {}).items():
        con.execute("INSERT INTO metadata VALUES (?, ?)", (k, str(v)))
    n = 0
    for batch in ds.iter_batches(batch_size=batch_size,
                                 batch_format="pyarrow"):
        z = batch["z"].to_numpy()
        x = batch["tile_x"].to_numpy()
        y = batch["tile_y"].to_numpy()
        if xyz_rows:
            y = (np.int64(1) << z) - 1 - y
        rows = list(zip(map(int, z), map(int, x), map(int, y),
                        batch["data"].to_pylist()))
        con.executemany("INSERT OR REPLACE INTO tiles VALUES (?,?,?,?)",
                        rows)
        n += len(rows)
    con.commit()
    con.close()
    return n


def write_gpkg(table: pa.Table, path: str, *, layer: str = "layer",
               geom_col: str = "wkb", geometry_type: str = "GEOMETRY",
               srs_id: int = 4326) -> int:
    """GPKG SINK: Arrow table (WKB + scalar attributes) → one .gpkg
    (stdlib sqlite3 writer, same rationale as :func:`write_mbtiles`; the
    READ side stays the from-scratch page parser).  Geometry wraps in
    the GeoPackageBinary header (GP magic, little-endian flag, srs_id);
    attribute types map to SQLite's INTEGER/REAL/TEXT/BLOB affinities.
    An integer ``fid`` column supplies the ``fid INTEGER PRIMARY KEY``
    values, as GDAL's GPKG driver takes its FID column; without one the
    features are numbered from 1; a non-integer ``fid`` raises
    ``ValueError``.  One file == one writer; at scale the partition is
    the file unit."""
    import sqlite3

    if "fid" in table.schema.names:
        t = table.schema.field("fid").type
        if not pa.types.is_integer(t):
            raise ValueError(f"gpkg: the fid column must be an integer, "
                             f"got {t}")
        fids = table["fid"].to_pylist()
    else:
        fids = range(1, table.num_rows + 1)
    cols = []
    for name in table.schema.names:
        if name in (geom_col, "fid"):
            continue
        t = table.schema.field(name).type
        if pa.types.is_integer(t) or pa.types.is_boolean(t):
            aff = "INTEGER"
        elif pa.types.is_floating(t):
            aff = "REAL"
        elif pa.types.is_string(t):
            aff = "TEXT"
        elif pa.types.is_binary(t):
            aff = "BLOB"
        else:
            raise TypeError(f"gpkg: unsupported attribute type {t}")
        cols.append((name, aff))
    con = sqlite3.connect(path)
    con.executescript(
        "CREATE TABLE IF NOT EXISTS gpkg_contents (table_name TEXT "
        "PRIMARY KEY, data_type TEXT, identifier TEXT, srs_id INTEGER);"
        "CREATE TABLE IF NOT EXISTS gpkg_geometry_columns (table_name "
        "TEXT, column_name TEXT, geometry_type_name TEXT, srs_id "
        "INTEGER, z TINYINT, m TINYINT);")
    col_sql = ", ".join(f'"{n}" {a}' for n, a in cols)
    con.execute(f'CREATE TABLE "{layer}" (fid INTEGER PRIMARY KEY, '
                f"geom BLOB{', ' + col_sql if col_sql else ''})")
    con.execute("INSERT INTO gpkg_contents VALUES (?,?,?,?)",
                (layer, "features", layer, srs_id))
    con.execute("INSERT INTO gpkg_geometry_columns VALUES (?,?,?,?,0,0)",
                (layer, "geom", geometry_type, srs_id))
    head = b"GP" + bytes([0, 0x01]) + struct.pack("<i", srs_id)
    wkbs = table[geom_col].to_pylist()
    attrs = [table[n].to_pylist() for n, _ in cols]
    rows = [(fid, None if wkb is None else head + wkb, *(a[i] for a in attrs))
            for i, (fid, wkb) in enumerate(zip(fids, wkbs))]
    ph = ",".join("?" * (2 + len(cols)))
    con.executemany(f'INSERT INTO "{layer}" VALUES ({ph})', rows)
    con.commit()
    con.close()
    return table.num_rows


def write_gpkg_partitioned(ds, out_dir: str, part_col: str,
                           geom_col: str = "wkb", **kw):
    """Distributed GPKG sink: one ``<part>.gpkg`` per partition-key group
    (same shape as the fgb sink).  Returns the manifest Dataset."""
    from .util import write_groups
    return write_groups(ds, out_dir, part_col, "gpkg",
                        lambda g, path, part: write_gpkg(
                            g, path, layer=part, geom_col=geom_col, **kw))


# ---------------------------------------------------------------------------
# R*Tree spatial index (SQLite rtree module shadow tables — the GPKG
# spatial index, gpkg extension 'gpkg_rtree_index'; node blob format from
# the public SQLite rtree.c: [u16 height][u16 count] then 24-byte entries
# of big-endian i64 id + 4 big-endian f32 coords (minx,maxx,miny,maxy);
# leaf entries carry rowids, internal entries carry child node numbers.
# NOTE: only the ROOT node (nodeno 1) stores the tree depth in its first
# two bytes — non-root nodes leave them zero — so descent must track the
# level explicitly rather than trusting per-node header bytes)
# ---------------------------------------------------------------------------

def _rtree_nodes(db: SQLiteFile, prefix: str) -> dict:
    cols, rows = db.read_table(f"{prefix}_node")
    ni = cols.index("nodeno")
    di = cols.index("data")
    return {r[ni]: r[di] for r in rows}


def rtree_query(db: SQLiteFile, prefix: str, bbox) -> np.ndarray:
    """rowids whose index boxes intersect ``bbox`` — walks the shadow
    node blobs directly (float32 coords are outward-rounded by the rtree
    module, so there are no false negatives)."""
    nodes = _rtree_nodes(db, prefix)
    qx0, qy0, qx1, qy1 = (float(v) for v in bbox)
    depth = struct.unpack_from(">H", nodes[1], 0)[0]
    out = []
    stack = [(1, 0)]
    while stack:
        nodeno, level = stack.pop()
        blob = nodes[nodeno]
        count = struct.unpack_from(">H", blob, 2)[0]
        is_leaf = level == depth
        for i in range(count):
            off = 4 + 24 * i
            ident = struct.unpack_from(">q", blob, off)[0]
            minx, maxx, miny, maxy = struct.unpack_from(">4f", blob,
                                                        off + 8)
            if (minx <= qx1 and maxx >= qx0
                    and miny <= qy1 and maxy >= qy0):
                if is_leaf:
                    out.append(ident)
                else:
                    stack.append((ident, level + 1))
    return np.array(sorted(out), dtype=np.int64)


def sqlite_lookup_rowid(db: SQLiteFile, table: str, rowid: int):
    """Targeted single-row fetch by rowid (OGR GetFeature(fid) contract):
    descends interior pages by key instead of walking the whole tree."""
    root, cols, alias = db.tables[table]
    cells, right = db._cells(root)
    while right is not None:            # interior: descend by key
        page = right
        for cp in cells:
            if rowid <= _varint(db.buf, cp + 4)[0]:
                page = struct.unpack_from(">I", db.buf, cp)[0]
                break
        cells, right = db._cells(page)
    for cp in cells:
        rid, plen, p = db._leaf_cell(cp)
        if rid == rowid:
            vals = list(_decode_record(db._payload(p, plen)))
            vals += [None] * (len(cols) - len(vals))
            if alias is not None and vals[alias] is None:
                vals[alias] = rid
            return tuple(vals[:len(cols)])
    return None
