"""Attribute-filter expressions — a from-scratch analog of OGR's SWQ
WHERE-clause engine (ogr/ogr_swq.h:42-81 operator set; bison parser in
ogr/swq.cpp; installed per layer via SetAttributeFilter,
ogrsf_frmts/generic/ogrlayer.cpp:421), compiled to **vectorized
pyarrow.compute expressions** instead of per-row evaluation.

Supported grammar (case-insensitive keywords)::

    expr   := or
    or     := and (OR and)*
    and    := not (AND not)*
    not    := NOT not | cmp
    cmp    := add (=|<>|!=|<|<=|>|>=) add
            | add [NOT] LIKE string
            | add [NOT] IN '(' literal (',' literal)* ')'
            | add [NOT] BETWEEN add AND add
            | add IS [NOT] NULL
            | '(' expr ')'
    add    := mul (('+'|'-'|'||') mul)*
    mul    := prim (('*'|'/'|'%') prim)*
    prim   := number | 'string' | identifier | '(' add ')'
            | NAME '(' [expr (',' expr)*] ')'      -- scalar functions

Scalar functions (see ``_FUNCS``): the numeric/string set (ABS CEIL FLOOR
SQRT EXP LN LOG10 trig ATAN2 POWER ROUND UPPER LOWER LENGTH TRIM SUBSTR
CONCAT COALESCE, DuckDB/OGR semantics) and geometry measures over WKB
columns (ST_AREA ST_PERIMETER ST_CENTROID_X/Y ST_CONVEXHULL_AREA
ST_HULL_NPOINTS ST_BUFFER_AREA — the SQLite-dialect ST_* /
OGR_GEOM_AREA special-field surface, ogr/ogr_gensql.cpp, backed by
georay.measures kernels).

Usage::

    f = compile_filter("l_quantity > 10 AND l_returnflag IN ('A','R')")
    ds = ds.map_batches(lambda b: b.filter(f(b)), batch_format="pyarrow")

or `attribute_filter(ds, "...")` which does exactly that.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["compile_filter", "attribute_filter", "FilterSyntaxError"]


class FilterSyntaxError(ValueError):
    pass


_TOKEN_RE = re.compile(r"""
    \s*(?:
      (?P<num>\d+\.\d*|\.\d+|\d+)
    | (?P<str>'(?:[^']|'')*')
    | (?P<op><=|>=|<>|!=|\|\||=|<|>|\+|-|\*|/|%|\(|\)|,)
    | (?P<word>[A-Za-z_][A-Za-z_0-9]*(?:\.[A-Za-z_][A-Za-z_0-9]*)?)
    )""", re.X)

_KEYWORDS = {"AND", "OR", "NOT", "IN", "LIKE", "ILIKE", "BETWEEN", "IS",
             "NULL", "TRUE", "FALSE"}


def _tokenize(src: str):
    pos, out = 0, []
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m or m.end() == pos:
            if src[pos:].strip():
                raise FilterSyntaxError(f"bad token at: {src[pos:pos+20]!r}")
            break
        if m.group("num"):
            t = m.group("num")
            out.append(("num", float(t) if "." in t else int(t)))
        elif m.group("str"):
            out.append(("str", m.group("str")[1:-1].replace("''", "'")))
        elif m.group("op"):
            out.append(("op", m.group("op")))
        else:
            w = m.group("word")
            out.append(("kw", w.upper()) if w.upper() in _KEYWORDS
                       else ("ident", w))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, kind, val=None):
        k, v = self.next()
        if k != kind or (val is not None and v != val):
            raise FilterSyntaxError(f"expected {val or kind}, got {v!r}")
        return v

    # --- grammar ---
    def parse(self):
        node = self.or_()
        if self.peek() != (None, None):
            raise FilterSyntaxError(f"trailing tokens: {self.peek()!r}")
        return node

    def or_(self):
        node = self.and_()
        while self.peek() == ("kw", "OR"):
            self.next()
            node = ("or", node, self.and_())
        return node

    def and_(self):
        node = self.not_()
        while self.peek() == ("kw", "AND"):
            self.next()
            node = ("and", node, self.not_())
        return node

    def not_(self):
        if self.peek() == ("kw", "NOT"):
            self.next()
            return ("not", self.not_())
        return self.cmp()

    def cmp(self):
        left = self.add()
        k, v = self.peek()
        negate = False
        if (k, v) == ("kw", "NOT"):
            self.next()
            negate = True
            k, v = self.peek()
        if k == "op" and v in ("=", "<>", "!=", "<", "<=", ">", ">="):
            self.next()
            node = ("cmp", v, left, self.add())
        elif (k, v) in (("kw", "LIKE"), ("kw", "ILIKE")):
            self.next()
            kk, pat = self.next()
            if kk != "str":
                raise FilterSyntaxError(f"{v} needs a string pattern")
            node = ("like" if v == "LIKE" else "ilike", left, pat)
        elif (k, v) == ("kw", "IN"):
            self.next()
            self.expect("op", "(")
            if self.peek()[0] == "vset":
                # pre-resolved IN-subquery value set (georay.sql splices
                # these in): broadcast membership test, no shuffle
                _, arr = self.next()
                self.expect("op", ")")
                node = ("inset", left, arr)
            else:
                vals = [self._literal()]
                while self.peek() == ("op", ","):
                    self.next()
                    vals.append(self._literal())
                self.expect("op", ")")
                node = ("in", left, vals)
        elif (k, v) == ("kw", "BETWEEN"):
            self.next()
            lo = self.add()
            self.expect("kw", "AND")
            hi = self.add()
            node = ("between", left, lo, hi)
        elif (k, v) == ("kw", "IS"):
            self.next()
            if self.peek() == ("kw", "NOT"):
                self.next()
                negate = not negate
            self.expect("kw", "NULL")
            node = ("isnull", left)
        else:
            if negate:
                raise FilterSyntaxError("dangling NOT")
            return left
        return ("not", node) if negate else node

    def _literal(self):
        k, v = self.next()
        if k not in ("num", "str"):
            raise FilterSyntaxError(f"expected literal, got {v!r}")
        return v

    def _case_kw(self, *names) -> str | None:
        k, v = self.peek()
        if k in ("ident", "kw", "sqlkw") and str(v).upper() in names:
            self.next()
            return str(v).upper()
        return None

    def _case(self):
        """CASE [base] WHEN x THEN y ... [ELSE z] END — both the searched
        and the simple form; a simple-form base compiles each WHEN to an
        equality against the base expression."""
        k, v = self.peek()
        at_when = k in ("ident", "kw", "sqlkw") and str(v).upper() == "WHEN"
        base = None if at_when else self.or_()
        whens = []
        while self._case_kw("WHEN"):
            cond = self.or_()
            if not self._case_kw("THEN"):
                raise FilterSyntaxError("CASE: WHEN needs THEN")
            val = self.or_()
            if base is not None:
                cond = ("cmp", "=", base, cond)
            whens.append((cond, val))
        if not whens:
            raise FilterSyntaxError("CASE needs at least one WHEN")
        els = None
        if self._case_kw("ELSE"):
            els = self.or_()
        if not self._case_kw("END"):
            raise FilterSyntaxError("CASE: missing END")
        return ("case", whens, els)

    def add(self):
        node = self.mul()
        while self.peek()[0] == "op" and self.peek()[1] in ("+", "-",
                                                            "||"):
            _, op = self.next()
            node = ("arith", op, node, self.mul())
        return node

    def mul(self):
        node = self.prim()
        while self.peek()[0] == "op" and self.peek()[1] in ("*", "/", "%"):
            _, op = self.next()
            node = ("arith", op, node, self.prim())
        return node

    def prim(self):
        k, v = self.next()
        if k == "num" or k == "str":
            return ("lit", v)
        if k == "kw" and v in ("TRUE", "FALSE"):
            return ("lit", v == "TRUE")
        if k == "kw" and v == "NULL":
            return ("lit", None)
        if k == "ident":
            if v.upper() in ("DATE", "TIMESTAMP") \
                    and self.peek()[0] == "str":
                # DATE '1995-01-01' / TIMESTAMP '1995-01-01 12:00:00'
                # typed literals → timestamp[us] scalar (comparisons
                # against timestamp columns cast exactly, as in DuckDB)
                _, s = self.next()
                try:
                    ts = np.datetime64(s, "us")
                except ValueError:
                    raise FilterSyntaxError(
                        f"bad {v.upper()} literal {s!r}")
                return ("lit", ts)
            if v.upper() == "CASE":
                return self._case()
            if v.upper() == "EXTRACT" and self.peek() == ("op", "("):
                # EXTRACT(part FROM ts) → the matching date function
                self.next()
                kk, part = self.next()
                part = str(part).upper()
                part = {"DOW": "DAYOFWEEK"}.get(part, part)
                if part not in ("YEAR", "MONTH", "DAY", "HOUR",
                                "MINUTE", "SECOND", "DAYOFWEEK"):
                    raise FilterSyntaxError(
                        f"EXTRACT: unsupported part {part!r}")
                kk, vv = self.next()
                if str(vv).upper() != "FROM":
                    raise FilterSyntaxError("EXTRACT needs FROM")
                inner = self.or_()
                self.expect("op", ")")
                return ("func", part, [inner])
            if v.upper() == "CAST" and self.peek() == ("op", "("):
                self.next()
                inner = self.or_()
                kk, vv = self.next()
                if not (isinstance(vv, str) and vv.upper() == "AS"):
                    raise FilterSyntaxError("CAST needs 'AS type'")
                kk, tname = self.next()
                if kk not in ("ident", "kw", "sqlkw"):
                    raise FilterSyntaxError("CAST: bad type name")
                tname = tname.upper()
                if tname not in _CAST_TYPES:
                    raise FilterSyntaxError(f"CAST: unknown type {tname!r}")
                self.expect("op", ")")
                return ("cast", tname, inner)
            if self.peek() == ("op", "("):          # scalar function call
                self.next()
                args = []
                if self.peek() != ("op", ")"):
                    args.append(self.or_())
                    while self.peek() == ("op", ","):
                        self.next()
                        args.append(self.or_())
                self.expect("op", ")")
                name = v.upper()
                if name not in _FUNCS:
                    raise FilterSyntaxError(f"unknown function {v!r}")
                return ("func", name, args)
            return ("col", v)
        if k == "vmap":
            # pre-resolved correlated scalar subquery (georay.sql
            # splices these in): broadcast (key → value) lookup
            return ("vmap",) + v
        if (k, v) == ("op", "("):
            node = self.or_()
            self.expect("op", ")")
            return node
        if (k, v) == ("op", "-"):
            inner = self.prim()
            return ("arith", "*", ("lit", -1), inner)
        raise FilterSyntaxError(f"unexpected token {v!r}")


_CMP = {"=": pc.equal, "<>": pc.not_equal, "!=": pc.not_equal,
        "<": pc.less, "<=": pc.less_equal, ">": pc.greater,
        ">=": pc.greater_equal}
def _is_int(v) -> bool:
    t = getattr(v, "type", None)
    return t is not None and pa.types.is_integer(t)


def _sql_divide(a, b):
    """SQL ``/``: DuckDB/OGR return a double even for int/int — cast both
    operands to float64 (int `pc.divide` would truncate)."""
    return pc.divide(pc.cast(a, pa.float64()), pc.cast(b, pa.float64()))


def _sql_modulo(a, b):
    """Truncated modulo (sign follows the dividend) — OGR SQL / DuckDB
    semantics; floored modulo would diverge for negative operands."""
    if _is_int(a) and _is_int(b):
        # Arrow integer divide truncates toward zero already
        return pc.subtract(a, pc.multiply(pc.divide(a, b), b))
    af = pc.cast(a, pa.float64())
    bf = pc.cast(b, pa.float64())
    return pc.subtract(af, pc.multiply(pc.trunc(pc.divide(af, bf)), bf))


def _sql_concat(a, b):
    """SQL ``||``: string concatenation, NULL-propagating (NULL || x is
    NULL); non-string operands cast to string first (DuckDB's implicit
    VARCHAR cast)."""
    def s(v):
        t = getattr(v, "type", None)
        if t is None or pa.types.is_string(t) or pa.types.is_large_string(t):
            return v
        return pc.cast(v, pa.string())
    return pc.binary_join_element_wise(s(a), s(b), "")


_ARITH = {"+": pc.add, "-": pc.subtract, "*": pc.multiply,
          "/": _sql_divide, "%": _sql_modulo, "||": _sql_concat}


# ------------------------------------------------------------ functions
#
# Scalar function surface: the OGR SQL built-ins (CONCAT/SUBSTR/UPPER/
# LOWER — ogr/swq_op_general.cpp) + the numeric set every SQL dialect
# shares, all vectorized pyarrow.compute; plus the geometry measures the
# SQLite dialect exposes as ST_Area()/ST_Perimeter() and OGR SQL as the
# OGR_GEOM_AREA special field (ogr/ogr_gensql.cpp) — here taking an
# explicit WKB column and returning scalars via georay.measures kernels
# (centroid/hull decomposed into scalar-valued functions; null WKB rows
# yield 0 area / NaN centroid, matching measures_batch).
# ROUND matches DuckDB/OGR half-away-from-zero (not banker's).

def _n_args(name, args, lo, hi=None):
    hi = lo if hi is None else hi
    if not (lo <= len(args) <= hi):
        raise FilterSyntaxError(f"{name} takes {lo}"
                                + (f"-{hi}" if hi != lo else "")
                                + f" arguments, got {len(args)}")


def _lit_int(node, what):
    if node[0] != "lit" or isinstance(node[1], str) or node[1] is None:
        raise FilterSyntaxError(f"{what} must be an integer literal")
    return int(node[1])


def _fn_round(args, batch):
    _n_args("ROUND", args, 1, 2)
    nd = _lit_int(args[1], "ROUND ndigits") if len(args) == 2 else 0
    return pc.round(_eval(args[0], batch), ndigits=nd,
                    round_mode="half_towards_infinity")


def _fn_substr(args, batch):
    _n_args("SUBSTR", args, 2, 3)
    start = _lit_int(args[1], "SUBSTR start") - 1      # SQL is 1-based
    stop = (start + _lit_int(args[2], "SUBSTR length")
            if len(args) == 3 else None)
    return pc.utf8_slice_codeunits(_eval(args[0], batch), start, stop)


def _lit_str(node, what):
    if node[0] != "lit" or not isinstance(node[1], str):
        raise FilterSyntaxError(f"{what} needs a string literal")
    return node[1]


def _fn_replace(args, batch):
    _n_args("REPLACE", args, 3, 3)
    return pc.replace_substring(_eval(args[0], batch),
                                pattern=_lit_str(args[1], "REPLACE from"),
                                replacement=_lit_str(args[2],
                                                     "REPLACE to"))


def _fn_regexp_replace(args, batch):
    _n_args("REGEXP_REPLACE", args, 3, 3)
    return pc.replace_substring_regex(
        _eval(args[0], batch),
        pattern=_lit_str(args[1], "REGEXP_REPLACE pattern"),
        replacement=_lit_str(args[2], "REGEXP_REPLACE replacement"))


def _fn_regexp_matches(args, batch):
    _n_args("REGEXP_MATCHES", args, 2, 2)
    return pc.match_substring_regex(
        _eval(args[0], batch),
        pattern=_lit_str(args[1], "REGEXP_MATCHES pattern"))


def _fn_contains(args, batch):
    _n_args("CONTAINS", args, 2, 2)
    return pc.match_substring(_eval(args[0], batch),
                              pattern=_lit_str(args[1], "CONTAINS"))


def _fn_strpos(args, batch):
    """STRPOS/INSTR: 1-based position of the first match, 0 if absent
    (DuckDB semantics; find_substring's -1 maps to 0 via the +1)."""
    _n_args("STRPOS", args, 2, 2)
    pos = pc.find_substring(_eval(args[0], batch),
                            pattern=_lit_str(args[1], "STRPOS"))
    return pc.add(pos, 1)


def _fn_left(args, batch):
    _n_args("LEFT", args, 2, 2)
    n = _lit_int(args[1], "LEFT length")
    return pc.utf8_slice_codeunits(_eval(args[0], batch), 0, max(n, 0))


def _fn_right(args, batch):
    """RIGHT(s, n): last n characters ('' for n <= 0)."""
    _n_args("RIGHT", args, 2, 2)
    n = _lit_int(args[1], "RIGHT length")
    if n <= 0:
        s = _eval(args[0], batch)
        return pc.utf8_slice_codeunits(s, 0, 0)
    return pc.utf8_slice_codeunits(_eval(args[0], batch), -n)


def _fn_pad(side):
    def call(args, batch):
        _n_args("LPAD/RPAD", args, 2, 3)
        width = _lit_int(args[1], "pad width")
        padding = _lit_str(args[2], "pad fill") if len(args) == 3 else " "
        fn = pc.utf8_lpad if side == "l" else pc.utf8_rpad
        # SQL LPAD also TRUNCATES to width when the string is longer
        return pc.utf8_slice_codeunits(
            fn(_eval(args[0], batch), width=width, padding=padding),
            0, width)
    return call


def _fn_repeat(args, batch):
    _n_args("REPEAT", args, 2, 2)
    return pc.binary_repeat(_eval(args[0], batch),
                            _lit_int(args[1], "REPEAT count"))


def _fn_split_part(args, batch):
    """SPLIT_PART(s, delim, n): 1-based field, '' when out of range
    (DuckDB).  Vectorized: one split, then a guarded take over the
    flattened values."""
    import numpy as np
    _n_args("SPLIT_PART", args, 3, 3)
    s = _eval(args[0], batch)
    delim = _lit_str(args[1], "SPLIT_PART delimiter")
    n = _lit_int(args[2], "SPLIT_PART field")
    lists = pc.split_pattern(s, pattern=delim)
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
    lens = np.where(np.isnan(lens.astype(np.float64)), 0,
                    lens).astype(np.int64)
    offs = np.concatenate([[0], np.cumsum(lens)])[:-1]
    idx = offs + (n - 1)
    ok = (n >= 1) & (n <= lens)
    flat = lists.flatten()
    take = pa.array(np.where(ok, idx, 0), pa.int64())
    vals = flat.take(take) if len(flat) else pa.array(
        [""] * len(lens), pa.string())
    return pc.if_else(pa.array(ok), vals, pa.scalar("", pa.string()))


def _fn_date_trunc(args, batch):
    """DATE_TRUNC('unit', ts) — DuckDB-compatible floor to unit."""
    _n_args("DATE_TRUNC", args, 2, 2)
    if args[0][0] != "lit" or not isinstance(args[0][1], str):
        raise FilterSyntaxError("DATE_TRUNC needs a literal unit")
    unit = args[0][1].lower()
    if unit not in ("second", "minute", "hour", "day", "month", "year"):
        raise FilterSyntaxError(f"DATE_TRUNC: unsupported unit {unit!r}")
    return pc.floor_temporal(_eval(args[1], batch), unit=unit)


def _fn_strftime(args, batch):
    """STRFTIME(ts, fmt) — DuckDB argument order."""
    _n_args("STRFTIME", args, 2, 2)
    if args[1][0] != "lit" or not isinstance(args[1][1], str):
        raise FilterSyntaxError("STRFTIME needs a literal format")
    return pc.strftime(_eval(args[0], batch), format=args[1][1])


def _fn_json_extract_string(args, batch):
    """JSON_EXTRACT_STRING(col, '$.key') — DuckDB-compatible flat-key
    extraction, vectorized as one ``extract_regex`` kernel (quoted
    strings unwrapped, missing keys → NULL).  Nested paths are out of
    scope — the LLM-metadata shape this serves is flat props objects."""
    import re as _re

    _n_args("JSON_EXTRACT_STRING", args, 2, 2)
    if args[1][0] != "lit" or not isinstance(args[1][1], str) \
            or not args[1][1].startswith("$."):
        raise FilterSyntaxError(
            "JSON_EXTRACT_STRING needs a literal '$.key' path")
    key = args[1][1][2:]
    if not _re.fullmatch(r"[A-Za-z0-9_]+", key):
        raise FilterSyntaxError("only flat '$.key' paths supported")
    v = _eval(args[0], batch)
    pat = (rf'"{key}"\s*:\s*(?P<v>"(?:[^"\\]|\\.)*"|[^,}}\s]+)')
    got = pc.struct_field(pc.extract_regex(v, pattern=pat), "v")
    # unwrap quoted values (backslash escapes inside strings are left
    # as-is — flat numeric/plain-string props only)
    return pc.replace_substring_regex(got, pattern=r'^"|"$',
                                      replacement="")


def _fn_nullif(args, batch):
    """NULLIF(a, b): NULL where a = b, else a (a NULL a propagates —
    the equality is then NULL and if_else yields NULL)."""
    _n_args("NULLIF", args, 2, 2)
    a = _eval(args[0], batch)
    b = _eval(args[1], batch)
    return pc.if_else(pc.equal(a, b),
                      pa.scalar(None, getattr(a, "type", pa.null())), a)


def _fn_coalesce(args, batch):
    """COALESCE: untyped NULL literal args are dropped up front (a NULL
    arg is never selected, so this is semantics-preserving; pc.coalesce
    rejects bare python None)."""
    _n_args("COALESCE", args, 1, 64)
    vals = [_eval(a, batch) for a in args]
    typed = [v for v in vals
             if v is not None and not (isinstance(v, pa.Scalar)
                                       and pa.types.is_null(v.type))]
    if not typed:
        return pa.scalar(None, pa.null())
    return pc.coalesce(*typed) if len(typed) > 1 else typed[0]


def _fn_concat(args, batch):
    _n_args("CONCAT", args, 1, 64)
    vals = [_eval(a, batch) for a in args]
    return pc.binary_join_element_wise(
        *vals, "", null_handling="replace", null_replacement="")


def _elementwise(fn, nargs=1):
    def call(args, batch, _fn=fn, _n=nargs):
        _n_args("function", args, _n)
        return _fn(*[_eval(a, batch) for a in args])
    return call


def _wkb_packed(arg, batch):
    col = _eval(arg, batch)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    from .measures import pack_rings
    return pack_rings(col.to_pylist())


def _geom_fn(which):
    def call(args, batch):
        from . import measures as m
        if which == "buffer_area":
            _n_args("ST_BUFFER_AREA", args, 2)
            d = args[1]
            if d[0] != "lit" or isinstance(d[1], str):
                raise FilterSyntaxError("ST_BUFFER_AREA distance must be a "
                                        "numeric literal")
            return pa.array(m.buffer_areas(_wkb_packed(args[0], batch),
                                           float(d[1])))
        _n_args(f"ST_{which.upper()}", args, 1)
        if which in ("length_any", "area_any", "geodesic_length",
                     "geodesic_area"):
            col = _eval(args[0], batch)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            if which == "length_any":
                return pa.array(m.lengths_any_wkb(col.to_pylist()))
            if which == "area_any":
                return pa.array(m.areas_any_wkb(col.to_pylist()))
            from . import geodesic as gd
            fn = (gd.geodesic_lengths_wkb if which == "geodesic_length"
                  else gd.geodesic_areas_wkb)
            return pa.array(fn(col.to_pylist()))
        p = _wkb_packed(args[0], batch)
        if which == "area":
            return pa.array(m.feature_areas(p))
        if which == "perimeter":
            return pa.array(m.feature_lengths(p))
        if which == "centroid_x":
            return pa.array(m.feature_centroids(p)[0])
        if which == "centroid_y":
            return pa.array(m.feature_centroids(p)[1])
        if which == "convexhull_area":
            return pa.array(m.hull_areas_npoints(p)[0])
        if which == "npoints":
            return pa.array(m.hull_areas_npoints(p)[1])
        raise FilterSyntaxError(which)
    return call


def _np_col(arg, batch):
    v = _eval(arg, batch)
    if isinstance(v, pa.ChunkedArray):
        v = v.combine_chunks()
    if isinstance(v, pa.Scalar):
        return np.full(batch.num_rows, v.as_py(), np.float64)
    if isinstance(v, pa.Array):
        return v.to_numpy(zero_copy_only=False).astype(np.float64)
    return np.full(batch.num_rows, float(v), np.float64)


def _fn_st_contains_xy(args, batch):
    """ST_CONTAINS_XY(wkb, x, y) → exact even-odd point-in-polygon per
    row (the vectorized PackedPolygons pair kernel)."""
    _n_args("ST_CONTAINS_XY", args, 3)
    from .geom import PackedPolygons
    col = _eval(args[0], batch)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    wkbs = col.to_pylist()
    px = _np_col(args[1], batch)
    py = _np_col(args[2], batch)
    valid = [i for i, w in enumerate(wkbs) if w is not None]
    mask = np.zeros(len(wkbs), bool)
    if valid:
        polys = PackedPolygons.from_wkb([wkbs[i] for i in valid])
        vi = np.asarray(valid, np.int64)
        sub = np.arange(len(valid), dtype=np.int64)
        mask[vi] = polys.contains_pairs(px[vi], py[vi], sub, sub)
    return pa.array(mask)


def _fn_st_intersects_bbox(args, batch):
    """ST_INTERSECTS_BBOX(wkb, xmin, ymin, xmax, ymax) → envelope
    intersection test (OGR FilterGeometry's bbox fast path)."""
    _n_args("ST_INTERSECTS_BBOX", args, 5)
    from .geom import wkb_envelope
    col = _eval(args[0], batch)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    x0 = _np_col(args[1], batch)
    y0 = _np_col(args[2], batch)
    x1 = _np_col(args[3], batch)
    y1 = _np_col(args[4], batch)
    out = np.zeros(batch.num_rows, bool)
    for i, w in enumerate(col.to_pylist()):
        if w is None:
            continue
        ex0, ey0, ex1, ey1 = wkb_envelope(w)
        out[i] = (ex0 <= x1[i] and ex1 >= x0[i]
                  and ey0 <= y1[i] and ey1 >= y0[i])
    return pa.array(out)


_CAST_TYPES = {
    "BIGINT": pa.int64(), "INTEGER": pa.int32(), "INT": pa.int32(),
    "SMALLINT": pa.int16(),
    "DOUBLE": pa.float64(), "FLOAT8": pa.float64(),
    "REAL": pa.float32(), "FLOAT": pa.float32(),
    "VARCHAR": pa.string(), "TEXT": pa.string(), "STRING": pa.string(),
    "BOOLEAN": pa.bool_(), "BOOL": pa.bool_(),
    "DATE": pa.timestamp("us"),   # truncated in _eval
    "TIMESTAMP": pa.timestamp("us"),
}

_FUNCS = {
    "ABS": _elementwise(pc.abs),
    "CEIL": _elementwise(pc.ceil), "CEILING": _elementwise(pc.ceil),
    "FLOOR": _elementwise(pc.floor),
    "SQRT": _elementwise(pc.sqrt),
    "EXP": _elementwise(pc.exp),
    "LN": _elementwise(pc.ln),
    "LOG10": _elementwise(pc.log10),
    "SIN": _elementwise(pc.sin), "COS": _elementwise(pc.cos),
    "TAN": _elementwise(pc.tan),
    "ASIN": _elementwise(pc.asin), "ACOS": _elementwise(pc.acos),
    "ATAN": _elementwise(pc.atan),
    "ATAN2": _elementwise(pc.atan2, 2),
    "POWER": _elementwise(pc.power, 2), "POW": _elementwise(pc.power, 2),
    "ROUND": _fn_round,
    "UPPER": _elementwise(pc.utf8_upper),
    "LOWER": _elementwise(pc.utf8_lower),
    "LENGTH": _elementwise(pc.utf8_length),
    "TRIM": _elementwise(pc.utf8_trim_whitespace),
    "LTRIM": _elementwise(pc.utf8_ltrim_whitespace),
    "RTRIM": _elementwise(pc.utf8_rtrim_whitespace),
    "REVERSE": _elementwise(pc.utf8_reverse),
    "SIGN": _elementwise(pc.sign),
    "GREATEST": _elementwise(pc.max_element_wise, 2),
    "LEAST": _elementwise(pc.min_element_wise, 2),
    "REPLACE": _fn_replace,
    "REGEXP_REPLACE": _fn_regexp_replace,
    "REGEXP_MATCHES": _fn_regexp_matches,
    "CONTAINS": _fn_contains,
    "STRPOS": _fn_strpos, "INSTR": _fn_strpos,
    "STARTS_WITH": lambda args, batch: (
        _n_args("STARTS_WITH", args, 2, 2),
        pc.starts_with(_eval(args[0], batch),
                       pattern=_lit_str(args[1], "STARTS_WITH")))[1],
    "ENDS_WITH": lambda args, batch: (
        _n_args("ENDS_WITH", args, 2, 2),
        pc.ends_with(_eval(args[0], batch),
                     pattern=_lit_str(args[1], "ENDS_WITH")))[1],
    "LEFT": _fn_left, "RIGHT": _fn_right,
    "LPAD": _fn_pad("l"), "RPAD": _fn_pad("r"),
    "REPEAT": _fn_repeat,
    "SPLIT_PART": _fn_split_part,
    "SUBSTR": _fn_substr, "SUBSTRING": _fn_substr,
    "CONCAT": _fn_concat,
    "COALESCE": lambda args, batch: _fn_coalesce(args, batch),
    "NULLIF": _fn_nullif,
    "YEAR": _elementwise(pc.year),
    "MONTH": _elementwise(pc.month),
    "DAY": _elementwise(pc.day),
    "HOUR": _elementwise(pc.hour),
    "MINUTE": _elementwise(pc.minute),
    "SECOND": _elementwise(pc.second),
    # DuckDB DOW convention: Sunday = 0
    "DAYOFWEEK": _elementwise(lambda x: pc.day_of_week(
        x, count_from_zero=True, week_start=7)),
    "DATE_TRUNC": _fn_date_trunc,
    "STRFTIME": _fn_strftime,
    "JSON_EXTRACT_STRING": _fn_json_extract_string,
    # ST_AREA dispatches across linear AND curve families (GDAL's
    # OGR_G_Area == get_Area on any geometry, arc-exact for curves)
    "ST_AREA": _geom_fn("area_any"),
    "ST_PERIMETER": _geom_fn("perimeter"),
    "ST_LENGTH": _geom_fn("length_any"),
    "ST_CENTROID_X": _geom_fn("centroid_x"),
    "ST_CENTROID_Y": _geom_fn("centroid_y"),
    "ST_CONVEXHULL_AREA": _geom_fn("convexhull_area"),
    "ST_HULL_NPOINTS": _geom_fn("npoints"),
    "ST_BUFFER_AREA": _geom_fn("buffer_area"),
    # ellipsoidal measures (OGR_G_GeodesicLength/Area, ogr/ogr_api.cpp:1666)
    "ST_GEODESIC_LENGTH": _geom_fn("geodesic_length"),
    "ST_GEODESIC_AREA": _geom_fn("geodesic_area"),
    # spatial predicates (the SQLite-dialect ST_Contains/Intersects
    # surface, ogr/ogrsf_frmts/sqlite/ogrsqlitesqlfunctions.cpp)
    "ST_CONTAINS_XY": _fn_st_contains_xy,
    "ST_INTERSECTS_BBOX": _fn_st_intersects_bbox,
}


def _like_to_regex(pat: str) -> str:
    out = []
    for ch in pat:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return "^" + "".join(out) + "$"


def _eval(node, batch: pa.Table):
    kind = node[0]
    if kind == "lit":
        return pa.scalar(node[1])
    if kind == "col":
        return batch[node[1]]
    if kind == "arith":
        return _ARITH[node[1]](_eval(node[2], batch), _eval(node[3], batch))
    if kind == "func":
        return _FUNCS[node[1]](node[2], batch)
    if kind == "cast":
        v = _eval(node[2], batch)
        if node[1] == "DATE":
            # CAST(ts AS DATE): truncate to day but STAY timestamp[us]
            # — DuckDB's pandas output maps DATE to datetime64 midnight,
            # so a date32 here would break oracle value parity
            return pc.floor_temporal(pc.cast(v, pa.timestamp("us")),
                                     unit="day")
        target = _CAST_TYPES[node[1]]
        vt = getattr(v, "type", None)
        if (pa.types.is_integer(target) and vt is not None
                and pa.types.is_floating(vt)):
            # SQL CAST(float AS int) rounds to nearest, ties away from
            # zero (DuckDB/OGR); Arrow cast would truncate
            v = pc.round(v, ndigits=0, round_mode="half_towards_infinity")
        return pc.cast(v, target)
    if kind == "cmp":
        return _CMP[node[1]](_eval(node[2], batch), _eval(node[3], batch))
    if kind == "and":
        return pc.and_kleene(_eval(node[1], batch), _eval(node[2], batch))
    if kind == "or":
        return pc.or_kleene(_eval(node[1], batch), _eval(node[2], batch))
    if kind == "not":
        return pc.invert(_eval(node[1], batch))
    if kind == "like":
        return pc.match_substring_regex(_eval(node[1], batch),
                                        _like_to_regex(node[2]))
    if kind == "ilike":
        # OGR SWQ_ILIKE / DuckDB ILIKE: case-insensitive pattern match
        return pc.match_substring_regex(_eval(node[1], batch),
                                        _like_to_regex(node[2]),
                                        ignore_case=True)
    if kind == "in":
        v = _eval(node[1], batch)
        hit = pc.is_in(v, value_set=pa.array(node[2]))
        # SQL: NULL IN (...) is NULL (is_in would say false) — re-null it
        return pc.if_else(pc.is_null(v), pa.scalar(None, pa.bool_()), hit)
    if kind == "inset":
        v = _eval(node[1], batch)
        if len(node[2]) == 0:
            # empty IN-subquery: x IN () is FALSE for every x (even
            # NULL — no comparison is ever made), NOT IN () is TRUE
            return pa.array(np.zeros(len(batch), dtype=bool))
        hit = pc.is_in(v, value_set=node[2])
        return pc.if_else(pc.is_null(v), pa.scalar(None, pa.bool_()), hit)
    if kind == "between":
        v = _eval(node[1], batch)
        return pc.and_(pc.greater_equal(v, _eval(node[2], batch)),
                       pc.less_equal(v, _eval(node[3], batch)))
    if kind == "isnull":
        return pc.is_null(_eval(node[1], batch))
    if kind == "case":
        # vectorized CASE: all branch values are evaluated eagerly (no
        # SQL short-circuit — fine for pure arrow kernels), then folded
        # right-to-left through if_else; a NULL condition falls through
        # (SQL: not matched), hence the coalesce to FALSE.
        _, whens, els = node
        vals = [_eval(v, batch) for _, v in whens]
        out = _eval(els, batch) if els is not None else pa.scalar(
            None, getattr(vals[0], "type", pa.null()))
        for (cond_node, _), val in zip(reversed(whens), reversed(vals)):
            cond = pc.coalesce(_eval(cond_node, batch),
                               pa.scalar(False))
            out = pc.if_else(cond, val, out)
        return out
    if kind == "vmap":
        # correlated scalar subquery, decorrelated to a broadcast map:
        # node = ("vmap", outer_col, keys, vals, default).  index_in
        # yields null indices for misses; take propagates them → SQL's
        # NULL for an empty correlated subquery (except COUNT → default 0)
        _, outer_col, keys, vals, default = node
        if len(vals) == 0:
            # empty subquery result (possibly schema-less): every
            # lookup misses — default for COUNT, NULL otherwise
            if default is not None:
                return pa.array([default] * len(batch))
            return pa.nulls(len(batch))
        if isinstance(outer_col, tuple):
            # multi-key correlation (TPC-H Q20): arrow's index_in has
            # no struct kernel, so compose per-column DICTIONARY CODES
            # into one exact int64 key — code_j = index_in(col, uniques_j),
            # composite = Σ code_j·stride_j.  A null/missing component
            # propagates null → composite miss → default (SQL: a NULL
            # correlation never matches)
            comp_k = comp_p = None
            stride = 1
            for name, karr in zip(outer_col, keys):
                d = karr.unique()
                kc = pc.index_in(karr, value_set=d).cast(pa.int64())
                pcd = pc.index_in(batch[name],
                                  value_set=d).cast(pa.int64())
                card = len(d) + 1
                if stride * card > (1 << 62):
                    raise FilterSyntaxError(
                        "composite correlation key space too large")
                stride *= card
                if comp_k is None:
                    comp_k, comp_p = kc, pcd
                else:
                    s = pa.scalar(card, pa.int64())
                    comp_k = pc.add(pc.multiply(comp_k, s), kc)
                    comp_p = pc.add(pc.multiply(comp_p, s), pcd)
            idxs = pc.index_in(comp_p, value_set=comp_k)
        else:
            idxs = pc.index_in(batch[outer_col], value_set=keys)
        got = pc.take(vals, idxs)
        if default is not None:
            got = pc.fill_null(got, default)
        return got
    raise FilterSyntaxError(f"unknown node {kind}")


def compile_filter(src: str):
    """Parse an OGR-SQL-style WHERE clause → ``f(batch) -> BooleanArray``."""
    ast = _Parser(_tokenize(src)).parse()

    def evaluator(batch: pa.Table):
        mask = _eval(ast, batch)
        # NULL comparison results drop the row (SQL semantics)
        return pc.fill_null(mask, False)

    return evaluator


def attribute_filter(ds, where: str, batch_size: int | None = None):
    """``ds.filter`` with a compiled vectorized WHERE clause — the layer
    contract's SetAttributeFilter as a ``map_batches`` stage."""
    f = compile_filter(where)
    kwargs = dict(batch_format="pyarrow")
    if batch_size:
        kwargs["batch_size"] = batch_size
    return ds.map_batches(lambda b: b.filter(f(b)), **kwargs)
