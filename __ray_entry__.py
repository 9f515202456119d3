"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash →
CORRECTNESS_r{N}.json).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (nor anything in ``georay``) calls ``ray.init()`` / ``ray.shutdown()``.

Implementation lives in :mod:`georay.queries`; see SURVEY.md §2 for the
operator inventory each entry covers.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: derived customer points
    → broadcast R-tree point-in-polygon join against nation zones → zonal
    aggregate (the spatial-join headline of BASELINE.json)."""
    from georay.queries import q_zone_join_agg
    return q_zone_join_agg("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2."""
    from georay.queries import QUERIES
    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    """DuckDB-equivalent SQL for every SQL-expressible query (incl. a
    recursive-CTE Hilbert key, axial hex cube-round, overlay areas via
    rect decomposition; SQL-text queries run their own text).  Queries
    without one (image pipelines, cell grids with no SQL analog) get the
    driver's rows-only check."""
    from georay.queries import ORACLE_SQL
    return dict(ORACLE_SQL)
