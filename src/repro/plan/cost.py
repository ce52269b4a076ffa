"""Cost model for COMPARE sub-plans (paper §4.2, Algorithm 1).

The paper uses SQL Server's optimizer cost model over database
statistics (row counts, distinct-value estimates) that the engine keeps
in its catalog. We reproduce the ingredients Algorithm 1 actually
consumes: per-column distinct counts, row counts, optional functional
dependencies (``week`` is determined by ``day``) standing in for the
histogram-derived correlation the paper's engine sees, and
linear/shuffle cost terms for group-by, partition and re-aggregate
operators.

The statistics are session catalog statistics (:meth:`TableStats.of_input`):
computed once per input plan and Spark session, a column at a time as
queries first need it, and read back without a Spark job afterwards.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.aggregates import MergeGroup, slice_filters
from repro.core.basic import input_view
from repro.core.pairs import local_frame
from repro.core.spec import CompareSpec, TrendsetSpec

# Relative operator weights: reading a row, writing/shuffling an
# aggregate row, and partitioning an aggregate row.
C_SCAN = 1.0
C_AGG_OUT = 2.0
C_PART = 1.0
C_REAGG = 1.0

#: suffix of the temp view holding an input view's statistics, one row per
#: column (its distinct count) plus the row count under a NULL column name
STATS_VIEW_SUFFIX = "__stats"
_STATS_SCHEMA = T.StructType(
    [T.StructField("col", T.StringType()), T.StructField("n", T.LongType())]
)


@dataclass
class TableStats:
    """Row count + per-column distinct counts (+ FD hints)."""

    n_rows: int
    distinct: dict[str, int]
    fds: dict[str, str] = field(default_factory=dict)  # determined -> determiner

    @classmethod
    def from_df(cls, df: DataFrame, cols: list[str], fds: dict[str, str] | None = None) -> "TableStats":
        aggs = [F.count(F.lit(1)).alias("__n")] + [
            F.approx_count_distinct(c).alias(c) for c in cols
        ]
        row = df.agg(*aggs).collect()[0]
        return cls(row["__n"], {c: row[c] for c in cols}, fds or {})

    @classmethod
    def of_input(cls, df: DataFrame, cols: list[str], fds: dict[str, str] | None = None) -> "TableStats":
        """:meth:`from_df`'s statistics of ``df``, kept in the session's catalog.

        They live in a local relation registered as the temp view
        ``<input view>__stats``, next to ``df``'s
        :func:`~repro.core.basic.input_view` (so inputs that differ only by
        aliases keep apart). A call scans ``df`` only for the columns that
        relation lacks and then registers the extended relation; reading it
        back runs no Spark job. ``fds`` are per-call hints and are not
        stored. Statistics steer only Algorithm 1's merge choice, never a
        result, so a stale entry can cost speed but not correctness.
        """
        spark = df.sparkSession
        view = input_view(df) + STATS_VIEW_SUFFIX
        known = dict(spark.table(view).collect()) if spark.catalog.tableExists(view) else {}
        missing = [c for c in cols if c not in known]
        if missing or not known:
            scanned = cls.from_df(df, missing)
            known.update(scanned.distinct)
            known[None] = scanned.n_rows
            local_frame(spark, list(known.items()), _STATS_SCHEMA).createOrReplaceTempView(view)
        return cls(known[None], {c: known[c] for c in cols}, fds or {})

    def joint_distinct(self, cols: tuple[str, ...]) -> int:
        """Estimated distinct combinations, honouring FD hints."""
        keep = [
            c for c in cols
            if not (c in self.fds and self.fds[c] in cols)
        ]
        est = 1
        for c in keep:
            est *= max(1, self.distinct.get(c, self.n_rows))
        return min(est, max(1, self.n_rows))


def _side_rows(ts: TrendsetSpec, stats: TableStats) -> float:
    """Rows surviving the fixed constraint (independence assumption)."""
    n = float(stats.n_rows)
    for t in ts.fixed:
        n /= max(1, stats.distinct.get(t.col, 1))
    return max(1.0, n)


def side_plan_cost(ts: TrendsetSpec, groups: list[MergeGroup], stats: TableStats) -> float:
    """Cost of producing one side's per-(g, m) aggregated relations."""
    n_in = _side_rows(ts, stats)
    trends = stats.joint_distinct(ts.vary_cols) if ts.vary_cols else 1
    total = 0.0
    for grp in groups:
        merged_keys = tuple(ts.vary_cols) + grp.groupings
        n_merged = min(n_in, float(trends) * stats.joint_distinct(grp.groupings))
        n_merged = min(n_merged, stats.joint_distinct(merged_keys) * 1.0 if ts.vary_cols else n_merged)
        total += C_SCAN * n_in + C_AGG_OUT * n_merged
        for g, _ in grp.gms:
            n_gm = min(n_in, float(trends) * stats.joint_distinct((g,)))
            if len(grp.groupings) > 1:
                total += C_REAGG * n_merged + C_AGG_OUT * n_gm
            total += C_PART * n_gm  # vertical + horizontal partitioning
    return total


def compare_plan_cost(spec: CompareSpec, groups: list[MergeGroup], stats: TableStats) -> float:
    """Cost of the full merged+partitioned COMPARE sub-plan.

    The trendwise join/scoring cost is identical across merge choices,
    so Algorithm 1 only needs the aggregate + partition terms.
    """
    cost = side_plan_cost(spec.t2, groups, stats)
    if not (spec.same_trendsets or slice_filters(spec) is not None):
        cost += side_plan_cost(spec.t1, groups, stats)
    return cost
