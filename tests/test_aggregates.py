"""Aggregation layer: merge groups, side sharing, slice derivation (§4.2),
calls that leave nothing persisted, and the split of a side's
grouping-sets aggregate into blocks."""
import datetime

import pytest
from pyspark.sql import functions as F

from repro.core import pruning
from repro.core.aggregates import (
    B_COL,
    G_COL,
    MergeGroup,
    build_vector_blocks,
    same_grouping_groups,
    side_aggregate,
    slice_filters,
)
from repro.core.compare import EXACT_STRATEGIES, TOPK_STRATEGIES, compare, compare_topk
from repro.core.exact import compare_topk_exact
from repro.core.pruning import compare_topk_pruned
from repro.core.spec import CompareSpec, ConstraintTerm, Measure, TrendsetSpec
from repro.core.sql_gen import verbose_sql
from repro.core.trendwise import compare_trendwise
from repro.oracle import assert_equivalent

from .spec_catalog import CATALOG, fixture_for
from .test_exact import ALL_PAIRS


def ts(*terms):
    return TrendsetSpec(tuple(ConstraintTerm(*t) for t in terms))


GM = lambda g, m, a="AVG": (g, Measure(a, m))
V_COL = "__v"


def gm_view(blocks, trendset, gm):
    """``gm``'s ``(vary…, __g, __v)`` projection of side 1 of its block."""
    blk = next(b for b in blocks if gm in b.value_cols)
    return blk.rel1.select(*trendset.vary_cols, G_COL, F.col(blk.value_cols[gm]).alias(V_COL))


def aggregate(df, trendset, groups, gm):
    """The ``(vary…, __g, __v)`` relation of ``gm`` for one trendset: side 1
    of the trendset compared against itself."""
    spec = CompareSpec(trendset, trendset, tuple(x for grp in groups for x in grp.gms))
    return gm_view(build_vector_blocks(df, spec, groups), trendset, gm)


class TestMergeGroups:
    def test_same_grouping_groups(self):
        gms = (GM("day", "a"), GM("week", "a"), GM("day", "b"))
        groups = same_grouping_groups(gms)
        assert len(groups) == 2
        day = next(g for g in groups if g.groupings == ("day",))
        assert day.gms == (gms[0], gms[2])

    def test_measures_deduped(self):
        grp = MergeGroup((GM("day", "a"), GM("week", "a")))
        assert len(grp.measures) == 1
        assert grp.groupings == ("day", "week")


class TestSliceDetection:
    def test_q1_shape_is_slice(self):
        spec = CompareSpec(ts(("airport", "A0")), ts(("airport",)), (GM("day", "x"),))
        assert slice_filters(spec) == {"airport": "A0"}

    def test_identical_trendsets_trivial_slice(self):
        spec = CompareSpec(ts(("airport",)), ts(("airport",)), (GM("day", "x"),))
        assert slice_filters(spec) == {}

    def test_different_columns_not_slice(self):
        spec = CompareSpec(
            ts(("region", "Asia")), ts(("region", "Asia"), ("product",)), (GM("week", "x"),)
        )
        assert slice_filters(spec) is None

    def test_conflicting_fixed_not_slice(self):
        spec = CompareSpec(
            ts(("region", "Asia"), ("city",)),
            ts(("region", "Europe"), ("city",)),
            (GM("week", "x"),),
        )
        assert slice_filters(spec) is None


class TestAggregation:
    def test_direct_aggregate_matches_groupby(self, flight_df):
        gm = GM("day", "arr_delay")
        rel = aggregate(flight_df, ts(("airport",)), [MergeGroup((gm,))], gm)
        exp = (
            flight_df.groupBy("airport", "day")
            .agg(F.avg("arr_delay").alias(V_COL))
            .withColumnRenamed("day", G_COL)
        )
        a = rel.toPandas().sort_values(["airport", G_COL]).reset_index(drop=True)
        b = exp.select(rel.columns).toPandas().sort_values(["airport", G_COL]).reset_index(drop=True)
        assert a[V_COL].round(9).tolist() == b[V_COL].round(9).tolist()

    def test_cross_grouping_reaggregation_avg_exact(self, flight_df):
        """AVG re-derived from (sum, count) partials must be exact, not an
        average of averages."""
        day, week = GM("day", "arr_delay"), GM("week", "arr_delay")
        merged = aggregate(flight_df, ts(("airport",)), [MergeGroup((day, week))], week)
        direct = aggregate(flight_df, ts(("airport",)), [MergeGroup((week,))], week)
        key = ["airport", G_COL]
        a = merged.toPandas().sort_values(key).reset_index(drop=True)
        b = direct.toPandas().sort_values(key).reset_index(drop=True)
        assert a[V_COL].round(8).tolist() == b[V_COL].round(8).tolist()

    @pytest.mark.parametrize("agg", ["SUM", "MIN", "MAX", "COUNT"])
    def test_cross_grouping_reaggregation_other_aggs(self, flight_df, agg):
        day, week = GM("day", "arr_delay", agg), GM("week", "arr_delay", agg)
        merged = aggregate(flight_df, ts(("airport",)), [MergeGroup((day, week))], week)
        direct = aggregate(flight_df, ts(("airport",)), [MergeGroup((week,))], week)
        key = ["airport", G_COL]
        a = merged.toPandas().sort_values(key).reset_index(drop=True)
        b = direct.toPandas().sort_values(key).reset_index(drop=True)
        assert a[V_COL].round(8).tolist() == b[V_COL].round(8).tolist()

    def test_fixed_constraint_filters_rows(self, flight_df):
        gm = GM("day", "arr_delay")
        rel = aggregate(flight_df, ts(("airport", "A0")), [MergeGroup((gm,))], gm)
        assert rel.columns == [G_COL, V_COL]
        n_days_a0 = flight_df.filter("airport = 'A0'").select("day").distinct().count()
        assert rel.count() == n_days_a0


class TestSideSharing:
    def test_identical_trendsets_share_object(self, flight_df):
        spec = CompareSpec(ts(("airport",)), ts(("airport",)), (GM("day", "arr_delay"),))
        blocks = build_vector_blocks(flight_df, spec)
        assert blocks[0].shared and blocks[0].rel1 is blocks[0].rel2

    def test_slice_derivation_matches_direct(self, flight_df):
        spec = CompareSpec(ts(("airport", "A0")), ts(("airport",)), (GM("day", "arr_delay"),))
        gm = spec.gms[0]
        sliced = gm_view(build_vector_blocks(flight_df, spec), spec.t1, gm)
        direct = (
            flight_df.filter("airport = 'A0'").groupBy("day").agg(F.avg("arr_delay").alias(V_COL))
            .withColumnRenamed("day", G_COL).select(G_COL, V_COL)
        )
        key = [G_COL]
        a = sliced.toPandas().sort_values(key).reset_index(drop=True)
        b = direct.toPandas().sort_values(key).reset_index(drop=True)
        assert a.columns.tolist() == b.columns.tolist() == [G_COL, V_COL]
        assert a[V_COL].round(8).tolist() == b[V_COL].round(8).tolist()


def _persistent_rdds(spark) -> int:
    return spark.sparkContext._jsc.getPersistentRDDs().size()


def _fresh(df, case: str):
    """``df`` under a plan of its own, so blocks another test left cached
    cannot stand in for (and hide) the ones this test builds."""
    return df.withColumn("__case", F.lit(case))


class TestPersistedScope:
    """A call leaves no aggregate persisted, also when it raises."""

    @pytest.mark.parametrize("strategy", TOPK_STRATEGIES)
    def test_topk_call_leaves_nothing_persisted(self, spark, flight_df, strategy):
        _, spec = CATALOG["q4"]
        df = _fresh(flight_df, "topk-" + strategy)
        before = _persistent_rdds(spark)
        compare_topk(df, spec, 3, strategy=strategy).collect()
        assert _persistent_rdds(spark) == before

    def test_minmax_fallback_leaves_nothing_persisted(self, request, spark):
        dataset, spec = CATALOG["max_scorer"]
        df = _fresh(request.getfixturevalue(fixture_for(dataset)), "minmax")
        before = _persistent_rdds(spark)
        compare_topk(df, spec, 3, strategy="compare").collect()
        assert _persistent_rdds(spark) == before

    def test_pruned_call_leaves_nothing_persisted(self, spark, flight_df):
        _, spec = CATALOG["q4"]
        df = _fresh(flight_df, "pruned-direct")
        before = _persistent_rdds(spark)
        compare_topk_pruned(df, spec, 3).collect()
        assert _persistent_rdds(spark) == before

    def test_released_when_the_call_raises(self, spark, flight_df, monkeypatch):
        def boom(*_):
            raise RuntimeError("summary failed")

        _, spec = CATALOG["q4"]
        df = _fresh(flight_df, "raises")
        before = _persistent_rdds(spark)
        monkeypatch.setattr(pruning, "seg_agg", boom)
        with pytest.raises(RuntimeError, match="summary failed"):
            compare_topk(df, spec, 3, strategy="compare")
        assert _persistent_rdds(spark) == before

    @pytest.mark.parametrize("strategy", EXACT_STRATEGIES)
    def test_lazy_compare_persists_nothing(self, spark, flight_df, strategy):
        _, spec = CATALOG["q4"]
        df = _fresh(flight_df, "lazy-" + strategy)
        before = _persistent_rdds(spark)
        compare(df, spec, strategy).collect()
        assert _persistent_rdds(spark) == before



def _driver_and_lazy_paths(df, spec, sql, groups=None):
    """The exact top-k, Φp and lazy trendwise, over ``groups`` (None: the
    paths' own groups), all give the rows of DuckDB's ``sql``."""
    if groups is None:
        got = [compare_topk(df, spec, ALL_PAIRS, strategy=s) for s in ("trendwise", "compare")]
        got.append(compare(df, spec, "trendwise"))
    else:
        got = [
            compare_topk_exact(df, spec, ALL_PAIRS, groups=groups),
            compare_topk_pruned(df, spec, ALL_PAIRS, groups=groups),
            compare_trendwise(df, spec, groups),
        ]
    for out in got:
        assert_equivalent(out, sql, R=df)


class TestGroupingSetSplit:
    """A side's blocks share one grouping-sets aggregate, and the fetch splits
    it by grouping set: a grouping column is NULL on every other set's rows."""

    def test_null_grouping_value_is_not_another_sets_row(self, spark):
        rows = [
            (c, d, None if (d + k) % 5 == 0 else d // 7, float((d % 7) * k + d))
            for k, c in enumerate("abcd", 1) for d in range(14)
        ]
        df = spark.createDataFrame(rows, "city string, day long, week long, revenue double")
        day, week = GM("day", "revenue"), GM("week", "revenue")
        spec = CompareSpec(ts(("city",)), ts(("city",)), (day, week))
        side, layout = side_aggregate(df, spec.t2, same_grouping_groups(spec.gms))
        assert [blk.g for blk in layout] == ["day", "week"]
        assert side.filter(F.col("week").isNull()).count() == 14 * 4 + 4  # day set + real NULLs
        _driver_and_lazy_paths(df, spec, verbose_sql(spec, "R", dialect="duckdb"))

    @pytest.mark.parametrize("merged", [False, True], ids=["two-single", "merged-and-single"])
    def test_two_blocks_on_one_grouping_column(self, flight_df, merged):
        """Two groups with a block on ``week`` each: the side aggregate holds
        the (airport, week) set's rows once (a SUM and a COUNT would double
        otherwise), and each block reads its own measures."""
        arr, dep = GM("week", "arr_delay", "SUM"), GM("week", "dep_delay", "COUNT")
        day = GM("day", "arr_delay", "SUM")
        groups = (
            [MergeGroup((day, dep)), MergeGroup((arr,))] if merged
            else [MergeGroup((arr,)), MergeGroup((dep,)), MergeGroup((day,))]
        )
        spec = CompareSpec(ts(("airport",)), ts(("airport",)), (arr, dep, day))
        side, layout = side_aggregate(flight_df, spec.t2, groups)
        weeks = [blk for blk in layout if blk.g == "week"]
        assert len(weeks) == 2
        n_trend_weeks = flight_df.select("airport", "week").distinct().count()
        for blk in weeks:
            assert side.filter(F.col(B_COL) == blk.tag).count() == n_trend_weeks
        if not merged:
            assert weeks[0].tag == weeks[1].tag  # one grouping set, aggregated once
        _driver_and_lazy_paths(flight_df, spec, verbose_sql(spec, "R", dialect="duckdb"), groups)

    def test_slice_values_with_quotes_backslashes_and_dates(self, spark):
        """A slice T1 is filtered out of T2's fetched table on the driver, and
        out of T2's relation in the lazy plan: a value holding a quote and a
        backslash, or a date, picks the same trend as in DuckDB."""
        start = datetime.date(2024, 1, 1)
        cities = ("o'x\\y", "p", "q\\'")
        rows = [
            (c, start + datetime.timedelta(days=b), w, float(w * b + (w % 3) * b * b))
            for b, c in enumerate(cities, 1) for w in range(6)
        ]
        df = spark.createDataFrame(rows, "city string, day date, week long, revenue double")
        for col, value in (("city", cities[0]), ("city", cities[2]), ("day", start + datetime.timedelta(days=2))):
            spec = CompareSpec(ts((col, value)), ts((col,)), (GM("week", "revenue"),))
            # constraint columns compared as text: the oracle reads a DATE back as a timestamp
            keys = {f"{p}_{col}": f"CAST({p}_{col} AS VARCHAR) AS {p}_{col}" for p in "lr"}
            sql = f"SELECT * REPLACE ({', '.join(keys.values())}) FROM ({verbose_sql(spec, 'R')})"
            for out in (
                *(compare_topk(df, spec, ALL_PAIRS, strategy=s) for s in ("trendwise", "compare")),
                compare(df, spec, "trendwise"),
            ):
                for c in keys:
                    out = out.withColumn(c, out[c].cast("string"))
                assert out.count() == len(cities) - 1
                assert_equivalent(out, sql, R=df)
