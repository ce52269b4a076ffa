"""Aggregation layer: merge groups, side sharing, slice derivation (§4.2),
and the per-call scope that persists the aggregates."""
import pytest
from pyspark import StorageLevel
from pyspark.sql import functions as F

from repro.core import pruning
from repro.core.aggregates import (
    G_COL,
    V_COL,
    MergeGroup,
    build_vector_blocks,
    gm_relations,
    persisted,
    same_grouping_groups,
    slice_filters,
)
from repro.core.compare import EXACT_STRATEGIES, TOPK_STRATEGIES, compare, compare_topk
from repro.core.pruning import compare_topk_pruned
from repro.core.spec import CompareSpec, ConstraintTerm, Measure, TrendsetSpec

from .spec_catalog import CATALOG, fixture_for


def ts(*terms):
    return TrendsetSpec(tuple(ConstraintTerm(*t) for t in terms))


GM = lambda g, m, a="AVG": (g, Measure(a, m))


def aggregate(df, trendset, groups, gm):
    """The ``(vary…, __g, __v)`` relation of ``gm`` for one trendset: side 1
    of the trendset compared against itself, sides not shared."""
    spec = CompareSpec(trendset, trendset, tuple(x for grp in groups for x in grp.gms))
    blocks = build_vector_blocks(df, spec, groups)
    return gm_relations(blocks, spec)[gm][0]


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
        rel1, rel2 = gm_relations(blocks, spec)[spec.gms[0]]
        assert rel1 is rel2

    def test_slice_derivation_matches_direct(self, flight_df):
        spec = CompareSpec(ts(("airport", "A0")), ts(("airport",)), (GM("day", "arr_delay"),))
        gm = spec.gms[0]
        shared = gm_relations(build_vector_blocks(flight_df, spec), spec)
        direct = (
            flight_df.filter("airport = 'A0'").groupBy("day").agg(F.avg("arr_delay").alias(V_COL))
            .withColumnRenamed("day", G_COL).select(G_COL, V_COL)
        )
        key = [G_COL]
        a = shared[gm][0].toPandas().sort_values(key).reset_index(drop=True)
        b = direct.toPandas().sort_values(key).reset_index(drop=True)
        assert a.columns.tolist() == b.columns.tolist() == [G_COL, V_COL]
        assert a[V_COL].round(8).tolist() == b[V_COL].round(8).tolist()


def _persistent_rdds(spark) -> int:
    return spark.sparkContext._jsc.getPersistentRDDs().size()


def _cached(df) -> bool:
    return df.storageLevel != StorageLevel.NONE


def _fresh(df, case: str):
    """``df`` under a plan of its own, so blocks another test left cached
    cannot stand in for (and hide) the ones this test builds."""
    return df.withColumn("__case", F.lit(case))


class TestPersistedScope:
    """A call persists its aggregates only while it runs (none are left)."""

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

    def test_inner_call_keeps_outer_scope_blocks(self, flight_df):
        _, spec = CATALOG["q4"]
        df = _fresh(flight_df, "nested")
        with persisted():
            blocks = build_vector_blocks(df, spec)
            rels = [r for b in blocks for r in (b.rel1, b.rel2)]
            assert all(_cached(r) for r in rels)
            compare_topk(df, spec, 3, strategy="trendwise").collect()
            assert all(_cached(r) for r in rels)
        assert not any(_cached(r) for r in rels)

    @pytest.mark.parametrize("strategy", EXACT_STRATEGIES)
    def test_lazy_compare_persists_nothing(self, spark, flight_df, strategy):
        _, spec = CATALOG["q4"]
        df = _fresh(flight_df, "lazy-" + strategy)
        before = _persistent_rdds(spark)
        compare(df, spec, strategy).collect()
        assert _persistent_rdds(spark) == before
