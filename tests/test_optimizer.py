"""Algorithm 1 (merge-partition), the cost model and its statistics (§4.2)."""
import zlib

import pytest
from pyspark.sql import functions as F

from repro import synth_data as sd
from repro.core.aggregates import MergeGroup, persisted
from repro.core.basic import input_view
from repro.core.compare import compare_topk
from repro.core.exact import compare_topk_exact
from repro.core.spec import CompareSpec, ConstraintTerm, Measure, TrendsetSpec
from repro.core.trendwise import compare_trendwise
from repro.plan.cost import STATS_VIEW_SUFFIX, TableStats, compare_plan_cost, side_plan_cost
from repro.plan.optimizer import merge_partition

from .conftest import check_against_oracle
from .spec_catalog import CATALOG
from .test_pruning import _job_group


def ts(*terms):
    return TrendsetSpec(tuple(ConstraintTerm(*t) for t in terms))


def _stats():
    # a flight-like table: day determines week; airport is the trend column
    return TableStats(
        n_rows=1_000_000,
        distinct={"airport": 300, "day": 365, "week": 53, "item": 100_000,
                  "arr_delay": 1000, "dep_delay": 1000, "duration": 1000},
        fds={"week": "day"},
    )


def _spec(gms):
    return CompareSpec(ts(("airport",)), ts(("airport",)), tuple(gms))


GM = lambda g, m: (g, Measure("AVG", m))


class TestTableStats:
    def test_joint_distinct_independent(self):
        s = _stats()
        assert s.joint_distinct(("airport", "item")) == min(300 * 100_000, 1_000_000)

    def test_joint_distinct_fd_collapses(self):
        s = _stats()
        # week is determined by day: adding week must not inflate the estimate
        assert s.joint_distinct(("day", "week")) == s.joint_distinct(("day",))

    def test_capped_by_rows(self):
        s = _stats()
        assert s.joint_distinct(("item", "day")) == 1_000_000

    def test_from_df(self, flight_df):
        s = TableStats.from_df(flight_df, ["airport", "day", "week"], {"week": "day"})
        assert s.n_rows == flight_df.count()
        # approx distinct within 10% of truth
        assert abs(s.distinct["airport"] - 8) <= 1
        assert s.fds == {"week": "day"}


class TestCostModel:
    def test_positive(self):
        spec = _spec([GM("day", "arr_delay")])
        assert compare_plan_cost(spec, [MergeGroup(spec.gms)], _stats()) > 0

    def test_same_grouping_merge_always_cheaper(self):
        spec = _spec([GM("day", "arr_delay"), GM("day", "dep_delay")])
        merged = [MergeGroup(spec.gms)]
        single = [MergeGroup((gm,)) for gm in spec.gms]
        s = _stats()
        assert compare_plan_cost(spec, merged, s) < compare_plan_cost(spec, single, s)

    def test_correlated_groupings_merge_cheaper(self):
        spec = _spec([GM("day", "arr_delay"), GM("week", "arr_delay")])
        merged = [MergeGroup(spec.gms)]
        single = [MergeGroup((gm,)) for gm in spec.gms]
        s = _stats()
        assert compare_plan_cost(spec, merged, s) < compare_plan_cost(spec, single, s)

    def test_uncorrelated_huge_domain_merge_more_expensive(self):
        spec = _spec([GM("day", "arr_delay"), GM("item", "arr_delay")])
        merged = [MergeGroup(spec.gms)]
        single = [MergeGroup((gm,)) for gm in spec.gms]
        s = _stats()
        assert compare_plan_cost(spec, merged, s) > compare_plan_cost(spec, single, s)

    def test_shared_sides_cost_once(self):
        shared = _spec([GM("day", "arr_delay")])
        disjoint = CompareSpec(
            ts(("item",)), ts(("airport",)), (GM("day", "arr_delay"),)
        )
        s = _stats()
        g = [MergeGroup(shared.gms)]
        assert compare_plan_cost(shared, g, s) < compare_plan_cost(disjoint, g, s)

    def test_fixed_filter_reduces_side_cost(self):
        s = _stats()
        open_ts = ts(("airport",))
        closed_ts = ts(("airport", "A0"),)
        g = [MergeGroup((GM("day", "arr_delay"),))]
        assert side_plan_cost(closed_ts, g, s) < side_plan_cost(open_ts, g, s)


class TestAlgorithm1:
    def test_merges_same_grouping(self):
        spec = _spec([GM("day", "arr_delay"), GM("day", "dep_delay"), GM("day", "duration")])
        groups = merge_partition(spec, _stats())
        assert len(groups) == 1 and len(groups[0].gms) == 3

    def test_merges_correlated_groupings(self):
        spec = _spec([GM("day", "arr_delay"), GM("week", "arr_delay")])
        groups = merge_partition(spec, _stats())
        assert len(groups) == 1

    def test_keeps_uncorrelated_apart(self):
        spec = _spec([GM("day", "arr_delay"), GM("item", "arr_delay")])
        groups = merge_partition(spec, _stats())
        assert len(groups) == 2

    def test_single_gm_untouched(self):
        spec = _spec([GM("day", "arr_delay")])
        assert len(merge_partition(spec, _stats())) == 1

    def test_greedy_never_increases_cost(self):
        spec = _spec(
            [GM("day", "arr_delay"), GM("day", "dep_delay"),
             GM("week", "arr_delay"), GM("item", "duration")]
        )
        s = _stats()
        singles = [MergeGroup((gm,)) for gm in spec.gms]
        chosen = merge_partition(spec, s)
        assert compare_plan_cost(spec, chosen, s) <= compare_plan_cost(spec, singles, s)

    def test_chosen_groups_execute_correctly(self, flight_df):
        _, spec = CATALOG["q4"]
        stats = TableStats.from_df(flight_df, list(spec.input_cols), {"week": "day"})
        groups = merge_partition(spec, stats)
        out = compare_trendwise(flight_df, spec, groups=groups)
        check_against_oracle(out, spec, flight_df)

    def test_stats_over_constraint_and_grouping_columns_pick_same_groups(self, flight_df):
        from repro.core.compare import _optimizer_groups

        _, spec = CATALOG["q4"]
        full = TableStats.from_df(flight_df, list(spec.input_cols), {"week": "day"})
        assert _optimizer_groups(flight_df, spec, {"week": "day"}) == merge_partition(spec, full)


class TestStatsCatalog:
    """Session catalog statistics: an input's columns are scanned once."""

    @pytest.fixture
    def fresh(self, spark, request):
        """An input plan of this test's own: a small input is a local
        relation, so equal data would be the same plan as another test's."""
        seed = zlib.crc32(request.node.name.encode())
        return sd.flights(spark, sf=0.002, n_airports=8, n_days=56, seed=seed)

    @pytest.fixture
    def scans(self, monkeypatch):
        """The column lists ``TableStats.from_df`` is called with."""
        calls, from_df = [], TableStats.from_df

        def recording(cls, df, cols, fds=None):
            calls.append(list(cols))
            return from_df(df, cols, fds)

        monkeypatch.setattr(TableStats, "from_df", classmethod(recording))
        return calls

    def test_repeated_compare_runs_no_statistics_job(self, spark, flight_df):
        from repro.core.compare import _optimizer_groups

        _, spec = CATALOG["q4"]
        fds = {"week": "day"}
        groups = _optimizer_groups(flight_df, spec, fds)  # the one scan, if any is left
        sc = spark.sparkContext
        with _job_group(sc, "stats-catalog-compare") as compare_jobs:
            compare_topk(flight_df, spec, 3, strategy="compare", fds=fds).collect()
        with _job_group(sc, "stats-catalog-exact") as exact_jobs:
            persisted()(compare_topk_exact)(flight_df, spec, 3, groups=groups).collect()
        assert len(compare_jobs()) == len(exact_jobs()) > 0

    @pytest.mark.parametrize("strategy", ["trendwise", "pruned"])
    def test_default_grouping_strategies_read_no_statistics(self, spark, fresh, scans, strategy):
        _, spec = CATALOG["q4"]
        compare_topk(fresh, spec, 3, strategy=strategy).collect()
        assert scans == []
        assert not spark.catalog.tableExists(input_view(fresh) + STATS_VIEW_SUFFIX)

    def test_new_column_scanned_once_and_alone(self, spark, fresh, scans):
        TableStats.of_input(fresh, ["airport", "day"])
        sc = spark.sparkContext
        with _job_group(sc, "stats-catalog-new-column") as new_jobs:
            stats = TableStats.of_input(fresh, ["airport", "day", "week"], {"week": "day"})
        with _job_group(sc, "stats-catalog-known-columns") as known_jobs:
            again = TableStats.of_input(fresh, ["week", "airport"])
        with _job_group(sc, "stats-catalog-from-df-week") as week_jobs:
            TableStats.from_df(fresh, ["week"])
        assert scans == [["airport", "day"], ["week"], ["week"]]
        assert len(new_jobs()) == len(week_jobs()) > 0
        assert known_jobs() == []
        assert set(stats.distinct) == {"airport", "day", "week"} and stats.fds == {"week": "day"}
        assert again.distinct == {c: stats.distinct[c] for c in ("week", "airport")}
        assert again.fds == {}

    def test_values_equal_from_df(self, fresh):
        cols = ["airport", "day", "week", "month"]
        TableStats.of_input(fresh, cols[:2])
        assert TableStats.of_input(fresh, cols) == TableStats.from_df(fresh, cols)

    def test_aliased_inputs_keep_their_own_statistics(self, fresh):
        cols = ["airport", "x", "y"]
        day_x, week_x = (
            fresh.select("airport", F.col("day").alias(a), F.col("week").alias(b))
            for a, b in (("x", "y"), ("y", "x"))
        )
        assert day_x.sameSemantics(week_x)  # canonical plans drop the aliases
        for df in (day_x, week_x):
            assert TableStats.of_input(df, cols) == TableStats.from_df(df, cols)
        by_day, by_week = (TableStats.of_input(df, cols).distinct for df in (day_x, week_x))
        assert by_day["x"] == by_week["y"] > by_day["y"] == by_week["x"]  # 56 days, 8 weeks
