"""Algorithm 1 (merge-partition) and the cost model (§4.2)."""
import pytest

from repro.core.aggregates import MergeGroup
from repro.core.spec import CompareSpec, ConstraintTerm, Measure, TrendsetSpec
from repro.core.trendwise import compare_trendwise
from repro.plan.cost import TableStats, compare_plan_cost, side_plan_cost
from repro.plan.optimizer import merge_partition

from .conftest import check_against_oracle
from .spec_catalog import CATALOG


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
