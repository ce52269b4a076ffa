"""Φp pruning operator correctness (§5): bounds soundness, Algorithm 2
top-k exactness across directions/parameters, and pruning effectiveness."""
import math
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.aggregates import MergeGroup, persisted
from repro.core.compare import compare, compare_topk, topk_exact
from repro.core.exact import compare_topk_exact
from repro.core.pairs import output_schema
from repro.core.pruning import PruneStats, compare_topk_pruned, sturges
from repro.core.spec import CompareSpec, ConstraintTerm, Measure, Scorer, TrendsetSpec

from .spec_catalog import CATALOG, fixture_for


def _exact_topk_scores(df, spec, k, ascending):
    pdf = topk_exact(compare(df, spec, strategy="trendwise"), k, ascending).toPandas()
    return sorted(round(s, 6) for s in pdf["score"])


def _pruned_topk_scores(df, spec, k, ascending, **kw):
    pdf = compare_topk_pruned(df, spec, k, ascending=ascending, **kw).toPandas()
    return sorted(round(s, 6) for s in pdf["score"])


class TestSturges:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (64, 7), (100, 7), (1024, 11)])
    def test_formula(self, n, expected):
        assert sturges(n) == expected

    def test_degenerate(self):
        assert sturges(0) == 1


class TestTopkExactness:
    @pytest.mark.parametrize(
        "name", ["q1", "q2", "q2_month", "q3", "q4", "ex1a", "ex1b", "ex2a", "ex2b", "tpcds_q1"]
    )
    @pytest.mark.parametrize("ascending", [True, False])
    def test_matches_exact_topk(self, request, name, ascending):
        dataset, spec = CATALOG[name]
        df = request.getfixturevalue(fixture_for(dataset))
        k = 3
        assert _pruned_topk_scores(df, spec, k, ascending) == pytest.approx(
            _exact_topk_scores(df, spec, k, ascending)
        )

    @pytest.mark.parametrize("k", [1, 2, 5, 100])
    def test_k_variations(self, request, k):
        dataset, spec = CATALOG["q2"]
        df = request.getfixturevalue(fixture_for(dataset))
        assert _pruned_topk_scores(df, spec, k, True) == pytest.approx(
            _exact_topk_scores(df, spec, k, True)
        )

    @pytest.mark.parametrize("n_segments", [1, 2, 4, 16])
    def test_segment_count_sweep(self, request, n_segments):
        dataset, spec = CATALOG["q2"]
        df = request.getfixturevalue(fixture_for(dataset))
        assert _pruned_topk_scores(
            df, spec, 3, True, n_segments=n_segments
        ) == pytest.approx(_exact_topk_scores(df, spec, 3, True))

    @pytest.mark.parametrize("tpu", [1, 5, 50, 10_000])
    def test_tuples_per_update_sweep(self, request, tpu):
        dataset, spec = CATALOG["q2"]
        df = request.getfixturevalue(fixture_for(dataset))
        assert _pruned_topk_scores(
            df, spec, 3, False, tuples_per_update=tpu
        ) == pytest.approx(_exact_topk_scores(df, spec, 3, False))

    def test_no_early_termination_path(self, request):
        dataset, spec = CATALOG["q2"]
        df = request.getfixturevalue(fixture_for(dataset))
        assert _pruned_topk_scores(
            df, spec, 3, True, early_termination=False
        ) == pytest.approx(_exact_topk_scores(df, spec, 3, True))

    def test_avg_scorer(self, request):
        dataset, spec = CATALOG["avg_scorer"]
        df = request.getfixturevalue(fixture_for(dataset))
        assert _pruned_topk_scores(df, spec, 3, True) == pytest.approx(
            _exact_topk_scores(df, spec, 3, True)
        )

    def test_manhattan_scorer(self, request):
        dataset, spec = CATALOG["manhattan"]
        df = request.getfixturevalue(fixture_for(dataset))
        assert _pruned_topk_scores(df, spec, 3, False) == pytest.approx(
            _exact_topk_scores(df, spec, 3, False)
        )

    def test_multi_gm_topk_across_attributes(self, request):
        # top-k competes across (g, m) combinations (example 1b semantics)
        dataset, spec = CATALOG["q4"]
        df = request.getfixturevalue(fixture_for(dataset))
        assert _pruned_topk_scores(df, spec, 5, True) == pytest.approx(
            _exact_topk_scores(df, spec, 5, True)
        )

    def test_minmax_scorer_rejected(self, request):
        dataset, spec = CATALOG["max_scorer"]
        df = request.getfixturevalue(fixture_for(dataset))
        with pytest.raises(ValueError, match="SUM/AVG"):
            compare_topk_pruned(df, spec, 3)

    @pytest.mark.parametrize("name", ["max_scorer", "min_scorer"])
    @pytest.mark.parametrize("ascending", [True, False])
    def test_facade_compare_strategy_minmax_is_exact_trendwise(self, request, name, ascending):
        dataset, spec = CATALOG[name]
        df = request.getfixturevalue(fixture_for(dataset))
        got = compare_topk(df, spec, 3, ascending=ascending, strategy="compare")
        exp = topk_exact(compare(df, spec, strategy="trendwise"), 3, ascending)
        assert got.collect() == exp.collect()

    def test_facade_compare_strategy(self, request):
        dataset, spec = CATALOG["q4"]
        df = request.getfixturevalue(fixture_for(dataset))
        pdf = compare_topk(df, spec, 3, ascending=True, strategy="compare").toPandas()
        assert sorted(round(s, 6) for s in pdf["score"]) == pytest.approx(
            _exact_topk_scores(df, spec, 3, True)
        )

    def test_facade_pruned_strategy(self, request):
        dataset, spec = CATALOG["q2"]
        df = request.getfixturevalue(fixture_for(dataset))
        pdf = compare_topk(df, spec, 3, ascending=True, strategy="pruned").toPandas()
        assert sorted(round(s, 6) for s in pdf["score"]) == pytest.approx(
            _exact_topk_scores(df, spec, 3, True)
        )


class TestBoundsSoundness:
    """Initial (pre-refinement) bounds must always contain the true score."""

    @pytest.mark.parametrize("name", ["q2", "manhattan", "tpcds_q1"])
    def test_bounds_contain_truth(self, request, name):
        from repro.core.pruning import _Phi  # noqa: F401  (driver internals)
        import repro.core.pruning as P

        dataset, spec = CATALOG[name]
        df = request.getfixturevalue(fixture_for(dataset))
        # huge k → nothing pruned → every pair refined to exactness;
        # capture initial bounds first by monkey-free re-derivation:
        out, stats = compare_topk_pruned(
            df, spec, 10_000, ascending=True, return_stats=True
        )
        exact = compare(df, spec, strategy="trendwise").toPandas()
        got = out.toPandas()
        assert len(got) == len(exact)
        assert sorted(got["score"].round(6)) == pytest.approx(
            sorted(exact["score"].round(6))
        )

    def test_initial_bounds_bracket_scores(self, request):
        """Production Summarize + Bound on the q2 fixture bracket every exact score."""
        import repro.core.pruning as P
        from repro.core.exact import block_arrays
        from repro.core.pairs import candidate_pairs

        dataset, spec = CATALOG["q2"]
        df = request.getfixturevalue(fixture_for(dataset))
        ((_, _, (tids, mask, (vals,))),) = block_arrays(df, spec, None)
        agg = P.seg_agg(mask, vals, P.segment_edges(mask.shape[1], None))
        ia, ib = candidate_pairs(spec, tids, tids)
        _, lb, ub = P.bound_pairs(agg, agg, ia, ib, spec.scorer.p)
        exact = {
            (r["l_airport"], r["r_airport"]): r["score"]
            for r in compare(df, spec, strategy="trendwise").collect()
        }
        assert len(ia) == len(exact) > 10
        for a, b, lo, hi in zip(ia, ib, lb.sum(axis=1), ub.sum(axis=1)):
            score = exact[(tids[a][0], tids[b][0])]
            assert lo <= score + 1e-6 * max(1, abs(score))
            assert hi >= score - 1e-6 * max(1, abs(score))


class TestPruneStats:
    def test_pruning_actually_prunes(self, request):
        dataset, spec = CATALOG["q2"]
        df = request.getfixturevalue(fixture_for(dataset))
        _, stats = compare_topk_pruned(
            df, spec, 1, ascending=True, return_stats=True
        )
        assert isinstance(stats, PruneStats)
        assert stats.n_pairs == 8 * 7 // 2
        assert stats.pruned_initial + stats.pruned_refining > 0
        assert stats.summary_floats > 0

    def test_early_termination_reduces_tuple_work(self, request):
        dataset, spec = CATALOG["q2"]
        df = request.getfixturevalue(fixture_for(dataset))
        _, et = compare_topk_pruned(df, spec, 1, ascending=True, return_stats=True)
        _, full = compare_topk_pruned(
            df, spec, 1, ascending=True, early_termination=False, return_stats=True
        )
        assert et.tuples_compared <= full.tuples_compared

    def test_memory_overhead_is_logarithmic(self, request):
        dataset, spec = CATALOG["q2"]
        df = request.getfixturevalue(fixture_for(dataset))
        _, stats = compare_topk_pruned(df, spec, 1, ascending=True, return_stats=True)
        n_trends = 8
        n = df.count()
        # §5.3: O(p × log(n/p)) summary floats
        assert stats.summary_floats <= 4 * n_trends * (1 + math.log2(max(2, n)))


@contextmanager
def _job_group(sc, group):
    """Run the body under job group ``group``; yields the group's job ids
    as a function, read once Spark's listener bus has caught up."""
    sc.setJobGroup(group, group)
    try:
        def jobs():
            sc._jsc.sc().listenerBus().waitUntilEmpty()
            return sorted(sc.statusTracker().getJobIdsForGroup(group))
        yield jobs
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)


class TestSparkActions:
    def test_result_is_local(self, request, spark):
        dataset, spec = CATALOG["q2"]
        df = request.getfixturevalue(fixture_for(dataset))
        out = compare_topk_pruned(df, spec, 3)
        with _job_group(spark.sparkContext, "phi-result-collect") as jobs:
            rows = out.collect()
        assert jobs() == []
        assert len(rows) == 3
        assert out.schema == output_schema(df, spec)

    def test_k_at_least_pairs_keeps_every_pair(self, request):
        dataset, spec = CATALOG["q2"]
        df = request.getfixturevalue(fixture_for(dataset))
        out = compare_topk_pruned(df, spec, 1000, ascending=False)
        exact = topk_exact(compare(df, spec, strategy="trendwise"), 1000, False).collect()
        got = out.collect()
        assert out.schema == output_schema(df, spec)
        assert len(got) == len(exact) == 28
        assert [r[:-1] for r in got] == [r[:-1] for r in exact]
        assert [r["score"] for r in got] == pytest.approx([r["score"] for r in exact])

    def test_concurrent_actions_keep_callers_job_group(self, request, spark):
        # q4 has two blocks (day, week), fetched concurrently
        dataset, spec = CATALOG["q4"]
        df = request.getfixturevalue(fixture_for(dataset))
        sc = spark.sparkContext
        marks = []
        for name in ("before", "call", "after"):
            with _job_group(sc, f"phi-jobs-{name}") as jobs:
                if name == "call":
                    compare_topk_pruned(df, spec, 3).collect()
                else:
                    spark.range(1).collect()
            marks.append(jobs())
        (before,), in_call, (after,) = marks
        with _job_group(sc, "phi-jobs-exact") as exact_jobs:
            compare_topk_exact(df, spec, 3).collect()
        assert len(in_call) == len(exact_jobs())  # one fetch per block side
        assert in_call == list(range(before + 1, after))

    @pytest.mark.parametrize(
        "name,merged", [("q2", False), ("q3", False), ("q4", False), ("q4", True)]
    )
    def test_runs_the_exact_paths_jobs(self, request, spark, name, merged):
        """One Arrow fetch per block side, as on the exact path: no domain
        collect, no summary, no survivor fetch, and no persisted block (a
        cache would add a job to build it). Under adaptive execution, the
        session's default, an action over a block's one shuffle is two jobs."""
        dataset, spec = CATALOG[name]
        df = request.getfixturevalue(fixture_for(dataset))
        groups = [MergeGroup(spec.gms)] if merged else None
        sc = spark.sparkContext
        counts = []
        # compare_topk_pruned opens its own persisted() scope, as compare_topk does for both
        exact = persisted()(compare_topk_exact)
        for label, run in (("phi", compare_topk_pruned), ("exact", exact)):
            with _job_group(sc, f"phi-vs-exact-{name}-{merged}-{label}") as jobs:
                run(df, spec, 3, groups=groups).collect()
            counts.append(len(jobs()))
        assert counts[0] == counts[1]
        if not merged:
            block_sides = {"q2": 1, "q3": 4, "q4": 2}[name]
            per_action = 2 if spark.conf.get("spark.sql.adaptive.enabled") == "true" else 1
            assert counts[0] == block_sides * per_action


class TestNanAndEmpty:
    @pytest.mark.parametrize("missing", [None, float("nan")], ids=["null", "nan"])
    def test_nan_measure_drops_its_pairs_as_trendwise_does(self, spark, missing):
        """4 cities × 12 weeks, AVG(revenue) NULL (or NaN) at city 'b',
        week 3: every pair with 'b' has a matched NaN and gets no row, so
        Φp picks what the exact top-k picks and emits no NaN score. (SQL
        would skip the NULL diff instead; not implemented yet.)"""
        offset = {"a": 0, "b": 3, "c": None, "d": 1}
        rows = [(c, w, float(2 * w if off is None else w + off)) for c, off in offset.items()
                for w in range(12)]
        rows[12 + 3] = ("b", 3, missing)
        df = spark.createDataFrame(rows, "city string, week long, revenue double")
        ts = TrendsetSpec((ConstraintTerm("city"),))
        spec = CompareSpec(ts, ts, (("week", Measure("AVG", "revenue")),), Scorer("SUM", 2))
        for k in (3, 10):
            exp = compare_topk(df, spec, k, strategy="trendwise").collect()
            assert [(r["l_city"], r["r_city"]) for r in exp] == [("a", "d"), ("c", "d"), ("a", "c")]
            for strategy in ("compare", "pruned"):
                got = compare_topk(df, spec, k, strategy=strategy).collect()
                assert [r[:-1] for r in got] == [r[:-1] for r in exp], strategy
                assert [r["score"] for r in got] == pytest.approx([r["score"] for r in exp])
                assert not any(math.isnan(r["score"]) for r in got)

    @pytest.mark.parametrize("strategy", ["compare", "pruned"])
    def test_empty_trendset_gives_empty_frame(self, sales_df, strategy):
        none = TrendsetSpec((ConstraintTerm("region", "Atlantis"), ConstraintTerm("city")))
        europe = TrendsetSpec((ConstraintTerm("region", "Europe"), ConstraintTerm("city")))
        for t1, t2 in ((none, europe), (europe, none), (none, none)):
            spec = CompareSpec(t1, t2, (("week", Measure("AVG", "revenue")),))
            out = compare_topk(sales_df, spec, 3, strategy=strategy)
            assert out.collect() == []
            assert out.schema == output_schema(sales_df, spec)


def _matched_total(df, spec):
    """Σ over candidate pairs of matched tuples, from the production summaries."""
    import repro.core.pruning as P
    from repro.core.exact import block_arrays
    from repro.core.pairs import candidate_pairs

    total = 0
    for _, _, (tids, mask, vals) in block_arrays(df, spec, None):
        edges = P.segment_edges(mask.shape[1], None)
        for agg in (P.seg_agg(mask, v, edges) for v in vals):
            ia, ib = candidate_pairs(spec, tids, tids)
            total += int(P.bound_pairs(agg, agg, ia, ib, spec.scorer.p)[0].sum())
    return total


# (n_pairs, {(k, ascending): pruned_initial}) of the per-pair-object Φp
# this columnar one replaced, measured on the q2 / q4 fixtures
_PINNED = {
    "q2": (28, {(1, True): 24, (3, True): 18, (5, True): 15,
                (1, False): 25, (3, False): 22, (5, False): 21}),
    "q4": (84, {(1, True): 82, (3, True): 76, (5, True): 72,
                (1, False): 78, (3, False): 76, (5, False): 74}),
}


class TestPruneStatsInvariants:
    @pytest.mark.parametrize("name", ["q2", "q4"])
    def test_counts_and_pinned_prune_decision(self, request, name):
        dataset, spec = CATALOG[name]
        df = request.getfixturevalue(fixture_for(dataset))
        n_pairs, pruned = _PINNED[name]
        matched_total = _matched_total(df, spec)
        for (k, asc), pruned_initial in pruned.items():
            for et in (True, False):
                _, st = compare_topk_pruned(
                    df, spec, k, ascending=asc, early_termination=et, return_stats=True
                )
                assert st.n_pairs == n_pairs
                assert st.pruned_initial == pruned_initial, (k, asc, et)
                assert st.pruned_initial + st.pruned_refining <= st.n_pairs
                assert st.tuples_compared <= matched_total


def test_phi_enumerates_pairs_once_per_block(request, monkeypatch):
    """Φp walks the blocks as the exact top-k does: one candidate-pair
    enumeration per block, not one per (g, m)."""
    import repro.core.pruning as P
    from repro.core.exact import block_arrays

    dataset, spec = CATALOG["q4"]
    df = request.getfixturevalue(fixture_for(dataset))
    arrays = block_arrays(df, spec, None)
    assert len(arrays) < len(spec.gms)
    enumerate_pairs, calls = P.candidate_pairs, []

    def counting(*args):
        calls.append(args)
        return enumerate_pairs(*args)

    monkeypatch.setattr(P, "candidate_pairs", counting)
    rows, _ = P.phi_topk(spec, 3, True, arrays, n_segments=None, tuples_per_update=None,
                         early_termination=True)
    assert len(rows) == 3
    assert len(calls) == len(arrays)


class TestTies:
    """Duplicated trends (``dup_df``) tie at the k-th score; every strategy
    must pick the same pairs, ordered by (score, output identity) as
    topk_exact does."""

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("ascending", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_strategies_agree_on_tied_pairs(self, dup_df, p, ascending, k):
        ts = TrendsetSpec((ConstraintTerm("city"),))
        spec = CompareSpec(ts, ts, (("week", Measure("AVG", "revenue")),), Scorer("SUM", p))
        picks = {}
        for strategy in ("compare", "pruned", "trendwise", "optimized"):
            rows = compare_topk(dup_df, spec, k, ascending=ascending, strategy=strategy).collect()
            picks[strategy] = [(r["l_city"], r["r_city"], round(r["score"], 6)) for r in rows]
        assert picks["compare"] == picks["pruned"] == picks["trendwise"] == picks["optimized"]
        assert len(picks["compare"]) == k
