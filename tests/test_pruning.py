"""Φp pruning operator correctness (§5): bounds soundness, Algorithm 2
top-k exactness across directions/parameters, and pruning effectiveness."""
import math
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.aggregates import clear_cache
from repro.core.compare import compare, compare_topk, topk_exact
from repro.core.pairs import output_schema
from repro.core.pruning import PruneStats, compare_topk_pruned, sturges
from repro.core.spec import Scorer

from .spec_catalog import CATALOG, fixture_for


@pytest.fixture(autouse=True)
def _release_persisted():
    yield
    clear_cache()


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
        from repro.core.aggregates import build_vector_blocks
        from repro.core.pairs import candidate_pairs

        dataset, spec = CATALOG["q2"]
        df = request.getfixturevalue(fixture_for(dataset))
        (blk,) = build_vector_blocks(df, spec)
        seg = P.segmentations([blk], None)[blk.g]
        tids, aggs = P.summarize(blk.rel2, spec.t2.vary_cols, blk, seg)
        agg = aggs[spec.gms[0]]
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
        # q4 has two blocks (day, week): each phase runs its actions concurrently
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
        assert len(in_call) >= 4  # at least 2 domain and 2 summary actions
        assert in_call == list(range(before + 1, after))


def _matched_total(df, spec):
    """Σ over candidate pairs of matched tuples, from the production summaries."""
    import repro.core.pruning as P
    from repro.core.aggregates import build_vector_blocks
    from repro.core.pairs import candidate_pairs

    blocks = build_vector_blocks(df, spec)
    segs = P.segmentations(blocks, None)
    total = 0
    for blk in blocks:
        tids, aggs = P.summarize(blk.rel2, spec.t2.vary_cols, blk, segs[blk.g])
        for agg in aggs.values():
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


class TestTies:
    """Duplicated trends tie at the k-th score; every strategy must pick the
    same pairs, ordered by (score, output identity) as topk_exact does."""

    @pytest.fixture(scope="class")
    def dup_df(self, spark):
        import pandas as pd

        weeks = np.arange(12)
        # b copies a and d copies c, so (a|b, c|d) pairs tie four ways and
        # (a|b, e), (c|d, e) two ways; one row per cell keeps AVG exact
        base = {
            "a": 10 + 2.5 * (weeks % 4),
            "c": 14 - 1.5 * (weeks % 3),
            "e": 30 + 0.5 * weeks,
        }
        base["b"], base["d"] = base["a"], base["c"]
        pdf = pd.DataFrame(
            [(city, int(w), float(v)) for city, vals in base.items() for w, v in zip(weeks, vals)],
            columns=["city", "week", "revenue"],
        )
        df = spark.createDataFrame(pdf).cache()
        df.count()
        yield df
        df.unpersist()

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("ascending", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_strategies_agree_on_tied_pairs(self, dup_df, p, ascending, k):
        from repro.core.spec import CompareSpec, ConstraintTerm, Measure, TrendsetSpec

        ts = TrendsetSpec((ConstraintTerm("city"),))
        spec = CompareSpec(ts, ts, (("week", Measure("AVG", "revenue")),), Scorer("SUM", p))
        picks = {}
        for strategy in ("compare", "pruned", "trendwise"):
            rows = compare_topk(dup_df, spec, k, ascending=ascending, strategy=strategy).collect()
            picks[strategy] = [(r["l_city"], r["r_city"], round(r["score"], 6)) for r in rows]
        assert picks["compare"] == picks["pruned"] == picks["trendwise"]
        assert len(picks["compare"]) == k
