"""The exact top-k on the driver (``compare_topk`` under ``trendwise``,
``optimized`` and the MIN/MAX ``compare`` fallback) against the lazy
trendwise plan sorted by ``topk_exact``, the DuckDB oracle, and its
Spark-job budget."""
import pandas as pd
import pytest

from repro.baselines import compare_middleware, compare_udf
from repro.core import scorer
from repro.core.compare import compare, compare_topk, topk_exact
from repro.core.exact import compare_topk_exact
from repro.core.pairs import local_frame, output_schema
from repro.core.spec import CompareSpec, ConstraintTerm, Measure, Scorer, TrendsetSpec
from repro.core.sql_gen import verbose_sql
from repro.oracle import assert_equivalent

from .spec_catalog import CATALOG, fixture_for
from .test_pruning import _job_group

ALL_PAIRS = 10_000  # more than any catalog spec has


def _split(rows):
    return [tuple(r)[:-1] for r in rows], [r["score"] for r in rows]


def _middleware(df, spec, **kw):
    """The middleware's pandas result as a relation with the output schema."""
    pdf = compare_middleware(df, spec, bandwidth_mbps=None, **kw)
    return local_frame(df.sparkSession, list(pdf.itertuples(index=False, name=None)),
                       output_schema(df, spec))


def _clients(df, spec, k):
    """Both client baselines' results for top-``k`` (None: all pairs)."""
    return compare_udf(df, spec, k=k), _middleware(df, spec, k=k)


def _assert_same_topk(got, exp, spec):
    got_ids, got_scores = _split(got)
    exp_ids, exp_scores = _split(exp)
    assert got_ids == exp_ids
    if spec.scorer.agg in ("MIN", "MAX"):
        assert got_scores == exp_scores
    else:
        assert got_scores == pytest.approx(exp_scores, rel=1e-9)


@pytest.mark.parametrize("name", sorted(CATALOG))
@pytest.mark.parametrize("ascending", [True, False])
def test_matches_sorted_lazy_trendwise(request, name, ascending):
    dataset, spec = CATALOG[name]
    df = request.getfixturevalue(fixture_for(dataset))
    exact = topk_exact(compare(df, spec, "trendwise"), ALL_PAIRS, ascending).collect()
    assert len(exact) < ALL_PAIRS
    for k in (1, 3, ALL_PAIRS):
        got = compare_topk(df, spec, k, ascending=ascending, strategy="trendwise").collect()
        _assert_same_topk(got, exact[:k], spec)


def test_optimized_matches_trendwise(request):
    dataset, spec = CATALOG["q3"]
    df = request.getfixturevalue(fixture_for(dataset))
    for ascending in (True, False):
        a = compare_topk(df, spec, 4, ascending=ascending, strategy="optimized").collect()
        b = compare_topk(df, spec, 4, ascending=ascending, strategy="trendwise").collect()
        _assert_same_topk(a, b, spec)


def test_optimized_runs_no_stats_job_for_one_gm(request, spark):
    """With one (g, m) Algorithm 1 has nothing to merge: ``optimized`` runs
    the jobs ``trendwise`` runs, and its lazy plan is built without a job."""
    dataset, spec = CATALOG["q2"]
    df = request.getfixturevalue(fixture_for(dataset))
    assert len(spec.gms) == 1
    sc = spark.sparkContext
    counts = {}
    for strategy in ("optimized", "trendwise"):
        with _job_group(sc, f"one-gm-topk-{strategy}") as jobs:
            compare_topk(df, spec, 3, strategy=strategy).collect()
        counts[strategy] = len(jobs())
    assert counts["optimized"] == counts["trendwise"]
    with _job_group(sc, "one-gm-lazy-optimized") as jobs:
        compare(df, spec, "optimized")
    assert jobs() == []


def test_empty_trendset_gives_empty_frame(sales_df):
    none = TrendsetSpec((ConstraintTerm("region", "Atlantis"), ConstraintTerm("city")))
    europe = TrendsetSpec((ConstraintTerm("region", "Europe"), ConstraintTerm("city")))
    for t1, t2 in ((none, europe), (europe, none), (none, none)):
        spec = CompareSpec(t1, t2, (("week", Measure("AVG", "revenue")),))
        out = compare_topk(sales_df, spec, 3, strategy="trendwise")
        assert out.collect() == []
        assert out.schema == output_schema(sales_df, spec)


@pytest.fixture(scope="module")
def null_week_df(spark):
    rows = [(c, w, float(v)) for c, base in (("a", 1), ("b", 4), ("c", 9))
            for w, v in zip(range(6), range(base, base + 6))]
    # a NULL week in every city: equal keys under IS NOT DISTINCT FROM, but
    # the DIFF join (an equi-join) matches none of them
    rows += [("a", None, 100.0), ("b", None, -50.0), ("c", None, 7.0)]
    df = spark.createDataFrame(
        pd.DataFrame(rows, columns=["city", "week", "revenue"]).astype({"week": "Int64"})
    ).cache()
    df.count()
    yield df
    df.unpersist()


@pytest.mark.parametrize("agg", ["SUM", "AVG", "MIN", "MAX"])
def test_null_grouping_value_matches_nothing(null_week_df, agg):
    ts = TrendsetSpec((ConstraintTerm("city"),))
    spec = CompareSpec(ts, ts, (("week", Measure("AVG", "revenue")),), Scorer(agg, 2))
    out = compare_topk(null_week_df, spec, ALL_PAIRS, strategy="trendwise")
    assert out.count() == 3
    assert_equivalent(out, verbose_sql(spec, "R", dialect="duckdb"), R=null_week_df)
    assert_equivalent(compare(null_week_df, spec, "trendwise"),
                      verbose_sql(spec, "R", dialect="duckdb"), R=null_week_df)
    for client in _clients(null_week_df, spec, None):
        assert_equivalent(client, verbose_sql(spec, "R", dialect="duckdb"), R=null_week_df)
    for client in _clients(null_week_df, spec, 3):
        assert client.count() == 3


@pytest.fixture(scope="module")
def null_city_df(spark):
    """Sales-like rows where some trends have a NULL city or region."""
    rows = []
    for region, city, base in (("E", "a", 1), ("E", "b", 3), ("E", None, 6), ("W", "a", 2),
                               ("W", None, 5), (None, "c", 4), (None, None, 7)):
        for week in range(6):
            rows.append((region, city, "p" if week % 2 else "q", week, float(base * week + week % 3)))
    df = spark.createDataFrame(rows, "region string, city string, product string, week long, revenue double")
    df = df.cache()
    df.count()
    yield df
    df.unpersist()


def _ts(*terms):
    return TrendsetSpec(tuple(ConstraintTerm(*t) for t in terms))


NULL_VARY_SPECS = {
    "all_all": (_ts(("city",)), _ts(("city",))),  # a < b
    "slice_all": (_ts(("region", "E"), ("city",)), _ts(("region",), ("city",))),  # a != b
    "two_cols": (_ts(("region",), ("city",)), _ts(("region",), ("city",))),  # lexicographic a < b
    "cross": (_ts(("city",)), _ts(("product",))),  # every pair
}


@pytest.mark.parametrize("name", sorted(NULL_VARY_SPECS))
@pytest.mark.parametrize("agg", ["SUM", "MAX"])
def test_null_vary_value_is_a_trend_compared_as_sql_does(null_city_df, name, agg):
    """A NULL vary value is a trend of its own (as in a group-by); a pair
    whose pair condition it makes NULL is dropped, as the join drops it;
    ties order it first, as Spark's ascending sort does. ``compare`` runs
    Φp under SUM and the exact top-k under MAX, as the client baselines'
    top-k does. The lazy ``merged`` and ``trendwise`` plans join under
    ``pair_condition``, the verbose SQL's pair predicate."""
    t1, t2 = NULL_VARY_SPECS[name]
    spec = CompareSpec(t1, t2, (("week", Measure("AVG", "revenue")),), Scorer(agg, 1))
    sql = verbose_sql(spec, "R", dialect="duckdb")
    for lazy in ("merged", "trendwise"):
        assert_equivalent(compare(null_city_df, spec, lazy), sql, R=null_city_df)
    exact = topk_exact(compare(null_city_df, spec, "trendwise"), ALL_PAIRS).collect()
    for strategy in ("trendwise", "optimized", "compare"):
        got = compare_topk(null_city_df, spec, ALL_PAIRS, strategy=strategy)
        assert_equivalent(got, sql, R=null_city_df)
        _assert_same_topk(got.collect(), exact, spec)
    for client in (*_clients(null_city_df, spec, None), *_clients(null_city_df, spec, ALL_PAIRS)):
        assert_equivalent(client, sql, R=null_city_df)


def test_nan_measure_drops_its_pairs_on_both_paths(spark):
    """A pair whose matched values include a NaN (here an AVG over NULLs)
    gets no row, in the driver top-k and in the lazy trendwise plan alike;
    SQL's NULL-skipping semantics are not implemented yet."""
    rows = [(c, w, float(w * base)) for c, base in (("a", 1), ("b", 2), ("c", 4)) for w in range(5)]
    rows[7] = ("b", 2, None)
    df = spark.createDataFrame(rows, "city string, week long, revenue double")
    ts = TrendsetSpec((ConstraintTerm("city"),))
    for agg in ("SUM", "MAX"):
        spec = CompareSpec(ts, ts, (("week", Measure("AVG", "revenue")),), Scorer(agg, 1))
        got = compare_topk(df, spec, ALL_PAIRS, strategy="trendwise").collect()
        assert [(r["l_city"], r["r_city"]) for r in got] == [("a", "c")]
        _assert_same_topk(got, topk_exact(compare(df, spec, "trendwise"), ALL_PAIRS).collect(), spec)


@pytest.mark.parametrize("name", ["q4", "ex2b", "max_scorer"])
def test_slice_size_does_not_change_results(request, monkeypatch, name):
    dataset, spec = CATALOG[name]
    df = request.getfixturevalue(fixture_for(dataset))
    whole = compare_topk_exact(df, spec, ALL_PAIRS).collect()
    monkeypatch.setattr(scorer, "SLICE_FLOATS", 1)  # one pair per slice
    sliced = compare_topk_exact(df, spec, ALL_PAIRS).collect()
    assert sliced == whole


@pytest.mark.parametrize("name,block_sides", [("q2", 1), ("q4", 2), ("q3", 4)])
def test_one_action_per_block_side_and_local_result(request, spark, name, block_sides):
    """Each block side is one Spark action, persisted by nothing (a cache
    would add a job to build it). Under adaptive execution, the session's
    default, an action over a block's one shuffle is two jobs: the shuffle's
    map stage, then the result."""
    dataset, spec = CATALOG[name]
    df = request.getfixturevalue(fixture_for(dataset))
    sc = spark.sparkContext
    jobs_per_action = 2 if spark.conf.get("spark.sql.adaptive.enabled") == "true" else 1
    with _job_group(sc, f"exact-call-{name}") as call_jobs:
        out = compare_topk(df, spec, 3, strategy="trendwise")
    with _job_group(sc, f"exact-collect-{name}") as collect_jobs:
        rows = out.collect()
    assert len(call_jobs()) == block_sides * jobs_per_action
    assert collect_jobs() == []
    assert len(rows) == 3
