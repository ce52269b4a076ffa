"""The three §8 baselines must produce the same results as COMPARE:
verbose-SQL-through-Catalyst, sequential UDF, and middleware client."""
import pandas as pd
import pytest

from repro.baselines.middleware import compare_middleware
from repro.baselines.naive_sql import compare_naive_sql, compare_topk_naive_sql
from repro.baselines.udf import compare_udf
from repro.core.aggregates import gm_relations, plan_vector_blocks
from repro.core.compare import compare, compare_topk, topk_exact
from repro.core.pairs import output_schema
from repro.core.spec import CompareSpec, ConstraintTerm, Measure, Scorer, TrendsetSpec

from .conftest import check_against_oracle
from .spec_catalog import CATALOG, fixture_for

BASELINE_SPECS = ["ex1a", "ex2a", "q1", "q2", "q3", "q4", "tpcds_q1", "avg_scorer", "manhattan"]


@pytest.mark.parametrize("name", BASELINE_SPECS)
def test_naive_sql_matches_oracle(request, name):
    dataset, spec = CATALOG[name]
    df = request.getfixturevalue(fixture_for(dataset))
    check_against_oracle(compare_naive_sql(df, spec), spec, df)


@pytest.mark.parametrize("name", BASELINE_SPECS)
def test_udf_matches_oracle(request, name):
    dataset, spec = CATALOG[name]
    df = request.getfixturevalue(fixture_for(dataset))
    check_against_oracle(compare_udf(df, spec), spec, df)


@pytest.mark.parametrize("name", BASELINE_SPECS)
def test_middleware_matches_compare(request, name):
    dataset, spec = CATALOG[name]
    df = request.getfixturevalue(fixture_for(dataset))
    client = compare_middleware(df, spec, bandwidth_mbps=None)
    engine = compare(df, spec, strategy="trendwise").toPandas()
    key = [c for c in engine.columns if c != "score"]
    a = client.sort_values(key).reset_index(drop=True)
    b = engine.sort_values(key).reset_index(drop=True)
    assert len(a) == len(b)
    pd.testing.assert_frame_equal(
        a[key].astype(str), b[key].astype(str), check_dtype=False
    )
    assert a["score"].round(5).tolist() == pytest.approx(b["score"].round(5).tolist())


def _assert_same_rows(got: pd.DataFrame, exp: pd.DataFrame):
    """Same pairs in the same order (identity exact), scores to 6 places."""
    ids = [c for c in exp.columns if c != "score"]
    assert [tuple(r) for r in got[ids].itertuples(index=False)] == [
        tuple(r) for r in exp[ids].itertuples(index=False)
    ]
    assert got["score"].round(6).tolist() == pytest.approx(exp["score"].round(6).tolist())


def _exact(df, spec, k, ascending):
    return topk_exact(compare(df, spec, "trendwise"), k, ascending).toPandas()


@pytest.mark.parametrize("name", ["q2", "q4", "max_scorer", "min_scorer"])
@pytest.mark.parametrize("ascending", [True, False])
def test_udf_topk_matches_exact(request, name, ascending):
    dataset, spec = CATALOG[name]
    df = request.getfixturevalue(fixture_for(dataset))
    got = compare_udf(df, spec, k=3, ascending=ascending).toPandas()
    _assert_same_rows(got, _exact(df, spec, 3, ascending))


@pytest.mark.parametrize("name", ["q2", "q4", "max_scorer", "min_scorer"])
def test_middleware_topk_matches_exact(request, name):
    dataset, spec = CATALOG[name]
    df = request.getfixturevalue(fixture_for(dataset))
    for ascending in (True, False):
        got = compare_middleware(df, spec, k=3, ascending=ascending, bandwidth_mbps=None)
        _assert_same_rows(got, _exact(df, spec, 3, ascending))


@pytest.mark.parametrize("agg", ["SUM", "MAX"])
def test_client_topk_keeps_tie_order(dup_df, agg):
    """Duplicated trends tie at the k-th score: both clients pick and order
    the tied pairs by output identity, as ``topk_exact`` does."""
    ts = TrendsetSpec((ConstraintTerm("city"),))
    spec = CompareSpec(ts, ts, (("week", Measure("AVG", "revenue")),), Scorer(agg, 1))
    for ascending in (True, False):
        for k in range(1, 7):
            exp = _exact(dup_df, spec, k, ascending)
            assert len(exp) == k
            _assert_same_rows(compare_udf(dup_df, spec, k=k, ascending=ascending).toPandas(), exp)
            got = compare_middleware(dup_df, spec, k=k, ascending=ascending, bandwidth_mbps=None)
            _assert_same_rows(got, exp)


def test_client_empty_trendset_gives_empty_result(sales_df):
    none = TrendsetSpec((ConstraintTerm("region", "Atlantis"), ConstraintTerm("city")))
    europe = TrendsetSpec((ConstraintTerm("region", "Europe"), ConstraintTerm("city")))
    for t1, t2 in ((none, europe), (europe, none), (none, none)):
        spec = CompareSpec(t1, t2, (("week", Measure("AVG", "revenue")),))
        for k in (None, 3):
            udf = compare_udf(sales_df, spec, k=k)
            assert udf.collect() == []
            assert udf.schema == output_schema(sales_df, spec)
            mw = compare_middleware(sales_df, spec, k=k, bandwidth_mbps=None)
            assert mw.empty and list(mw.columns) == output_schema(sales_df, spec).names


def test_naive_sql_topk_matches_compare_topk(request, flight_df):
    _, spec = CATALOG["q2"]
    a = compare_topk_naive_sql(flight_df, spec, 3, True).toPandas()
    b = compare_topk(flight_df, spec, 3, ascending=True, strategy="compare").toPandas()
    assert sorted(a["score"].round(6)) == pytest.approx(sorted(b["score"].round(6)))


def test_verbose_sql_keeps_callers_input_cached(spark, flight_df):
    """The verbose-SQL paths register one temp view per input plan and keep
    it: dropping or replacing the view would uncache the caller's cached
    DataFrame, and a view per call would grow the catalog per query."""
    _, spec = CATALOG["q2"]
    assert flight_df.storageLevel.useMemory
    before = len(spark.catalog.listTables())
    for _ in range(3):
        compare(flight_df, spec, "basic").collect()
        compare_topk_naive_sql(flight_df, spec, 3, True).collect()
    assert len(spark.catalog.listTables()) - before <= 1
    assert flight_df.storageLevel.useMemory


def test_verbose_sql_tells_inputs_apart_by_column_names(sales_df):
    """Inputs that differ only by aliases have one canonical plan (and
    semantic hash), but must not share a view: each call reads its own
    columns, renamed or swapped."""
    from pyspark.sql import functions as F

    def over(df, measure):
        ts = TrendsetSpec((ConstraintTerm("region", "Asia"), ConstraintTerm("city")))
        return CompareSpec(ts, ts, (("week", Measure("AVG", measure)),))

    keys = [F.col("region"), F.col("city"), F.col("week")]
    renamed = [sales_df.select(*keys, F.col("revenue").alias(a)) for a in ("x", "y")]
    swapped = [
        sales_df.select(*keys, F.col("revenue").alias(a), F.col("profit").alias(b))
        for a, b in (("x", "y"), ("y", "x"))
    ]
    for df, measure in [(renamed[0], "x"), (renamed[1], "y"), (swapped[0], "x"), (swapped[1], "x")]:
        spec = over(df, measure)
        check_against_oracle(compare(df, spec, "basic"), spec, df)
        check_against_oracle(compare_naive_sql(df, spec), spec, df)


def test_middleware_reports_bytes(request, flight_df):
    _, spec = CATALOG["q1"]
    _, nbytes = compare_middleware(
        flight_df, spec, bandwidth_mbps=None, return_bytes=True
    )
    assert nbytes > 0


@pytest.mark.parametrize("name, fetches_per_gm", [("q2", 1), ("q1", 2)])
def test_middleware_fetches_shared_aggregate_once(request, monkeypatch, name, fetches_per_gm):
    """Identical trendsets share one aggregate per (g, m), fetched once; a
    slice-derived T1 is a second query."""
    import repro.baselines.middleware as mw

    dataset, spec = CATALOG[name]
    df = request.getfixturevalue(fixture_for(dataset))
    fetch, calls = mw._fetch, []

    def counting_fetch(rel, bandwidth_mbps):
        calls.append(rel)
        return fetch(rel, bandwidth_mbps)

    monkeypatch.setattr(mw, "_fetch", counting_fetch)
    compare_middleware(df, spec, bandwidth_mbps=None)
    assert len(calls) == fetches_per_gm * len(spec.gms)


def test_udf_ships_shared_aggregate_once(monkeypatch, flight_df):
    """Identical trendsets share one aggregate per (g, m): the UDF's input
    carries each of its rows once (448 on q2, not 448 per side), and the
    result still matches the oracle."""
    _, spec = CATALOG["q2"]
    rels = gm_relations(plan_vector_blocks(flight_df, spec), spec)
    assert all(rels[gm][0] is rels[gm][1] for gm in spec.gms)
    frame = type(flight_df)
    map_in_pandas, inputs = frame.mapInPandas, []

    def recording(self, *args, **kw):
        inputs.append(self)
        return map_in_pandas(self, *args, **kw)

    monkeypatch.setattr(frame, "mapInPandas", recording)
    out = compare_udf(flight_df, spec)
    assert [rel.count() for rel in inputs] == [sum(rels[gm][1].count() for gm in spec.gms)]
    check_against_oracle(out, spec, flight_df)


def test_middleware_bandwidth_slows_transfer(request, flight_df):
    import time

    _, spec = CATALOG["q1"]
    t0 = time.perf_counter()
    _, nbytes = compare_middleware(
        flight_df, spec, bandwidth_mbps=None, return_bytes=True
    )
    fast = time.perf_counter() - t0
    slow_bw = max(0.05, nbytes / 1_000_000 / 2)  # ≥2s of simulated transfer
    t0 = time.perf_counter()
    compare_middleware(flight_df, spec, bandwidth_mbps=slow_bw)
    slow = time.perf_counter() - t0
    assert slow > fast
