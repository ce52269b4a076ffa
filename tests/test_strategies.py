"""Every exact execution strategy must equal DuckDB on the verbose SQL.

This is the core correctness matrix: {basic, merged, trendwise,
optimized} × every catalog spec shape, plus cross-strategy agreement
checks over cross-grouping merged aggregates (the §4.2 re-aggregation
path Algorithm 1 can choose), one output schema across strategies, and
lazy trendwise's trend chunks.
"""
import math

import numpy as np
import pandas as pd
import pytest

from repro.baselines.naive_sql import compare_topk_naive_sql
from repro.core import trendwise
from repro.core.aggregates import MergeGroup
from repro.core.compare import compare, compare_topk
from repro.core.basic import compare_merged
from repro.core.pairs import output_schema
from repro.core.spec import CompareSpec, Measure, Scorer
from repro.core.trendwise import compare_trendwise

from .conftest import check_against_oracle
from .pair_reference import score_pair
from .spec_catalog import CATALOG, fixture_for, ts

STRATEGIES = ("basic", "merged", "trendwise", "optimized")


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_strategy_matches_oracle(request, name, strategy):
    dataset, spec = CATALOG[name]
    df = request.getfixturevalue(fixture_for(dataset))
    check_against_oracle(compare(df, spec, strategy=strategy), spec, df)


@pytest.mark.parametrize("name", ["ex1b", "q3", "q4"])
def test_cross_grouping_merge_matches_oracle(request, name):
    """Force a single merged group-by over *all* groupings (§4.2 steps 1–4:
    partial aggregates + re-aggregation) and check exactness."""
    dataset, spec = CATALOG[name]
    df = request.getfixturevalue(fixture_for(dataset))
    groups = [MergeGroup(spec.gms)]
    out = compare_merged(df, spec, groups)
    check_against_oracle(out, spec, df)


@pytest.mark.parametrize("name", ["ex1b", "q4"])
def test_trendwise_with_cross_grouping_merge(request, name):
    dataset, spec = CATALOG[name]
    df = request.getfixturevalue(fixture_for(dataset))
    out = compare_trendwise(df, spec, groups=[MergeGroup(spec.gms)])
    check_against_oracle(out, spec, df)


def test_output_schema_canonical(request, flight_df):
    from repro.core.spec import output_cols

    _, spec = CATALOG["q1"]
    out = compare(flight_df, spec, strategy="trendwise")
    assert out.columns == output_cols(spec)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_lazy_schema_is_the_output_schema(request, name):
    """Every strategy, and the naive-SQL top-k, types each output column as
    the driver top-k does: a fixed term as its base column (``tpcds_q1``'s
    ``l_ws_web_page_sk`` is a bigint, not the Python literal's int)."""
    dataset, spec = CATALOG[name]
    df = request.getfixturevalue(fixture_for(dataset))

    def typed(schema):
        return [(f.name, f.dataType) for f in schema.fields]

    expected = typed(output_schema(df, spec))
    assert typed(compare_topk(df, spec, 1).schema) == expected
    assert typed(compare_topk_naive_sql(df, spec, 1).schema) == expected
    for strategy in STRATEGIES:
        assert typed(compare(df, spec, strategy).schema) == expected, strategy


def test_pair_filter_scores_only_its_pairs(flight_df):
    """A chained stage's ``pair_filter`` (§6 R4) keeps exactly its pairs,
    not every pair of the trends it names on each side."""
    _, spec = CATALOG["q2"]
    full = compare_trendwise(flight_df, spec)
    keys = ["l_airport", "r_airport"]
    rows = full.toPandas().sort_values(keys).reset_index(drop=True)
    kept = rows.iloc[[0, len(rows) - 1]].reset_index(drop=True)
    assert kept.loc[0, "l_airport"] < kept.loc[1, "r_airport"]  # their sides make a third pair
    survivors = full.select(*keys).join(
        flight_df.sparkSession.createDataFrame(kept[keys]), on=keys, how="left_semi"
    )
    got = compare_trendwise(flight_df, spec, pair_filter=survivors).toPandas()
    pd.testing.assert_frame_equal(got.sort_values(keys).reset_index(drop=True), kept)


class TestTrendChunks:
    """Lazy trendwise scores every (chunk₁, chunk₂) pair of trend chunks in
    one task: one chunk per side and several give the same rows."""

    @staticmethod
    def _rows(monkeypatch, df, spec, c) -> pd.DataFrame:
        monkeypatch.setattr(trendwise, "n_chunks", lambda _spark: c)
        out = compare_trendwise(df, spec).toPandas()
        keys = [col for col in out.columns if col != "score"]
        return out.sort_values(keys).reset_index(drop=True)

    def _same_rows(self, monkeypatch, df, spec) -> pd.DataFrame:
        one = self._rows(monkeypatch, df, spec, 1)
        pd.testing.assert_frame_equal(self._rows(monkeypatch, df, spec, 3), one)
        return one

    def test_shared_block_scores_each_unordered_pair_once(self, monkeypatch, flight_df):
        _, spec = CATALOG["q2"]  # one block read by both sides, a < b
        rows = self._same_rows(monkeypatch, flight_df, spec)
        n = flight_df.select("airport").distinct().count()
        assert (rows["l_airport"] < rows["r_airport"]).all()
        pairs = rows.drop_duplicates(["l_airport", "r_airport"])
        assert len(rows) == len(pairs) == n * (n - 1) // 2
        check_against_oracle(compare_trendwise(flight_df, spec), spec, flight_df)

    def test_slice_derived_side(self, monkeypatch, flight_df):
        _, spec = CATALOG["q1"]  # T1 is filtered out of T2's block
        assert len(self._same_rows(monkeypatch, flight_df, spec)) > 0

    def test_empty_trendset(self, monkeypatch, sales_df):
        spec = CompareSpec(
            ts(("region", "Nowhere"), ("city",)), ts(("region", "Asia"), ("city",)),
            (("week", Measure("AVG", "revenue")),),
        )
        rows = self._same_rows(monkeypatch, sales_df, spec)
        assert rows.empty and list(rows.columns) == output_schema(sales_df, spec).names

    @pytest.mark.parametrize("agg", ["SUM", "MAX"])
    def test_ragged_wide_domain_matches_per_pair_reference(self, monkeypatch, spark, agg):
        rng = np.random.default_rng(5)
        nd, cities = 3000, [f"c{i}" for i in range(7)]  # a domain much wider than any trend
        keys = {c: np.sort(rng.choice(nd, rng.integers(3, 60), replace=False)) for c in cities}
        keys["c6"] = np.array([nd + 1])  # matches no other trend: its pairs have no row
        vals = {c: rng.normal(size=len(k)) for c, k in keys.items()}
        df = spark.createDataFrame(
            [(c, int(w), float(v)) for c in cities for w, v in zip(keys[c], vals[c])],
            "city string, week long, revenue double",
        )
        gm = ("week", Measure("AVG", "revenue"))
        spec = CompareSpec(ts(("city",)), ts(("city",)), (gm,), Scorer(agg, 2))
        rows = self._same_rows(monkeypatch, df, spec)
        exp = {
            (a, b): score_pair(spec.scorer, keys[a], vals[a], keys[b], vals[b])
            for i, a in enumerate(cities) for b in cities[i + 1:]
        }
        exp = {pair: s for pair, s in exp.items() if not math.isnan(s)}
        got = dict(zip(zip(rows["l_city"], rows["r_city"]), rows["score"]))
        assert got.keys() == exp.keys()
        assert [got[p] for p in exp] == pytest.approx(list(exp.values()), rel=1e-12)
