"""End-to-end §3.2 top-k comparative queries: COMPARE + ORDER BY/LIMIT,
checked against DuckDB running the verbose top-k SQL."""
import duckdb
import pytest

from repro.core.compare import compare, compare_topk, topk_exact
from repro.core.sql_gen import topk_sql

from .spec_catalog import CATALOG, fixture_for


def _oracle_topk(df, spec, k, ascending):
    con = duckdb.connect()
    try:
        con.register("R", df.toPandas())
        return con.execute(topk_sql(spec, k, ascending, "R", "duckdb")).fetchdf()
    finally:
        con.close()


@pytest.mark.parametrize("name", ["q1", "q2", "ex1a", "ex2a"])
@pytest.mark.parametrize("ascending", [True, False])
def test_topk_scores_match_oracle(request, name, ascending):
    dataset, spec = CATALOG[name]
    df = request.getfixturevalue(fixture_for(dataset))
    got = compare_topk(df, spec, 3, ascending=ascending, strategy="compare").toPandas()
    exp = _oracle_topk(df, spec, 3, ascending)
    assert sorted(got["score"].round(6)) == pytest.approx(sorted(exp["score"].round(6)))


@pytest.mark.parametrize("name", ["q2", "ex2a"])
def test_topk_identities_match_oracle(request, name):
    """Not just scores: the winning pairs themselves must agree."""
    dataset, spec = CATALOG[name]
    df = request.getfixturevalue(fixture_for(dataset))
    got = compare_topk(df, spec, 3, ascending=True, strategy="compare").toPandas()
    exp = _oracle_topk(df, spec, 3, True)
    key_cols = [c for c in got.columns if c not in ("score",)]
    got_keys = set(map(tuple, got[key_cols].itertuples(index=False)))
    exp_keys = set(map(tuple, exp[key_cols].itertuples(index=False)))
    assert got_keys == exp_keys


def test_example_1a_most_dissimilar_product(request, sales_df):
    """§2.1 example 1a: the product whose trend deviates most from Asia's."""
    _, spec = CATALOG["ex1a"]
    top = compare_topk(sales_df, spec, 1, ascending=False, strategy="compare").toPandas()
    exp = _oracle_topk(sales_df, spec, 1, False)
    assert top.loc[0, "r_product"] == exp.loc[0, "r_product"]


def test_topk_k_larger_than_pairs(request, flight_df):
    _, spec = CATALOG["q1"]
    got = compare_topk(flight_df, spec, 1000, ascending=True, strategy="compare")
    assert got.count() == 7  # 8 airports minus the reference itself


def test_exact_and_pruned_agree_on_order(request, flight_df):
    _, spec = CATALOG["q2"]
    exact = topk_exact(compare(flight_df, spec, "trendwise"), 5, True).toPandas()
    pruned = compare_topk(flight_df, spec, 5, ascending=True, strategy="compare").toPandas()
    assert exact["score"].round(6).tolist() == pytest.approx(
        sorted(pruned["score"].round(6).tolist())
    )
