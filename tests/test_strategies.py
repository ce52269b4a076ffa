"""Every exact execution strategy must equal DuckDB on the verbose SQL.

This is the core correctness matrix: {basic, merged, trendwise,
optimized} × every catalog spec shape, plus cross-strategy agreement
checks over cross-grouping merged aggregates (the §4.2 re-aggregation
path Algorithm 1 can choose).
"""
import pytest

from repro.core.aggregates import MergeGroup
from repro.core.compare import compare
from repro.core.basic import compare_merged
from repro.core.trendwise import compare_trendwise

from .conftest import check_against_oracle
from .spec_catalog import CATALOG, fixture_for

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
