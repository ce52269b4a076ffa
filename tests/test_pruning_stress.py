"""Randomized regression harness for Φp: ragged trends (missing cells)
with tight p=1 bounds — the configuration that exposed the
threshold-vs-own-bound float-rounding prune bug (see prune_slack)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.compare import compare, topk_exact
from repro.core.pruning import compare_topk_pruned
from repro.core.spec import CompareSpec, ConstraintTerm, Measure, Scorer, TrendsetSpec


def _gen(spark, seed, n_trends=8, n_keys=26, n_rows=3000):
    g = np.random.default_rng(seed)
    pdf = pd.DataFrame(
        {
            "city": g.integers(0, n_trends, n_rows).astype("int64"),
            "week": g.integers(0, n_keys, n_rows).astype("int64"),
        }
    )
    base = g.normal(50, 20, n_trends)
    phase = g.uniform(0, 6.28, n_trends)
    pdf["revenue"] = (
        base[pdf["city"]]
        + 8 * np.sin(2 * np.pi * pdf["week"] / n_keys + phase[pdf["city"]])
        + g.normal(0, 5, n_rows)
    )
    return spark.createDataFrame(pdf[g.random(n_rows) >= 0.05])


def _spec(p, agg):
    return CompareSpec(
        TrendsetSpec((ConstraintTerm("city"),)),
        TrendsetSpec((ConstraintTerm("city"),)),
        (("week", Measure("AVG", "revenue")),),
        Scorer(agg, p),
    )


# seeds 20/21/28 reproduced the historical bug; 3 and 7 are fresh draws
@pytest.mark.parametrize("seed", [3, 7, 20, 21, 28])
@pytest.mark.parametrize(
    "p,agg,asc,k",
    [(1, "SUM", False, 3), (2, "SUM", True, 3), (1, "AVG", True, 2), (2, "AVG", False, 4)],
)
def test_pruned_topk_matches_exact(spark, seed, p, agg, asc, k):
    df = _gen(spark, seed).cache()
    df.count()
    try:
        spec = _spec(p, agg)
        exact = sorted(
            round(s, 6)
            for s in topk_exact(compare(df, spec, "trendwise"), k, asc).toPandas()["score"]
        )
        for kw in ({}, {"tuples_per_update": 3}, {"n_segments": 2}):
            got = sorted(
                round(s, 6)
                for s in compare_topk_pruned(df, spec, k, ascending=asc, **kw)
                .toPandas()["score"]
            )
            assert got == pytest.approx(exact), f"kw={kw}"
    finally:
        df.unpersist()
