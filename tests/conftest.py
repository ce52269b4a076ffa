"""Shared fixtures: tiny cached datasets and oracle helpers.

All correctness tests run at SF≈0.004 (a few thousand rows) and check
results against DuckDB via ``repro.oracle.assert_equivalent`` over the
verbose Fig. 3 SQL.
"""
import pytest

from repro import synth_data as sd
from repro.core.sql_gen import verbose_sql
from repro.oracle import assert_equivalent


@pytest.fixture(scope="session", autouse=True)
def _tuned(spark):
    """Tune the shared session as the benchmarks do
    (:func:`repro.bench.harness.tune_session`): it sets the shuffle
    partition count, so the root ``spark`` fixture leaves it unset."""
    from repro.bench.harness import tune_session

    tune_session(spark)
    yield


@pytest.fixture(scope="session")
def sales_df(spark):
    df = sd.sales(spark, sf=0.02).cache()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def flight_df(spark):
    df = sd.flights(spark, sf=0.002, n_airports=8, n_days=56).cache()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def websales_df(spark):
    df = sd.websales(spark, sf=0.002, n_pages=8, n_items=30, n_days=40).cache()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def webpages_df(spark):
    df = sd.webpages(spark, n_pages=8).cache()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def warehouses_df(spark):
    df = sd.warehouses(spark).cache()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def dup_df(spark):
    """City trends over 12 weeks where b copies a and d copies c, so (a|b,
    c|d) pairs tie four ways and (a|b, e), (c|d, e) two ways; one row per
    cell keeps AVG exact."""
    import numpy as np
    import pandas as pd

    weeks = np.arange(12)
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


def check_against_oracle(result_df, spec, base_df):
    """Diff a COMPARE result against DuckDB running the verbose SQL."""
    assert_equivalent(result_df, verbose_sql(spec, "R", dialect="duckdb"), R=base_df)
