"""Synthetic OLAP data at a configurable scale factor.

Tests use SF<=0.01; benchmarks use SF~=0.1. Generators are
deterministic in ``seed`` so the DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# COMPARE-paper substrates: Flight and TPC-DS(web_sales)-lite.
#
# The paper evaluates on the stat-computing.org airline dataset (74M rows,
# 384 airports) and TPC-DS SF100 web_sales (720M rows, 2040 webpages) —
# neither is available offline, so these generators synthesize the same
# *shape*: per-entity trends with realistic similarity structure (a
# per-entity base level + seasonal sinusoid + noise), SF-scaled row counts,
# and PK-FK integrity for the star-schema experiments (§6 R1, Fig. 13).
# See DESIGN.md §2 for the substitution argument.
# ---------------------------------------------------------------------------

_N_FLIGHTS_PER_SF = 7_400_000
_N_WEBSALES_PER_SF = 7_200_000

FLIGHT_MEASURES = ("arr_delay", "dep_delay", "weather_delay", "carrier_delay", "duration")


def flights(
    spark: SparkSession,
    *,
    sf: float = 0.01,
    seed: int = 11,
    n_airports: int = 64,
    n_days: int = 365,
) -> DataFrame:
    """Flight-lite: one row per flight with per-airport delay trends.

    Columns: airport (str), day, week, month (ints; week/month are
    functions of day), and the five delay/duration measures. Each
    airport gets its own base level, seasonal amplitude and phase per
    measure so airport trends are distinct but correlated — top-k
    similarity queries over them are non-degenerate.
    """
    n = max(1, int(_N_FLIGHTS_PER_SF * sf))
    g = _rng(seed)
    airport_idx = g.integers(0, n_airports, n)
    day = g.integers(0, n_days, n)
    pdf = pd.DataFrame(
        {
            "airport": np.char.add("A", airport_idx.astype(str)).astype(object),
            "day": day.astype("int64"),
            "week": (day // 7).astype("int64"),
            "month": (day // 30).astype("int64"),
        }
    )
    for mi, m in enumerate(FLIGHT_MEASURES):
        mg = _rng(seed + 100 + mi)
        base = mg.normal(30, 10, n_airports)
        amp = mg.normal(10, 4, n_airports)
        phase = mg.uniform(0, 2 * np.pi, n_airports)
        season = np.sin(2 * np.pi * day / n_days + phase[airport_idx])
        vals = base[airport_idx] + amp[airport_idx] * season + mg.normal(0, 5, n)
        pdf[m] = vals.round(3)
    return spark.createDataFrame(pdf)


def websales(
    spark: SparkSession,
    *,
    sf: float = 0.01,
    seed: int = 21,
    n_pages: int = 60,
    n_items: int = 120,
    n_warehouses: int = 10,
    n_days: int = 180,
) -> DataFrame:
    """TPC-DS-lite ``web_sales`` fact table with FK columns
    ``ws_web_page_sk`` (→ webpages) and ``ws_warehouse_sk`` (→ warehouses)."""
    n = max(1, int(_N_WEBSALES_PER_SF * sf))
    g = _rng(seed)
    page = g.integers(1, n_pages + 1, n)
    item = g.integers(1, n_items + 1, n)
    day = g.integers(0, n_days, n)
    base = _rng(seed + 1).normal(50, 20, n_pages)
    amp = _rng(seed + 2).normal(15, 5, n_pages)
    phase = _rng(seed + 3).uniform(0, 2 * np.pi, n_pages)
    profit = (
        base[page - 1]
        + amp[page - 1] * np.sin(2 * np.pi * item / n_items + phase[page - 1])
        + g.normal(0, 8, n)
    )
    pdf = pd.DataFrame(
        {
            "ws_web_page_sk": page.astype("int64"),
            "ws_item_sk": item.astype("int64"),
            "ws_sold_date_sk": day.astype("int64"),
            "ws_warehouse_sk": g.integers(1, n_warehouses + 1, n).astype("int64"),
            "ws_quantity": g.integers(1, 100, n).astype("float64"),
            "ws_net_profit": profit.round(3),
        }
    )
    return spark.createDataFrame(pdf)


def webpages(spark: SparkSession, *, n_pages: int = 60, seed: int = 22) -> DataFrame:
    """TPC-DS-lite ``web_page`` dimension (PK: wp_web_page_sk)."""
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "wp_web_page_sk": np.arange(1, n_pages + 1).astype("int64"),
            "wp_type": g.choice(["order", "review", "dynamic", "feedback"], n_pages),
            "wp_char_count": g.integers(100, 10000, n_pages).astype("int64"),
        }
    )
    return spark.createDataFrame(pdf)


def warehouses(spark: SparkSession, *, n_warehouses: int = 10, seed: int = 23) -> DataFrame:
    """TPC-DS-lite ``warehouse`` dimension (PK: w_warehouse_sk)."""
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "w_warehouse_sk": np.arange(1, n_warehouses + 1).astype("int64"),
            "w_state": g.choice(["CA", "WA", "TX", "NY", "IL"], n_warehouses),
            "w_sqft": g.integers(10_000, 500_000, n_warehouses).astype("int64"),
        }
    )
    return spark.createDataFrame(pdf)


def sales(
    spark: SparkSession,
    *,
    sf: float = 0.01,
    seed: int = 31,
    n_weeks: int = 26,
) -> DataFrame:
    """The paper's running example (§2.1): sales with region / city /
    product / country constraints and week / month groupings."""
    n = max(1, int(200_000 * sf))
    g = _rng(seed)
    regions = np.array(["Asia", "Europe"], dtype=object)
    cities = {
        "Asia": ["Tokyo", "Delhi", "Seoul", "Jakarta"],
        "Europe": ["Paris", "Berlin", "Madrid", "Rome"],
    }
    products = np.array(["Inspiron", "XPS", "G7", "G8"], dtype=object)
    countries = np.array(["JP", "IN", "KR", "FR", "DE", "ES"], dtype=object)
    region = g.choice(regions, n)
    city = np.array(
        [cities[r][i] for r, i in zip(region, g.integers(0, 4, n))], dtype=object
    )
    week = g.integers(0, n_weeks, n)
    # stable per-city base level (NOT hash(): that is randomized per process)
    all_cities = [c for r in ("Asia", "Europe") for c in cities[r]]
    base = {
        c: 50 + 15 * np.sin(2 * np.pi * (i % 7) / 7)
        for i, c in enumerate(all_cities)
    }
    rev = np.array([base[c] for c in city]) + 10 * np.sin(
        2 * np.pi * week / n_weeks
    ) + g.normal(0, 5, n)
    pdf = pd.DataFrame(
        {
            "region": region,
            "city": city,
            "product": g.choice(products, n),
            "country": g.choice(countries, n),
            "week": week.astype("int64"),
            "month": (week // 4).astype("int64"),
            "revenue": rev.round(3),
            "profit": (rev * g.uniform(0.05, 0.3, n)).round(3),
            "quantity": g.integers(1, 20, n).astype("float64"),
        }
    )
    return spark.createDataFrame(pdf)
