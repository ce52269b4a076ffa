"""Timing + dataset harness for the jobs/ entrypoints.

Datasets are generated once per (name, sf, …) and cached in memory
(paper §8 reports warm runs with tables in the buffer pool). Every
measured execution materializes its result and releases any persisted
merged aggregates afterwards so runs are independent.
"""
from __future__ import annotations

import os
import time

from pyspark.sql import DataFrame, SparkSession

from repro import synth_data as sd
from repro.baselines.middleware import compare_middleware
from repro.baselines.naive_sql import compare_topk_naive_sql
from repro.baselines.udf import compare_udf
from repro.core.aggregates import clear_cache
from repro.core.compare import compare_topk

from .workloads import Workload

BENCH_SF = float(os.environ.get("REPRO_BENCH_SF", "0.05"))
#: simulated middleware link (paper: 10 MB/s); override for tests
MIDDLEWARE_MBPS = float(os.environ.get("REPRO_MIDDLEWARE_MBPS", "10"))

_CACHE: dict[tuple, DataFrame] = {}


def tune_session(spark: SparkSession) -> None:
    """Right-size reduce-side parallelism for laptop-scale inputs.

    At SF≲0.1 every shuffle holds a few MB; with the default 64 shuffle
    partitions a multi-(g, m) plan schedules hundreds of near-empty
    tasks and wall-clock is pure scheduling overhead. Letting AQE
    coalesce by size (``parallelismFirst=false``) and capping the
    partition count makes all strategies pay for *work*, not tasks —
    the regime the paper measures.
    """
    spark.conf.set("spark.sql.adaptive.coalescePartitions.parallelismFirst", "false")
    spark.conf.set(
        "spark.sql.shuffle.partitions",
        str(min(16, spark.sparkContext.defaultParallelism)),
    )


def get_dataset(
    spark: SparkSession, name: str, sf: float, *, n_entities: int | None = None
) -> DataFrame:
    """Cached, materialized benchmark input ('flight' or 'tpcds')."""
    key = (name, sf, n_entities)
    if key not in _CACHE:
        if name == "flight":
            df = sd.flights(spark, sf=sf, n_airports=n_entities or 128)
        elif name == "tpcds":
            df = sd.websales(spark, sf=sf, n_pages=n_entities or 96)
        else:
            raise ValueError(name)
        df = df.cache()
        df.count()
        _CACHE[key] = df
    return _CACHE[key]


def drop_datasets() -> None:
    while _CACHE:
        df = _CACHE.popitem()[1]
        try:
            df.unpersist()
        except Exception:
            pass  # session already stopped


def execute(method: str, df: DataFrame, wl: Workload, **kw) -> int:
    """Run one top-k comparative query end to end; returns result rows."""
    k, asc = wl.k, wl.ascending
    if method == "naive_sql":
        return len(compare_topk_naive_sql(df, wl.spec, k, asc).collect())
    if method == "udf":
        return len(compare_udf(df, wl.spec, k=k, ascending=asc).collect())
    if method == "middleware":
        bw = kw.pop("bandwidth_mbps", MIDDLEWARE_MBPS)
        return len(compare_middleware(df, wl.spec, k=k, ascending=asc, bandwidth_mbps=bw))
    # COMPARE strategies (full system + ablation levels)
    out = compare_topk(df, wl.spec, k, ascending=asc, strategy=method, fds=wl.fds, **kw)
    return len(out.collect())


def timed(fn, *args, repeat: int = 1, **kw) -> float:
    """Best-of-``repeat`` wall-clock seconds; clears plan caches between runs."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args, **kw)
        best = min(best, time.perf_counter() - t0)
        clear_cache()
    return best


def speedup_row(label: str, base_s: float, times: dict[str, float]) -> dict:
    """Fig. 9-style row: per-method speedup w.r.t. the naive-SQL plan."""
    row = {"query": label, "naive_sql_s": round(base_s, 3)}
    for m, t in times.items():
        row[f"{m}_s"] = round(t, 3)
        row[f"{m}_x"] = round(base_s / t, 2) if t > 0 else float("inf")
    return row


def print_table(rows: list[dict], title: str) -> None:
    """Render rows as a GitHub-markdown table (jobs' output format)."""
    if not rows:
        print(f"## {title}\n(no rows)")
        return
    cols = list(rows[0].keys())
    print(f"\n## {title}\n")
    print("| " + " | ".join(cols) + " |")
    print("|" + "|".join("---" for _ in cols) + "|")
    for r in rows:
        print("| " + " | ".join(str(r.get(c, "")) for c in cols) + " |")
