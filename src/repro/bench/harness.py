"""Timing + dataset harness for the jobs/ entrypoints.

Inside one :func:`dataset_cache` block, datasets are generated once per
(name, sf, …) and cached in memory (paper §8 reports warm runs with
tables in the buffer pool). Every measured execution materializes its
result; a COMPARE strategy releases the aggregates it persisted before
it returns, so runs are independent.
"""
from __future__ import annotations

import os
import time
from contextlib import contextmanager

from pyspark.sql import DataFrame, SparkSession

from repro import synth_data as sd
from repro.baselines.middleware import compare_middleware
from repro.baselines.naive_sql import compare_topk_naive_sql
from repro.baselines.udf import compare_udf
from repro.core.compare import compare_topk

from .workloads import Workload

BENCH_SF = float(os.environ.get("REPRO_BENCH_SF", "0.05"))
#: simulated middleware link (paper: 10 MB/s); a caller passes ``bandwidth_mbps``
MIDDLEWARE_MBPS = float(os.environ.get("REPRO_MIDDLEWARE_MBPS", "10"))


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


@contextmanager
def dataset_cache(spark: SparkSession):
    """Yields ``get(name, sf, *, n_entities=None)``: the cached, materialized
    benchmark input 'flight' or 'tpcds', generated once per key inside the
    block; every input it cached is unpersisted when the block exits."""
    cache: dict[tuple, DataFrame] = {}

    def get(name: str, sf: float, *, n_entities: int | None = None) -> DataFrame:
        key = (name, sf, n_entities)
        if key not in cache:
            if name == "flight":
                df = sd.flights(spark, sf=sf, n_airports=n_entities or 128)
            elif name == "tpcds":
                df = sd.websales(spark, sf=sf, n_pages=n_entities or 96)
            else:
                raise ValueError(name)
            df = df.cache()
            df.count()
            cache[key] = df
        return cache[key]

    try:
        yield get
    finally:
        for df in cache.values():
            df.unpersist()


def execute(
    method: str, df: DataFrame, wl: Workload, *, bandwidth_mbps: float | None = MIDDLEWARE_MBPS
) -> int:
    """Run one top-k comparative query end to end; returns result rows.

    ``bandwidth_mbps`` is the middleware's simulated link (``None`` or 0:
    no simulated transfer)."""
    k, asc = wl.k, wl.ascending
    if method == "naive_sql":
        return len(compare_topk_naive_sql(df, wl.spec, k, asc).collect())
    if method == "udf":
        return len(compare_udf(df, wl.spec, k=k, ascending=asc).collect())
    if method == "middleware":
        return len(
            compare_middleware(df, wl.spec, k=k, ascending=asc, bandwidth_mbps=bandwidth_mbps)
        )
    # COMPARE strategies (full system + ablation levels)
    out = compare_topk(df, wl.spec, k, ascending=asc, strategy=method, fds=wl.fds)
    return len(out.collect())


def timed(fn, *args, **kw) -> float:
    """Wall-clock seconds of ``fn(*args, **kw)``."""
    t0 = time.perf_counter()
    fn(*args, **kw)
    return time.perf_counter() - t0


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
