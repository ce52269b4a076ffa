"""COMPARE benchmark: one closed-loop client sending seeded top-k queries.

Run from the root of a checkout of this repository:

    python3 perfbench/run.py --workload phi_all_pairs --seed 1 --seconds 10 --trace 0

One analyst keeps one query in flight on Spark ``local[*]``. Each run
generates the workload's inputs from ``--seed``, caches them, warms up
each query once, then sends the workload's rotation of ``compare_topk``
queries for ``--seconds`` seconds, rounded up to whole passes over the
rotation and at least two passes. Every result is checked against the DuckDB verbose-SQL oracle
(``repro.core.sql_gen.topk_sql``), computed outside the timed window.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every
query of the window twice, as one ``compare_topk`` call and decomposed
into its layer calls (plan, aggregates, pruning or trendwise, output),
each wrapped in a span (see ``spans.py``); it prints the per-layer
metrics, plus reference latencies of the same queries through
``naive_sql`` and ``trendwise``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the resolved query list and every sample. Spark's scratch
files stay in ``.perfbench_tmp/`` under the checkout.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
HERE = Path(__file__).resolve().parent

#: set-up is repeated this many times per run; setup_s reports the median
SETUP_REPS = 3
#: the end-to-end window sends the rotation at least this many times, so
#: every query has two samples even when one pass outlasts ``--seconds``
MIN_PASSES = 2
#: relative tolerance between a returned score and the oracle's
SCORE_RTOL = 1e-6
DRIVER_MEMORY = "2g"


def _configure_environment() -> None:
    """Point Python, the JVM and Spark workers at the checkout only."""
    TMP.mkdir(exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["TMPDIR"] = str(TMP)
    java_opts = f"-Djava.io.tmpdir={TMP} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master local[*]",
        f"--driver-memory {DRIVER_MEMORY}",
        f"--driver-java-options {shlex.quote(java_opts)}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        f"--conf spark.local.dir={shlex.quote(str(TMP))}",
        "pyspark-shell",
    ])
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def _start_session():
    from pyspark.sql import SparkSession

    from repro.bench.harness import tune_session

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(TMP / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    tune_session(spark)
    return spark


def _shutdown(spark) -> None:
    """Stop Spark, then the gateway JVM, and wait until it has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    if spark is not None:
        spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ---- driver memory -----------------------------------------------------------

def _reset_peak_rss() -> bool:
    """Restart the kernel's peak-RSS counter (VmHWM) of this process."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def _peak_rss_mb(reset_ok: bool) -> float:
    if reset_ok:
        with open("/proc/self/status") as f:
            m = re.search(r"VmHWM:\s+(\d+) kB", f.read())
        if m:
            return int(m.group(1)) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---- oracle ------------------------------------------------------------------

def _plain(v):
    return v.item() if hasattr(v, "item") else v


def _canonical(records: list[dict]) -> dict:
    """Top-k rows as {pair identity: score}."""
    out = {}
    for r in records:
        key = tuple(sorted((c, _plain(v)) for c, v in r.items() if c != "score"))
        out[key] = float(r["score"])
    return out


def oracle_topk(pdf, q) -> dict:
    import duckdb

    from repro.core.sql_gen import topk_sql

    con = duckdb.connect()
    try:
        con.register("R", pdf)
        got = con.execute(topk_sql(q.spec, q.k, q.ascending, "R", dialect="duckdb")).fetchdf()
    finally:
        con.close()
    return _canonical(got.to_dict("records"))


def matches(rows, expected: dict) -> bool:
    got = _canonical([r.asDict() for r in rows])
    return len(rows) == len(expected) and got.keys() == expected.keys() and all(
        math.isclose(got[k], expected[k], rel_tol=SCORE_RTOL, abs_tol=1e-9) for k in got
    )


# ---- query execution ---------------------------------------------------------

def run_query(df, q, strategy: str | None = None):
    """One top-k query through the public facade; returns collected rows."""
    from repro.baselines.naive_sql import compare_topk_naive_sql
    from repro.core.compare import compare_topk

    strategy = strategy or q.strategy
    if strategy == "naive_sql":
        out = compare_topk_naive_sql(df, q.spec, q.k, q.ascending)
    else:
        out = compare_topk(df, q.spec, q.k, ascending=q.ascending, strategy=strategy, fds=q.fds)
    return out.collect()


def run_query_traced(df, q, tracer) -> tuple[list, dict]:
    """The same query, decomposed into one call per layer, each in a span.

    The aggregates span builds and materializes the persisted block
    relations; the pruning / trendwise call that follows rebuilds the
    same plans and reads them through Spark's cache manager. A layer the
    query does not call is absent from the returned metrics.
    """
    from repro.core.aggregates import build_vector_blocks
    from repro.core.compare import topk_exact
    from repro.core.pruning import compare_topk_pruned
    from repro.core.trendwise import compare_trendwise
    from repro.plan.cost import TableStats
    from repro.plan.optimizer import merge_partition

    spec, m, spans = q.spec, {}, []
    groups = None
    if q.strategy == "compare" and len(spec.gms) > 1:
        with tracer.span("plan.stats") as s_stats:
            stats = TableStats.from_df(df, list(spec.input_cols), q.fds)
        with tracer.span("plan.merge") as s_merge:
            groups = merge_partition(spec, stats)
        m["plan.stats_s"], m["plan.merge_s"] = s_stats.wall_s, s_merge.wall_s
        m["plan.jobs"] = s_stats.jobs + s_merge.jobs
        spans += [s_stats, s_merge]
    with tracer.span("aggregates") as s_agg:
        blocks = build_vector_blocks(df, spec, groups)
        n_rows = 0
        for b in blocks:
            n_rows += b.rel2.count() + (0 if b.shared else b.rel1.count())
    m.update({"aggregates.build_s": s_agg.wall_s, "aggregates.jobs": s_agg.jobs,
              "aggregates.blocks": len(blocks), "aggregates.rows": n_rows})
    spans.append(s_agg)
    if q.strategy == "compare":
        with tracer.span("pruning") as s_core:
            out, st = compare_topk_pruned(
                df, spec, q.k, ascending=q.ascending, early_termination=True,
                groups=groups, return_stats=True,
            )
        m.update({
            "pruning.wall_s": s_core.wall_s,
            "pruning.driver_cpu_s": s_core.driver_cpu_s,
            "pruning.spark_wait_s": s_core.wall_s - s_core.driver_cpu_s,
            "pruning.jobs": s_core.jobs,
            "pruning.pairs": st.n_pairs,
            "pruning.pruned_initial": st.pruned_initial,
            "pruning.pruned_refining": st.pruned_refining,
            "pruning.surviving_trends": st.surviving_trends,
            # PruneStats counts a trendset shared by both sides once in
            # total_trends but once per side in surviving_trends
            "pruning.side_trends": st.total_trends * (2 if spec.same_trendsets else 1),
            "pruning.refine_steps": st.refine_steps,
            "pruning.tuples_compared": st.tuples_compared,
            "pruning.summary_floats": st.summary_floats,
        })
        with tracer.span("output") as s_out:
            rows = out.collect()
        m["output.collect_s"] = s_out.wall_s
        spans += [s_core, s_out]
    else:
        # the exact top-k plan is lazy and runs inside its collect, so the
        # collect belongs to this span; materializing it first would swap
        # Spark's take-ordered plan for a full global sort
        with tracer.span("trendwise") as s_core:
            rows = topk_exact(compare_trendwise(df, spec), q.k, q.ascending).collect()
        m.update({"trendwise.wall_s": s_core.wall_s, "trendwise.jobs": s_core.jobs,
                  "trendwise.tasks": s_core.tasks})
        spans.append(s_core)
    m["total_s"] = sum(s.wall_s for s in spans)
    return rows, m


# ---- metrics -----------------------------------------------------------------

def _median_of_query_medians(samples: list[dict]) -> float:
    """Median over distinct queries of each query's median latency.

    Each query weighs the same, so the result does not jump from one
    query's latency to another's as the sample count changes.
    """
    by_label: dict[str, list[float]] = {}
    for s in samples:
        by_label.setdefault(s["label"], []).append(s["latency_s"])
    return statistics.median(statistics.median(v) for v in by_label.values())


def _mean(traced: list[dict], key: str) -> float:
    return sum(t.get(key, 0) for t in traced) / len(traced)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(setup: dict, traced: list[dict], whole: list, untraced: list[dict],
                      refs: dict, attempted: int, failed: int) -> dict:
    sums = {k: sum(t.get(k, 0) for t in traced) for k in (
        "pruning.pairs", "pruning.pruned_initial", "pruning.pruned_refining",
        "pruning.surviving_trends", "pruning.side_trends", "total_s")}
    out = {
        "synth_data.gen_s": (setup["gen_s"], "s"),
        "synth_data.cache_s": (setup["cache_s"], "s"),
        "synth_data.rows": (setup["rows"], "count"),
    }
    for key, unit in (
        ("plan.stats_s", "s"), ("plan.merge_s", "s"), ("plan.jobs", "count"),
        ("aggregates.build_s", "s"), ("aggregates.jobs", "count"),
        ("aggregates.blocks", "count"), ("aggregates.rows", "count"),
        ("pruning.wall_s", "s"), ("pruning.driver_cpu_s", "s"),
        ("pruning.spark_wait_s", "s"), ("pruning.jobs", "count"),
        ("pruning.pairs", "count"), ("pruning.pruned_initial", "count"),
        ("pruning.pruned_refining", "count"), ("pruning.refine_steps", "count"),
        ("pruning.tuples_compared", "count"), ("pruning.summary_floats", "count"),
        ("trendwise.wall_s", "s"), ("trendwise.jobs", "count"), ("trendwise.tasks", "count"),
        ("output.collect_s", "s"),
    ):
        out[key] = (_mean(traced, key), unit)
    out["pruning.prune_ratio"] = (_ratio(sums["pruning.pruned_initial"], sums["pruning.pairs"]), "ratio")
    out["pruning.surviving_trend_ratio"] = (
        _ratio(sums["pruning.surviving_trends"], sums["pruning.side_trends"]), "ratio")
    n = len(whole)
    out["spark.jobs_per_query"] = (sum(s.jobs for s in whole) / n, "count")
    out["spark.tasks_per_query"] = (sum(s.tasks for s in whole) / n, "count")
    out["spark.failed_tasks"] = (sum(s.failed_tasks for s in whole), "count")
    out["driver.cpu_s_per_query"] = (sum(s.driver_cpu_s for s in whole) / n, "s")
    out["jvm.cpu_s_per_query"] = (sum(s.jvm_cpu_s for s in whole) / n, "s")
    out["trace.overhead_ratio"] = (
        _ratio(sums["total_s"], sum(u["latency_s"] for u in untraced)), "ratio")
    for method, lat in refs.items():
        out[f"ref.{method}.latency_p50_s"] = (statistics.median(lat), "s")
    out["error_rate"] = (_ratio(failed, attempted), "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


# ---- the run -----------------------------------------------------------------

class Run:
    """One benchmark run of a workload: set-up, timed window, oracle checks."""

    def __init__(self, workload, seconds: float):
        self.wl, self.seconds = workload, seconds
        self.spark = None
        self.frames: dict = {}
        self.expected: dict = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.log: dict = {"queries": [q.describe() for q in workload.rotation]}

    # set-up: session + inputs, SETUP_REPS times; then one warm-up per query
    def setup(self) -> dict:
        from repro import synth_data
        from repro.core.aggregates import clear_cache

        reps = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            if self.spark is not None:
                clear_cache()
                self.spark.stop()
            self.spark = _start_session()
            rep = {"session_s": time.perf_counter() - t0, "gen_s": 0.0, "cache_s": 0.0, "rows": 0}
            self.frames = {}
            for name, inp in self.wl.inputs.items():
                t = time.perf_counter()
                df = getattr(synth_data, inp.generator)(self.spark, **inp.kwargs)
                rep["gen_s"] += time.perf_counter() - t
                t = time.perf_counter()
                df = df.cache()
                rep["rows"] += df.count()
                rep["cache_s"] += time.perf_counter() - t
                self.frames[name] = df
            rep["total_s"] = rep["session_s"] + rep["gen_s"] + rep["cache_s"]
            reps.append(rep)
        self._compute_oracle()
        t0 = time.perf_counter()
        warm = [(q, self._attempt(lambda: self._execute(q), q, "warm-up"))
                for q in self.wl.rotation]
        warm_s = time.perf_counter() - t0
        for q, rows in warm:
            if rows is not None:
                self._check(q, rows, "warm-up")
        mid = sorted(reps, key=lambda r: r["total_s"])[len(reps) // 2]
        setup = {"reps": reps, "warm_up_s": warm_s,
                 "setup_s": mid["total_s"] + warm_s,
                 "gen_s": statistics.median(r["gen_s"] for r in reps),
                 "cache_s": statistics.median(r["cache_s"] for r in reps),
                 "rows": mid["rows"]}
        self.log["setup"] = setup
        return setup

    def _compute_oracle(self) -> None:
        pdfs = {name: df.toPandas() for name, df in self.frames.items()}
        for q in self.wl.rotation:
            self.expected[q.label] = oracle_topk(pdfs[q.input], q)
        del pdfs
        gc.collect()

    def _execute(self, q, strategy=None):
        from repro.core.aggregates import clear_cache

        try:
            return run_query(self.frames[q.input], q, strategy)
        finally:
            clear_cache()

    def _check(self, q, rows, phase: str) -> bool:
        self.attempted += 1
        ok = rows is not None and matches(rows, self.expected[q.label])
        if not ok:
            self.failures.append({"query": q.label, "phase": phase,
                                  "reason": "raised" if rows is None else "differs from oracle"})
        return ok

    def _attempt(self, fn, q, phase: str):
        """Run ``fn``; an exception counts as a failed query, not a crash."""
        try:
            return fn()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self._check(q, None, phase)
            return None

    def window(self, each, min_passes: int) -> float:
        """Closed loop: ``each(query)`` over the rotation for ``seconds``,
        in whole passes, at least ``min_passes``; returns the wall time.

        Ending on a pass boundary sends every query equally often, so the
        mix of long and short queries, and with it the throughput, does
        not depend on where the clock ran out.
        """
        rot = self.wl.rotation
        t_start = time.perf_counter()
        i = 0
        while (i % len(rot) or i < min_passes * len(rot)
               or time.perf_counter() - t_start < self.seconds):
            each(rot[i % len(rot)])
            i += 1
        return time.perf_counter() - t_start

    def end_to_end(self) -> dict:
        setup = self.setup()
        samples = []

        def each(q):
            t0 = time.perf_counter()
            rows = self._attempt(lambda: self._execute(q), q, "window")
            lat = time.perf_counter() - t0
            if rows is not None and self._check(q, rows, "window"):
                samples.append({"label": q.label, "latency_s": lat})

        reset_ok = _reset_peak_rss()
        wall = self.window(each, MIN_PASSES)
        rss = _peak_rss_mb(reset_ok)
        self.log["samples"] = samples
        if not samples:
            raise RuntimeError("no query completed correctly in the window")
        return {
            "latency_p50_s": {"value": _median_of_query_medians(samples), "unit": "s"},
            "throughput_qpm": {"value": 60.0 * len(samples) / wall, "unit": "queries/min"},
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "driver_rss_peak_mb": {"value": rss, "unit": "MB"},
        }

    def per_layer(self) -> dict:
        from pyspark import SparkContext

        from repro.core.aggregates import clear_cache
        from spans import Tracer

        setup = self.setup()
        jvm = getattr(SparkContext._gateway, "proc", None)
        tracer = Tracer(self.spark.sparkContext, jvm.pid if jvm else None)
        whole, untraced, traced = [], [], []

        def each(q):
            df = self.frames[q.input]
            with tracer.span("query") as s:
                rows = self._attempt(lambda: self._execute(q), q, "window")
            if rows is None or not self._check(q, rows, "window"):
                return
            whole.append(s)
            try:
                rows, m = run_query_traced(df, q, tracer)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                rows = None
            finally:
                clear_cache()
            if self._check(q, rows, "traced"):
                untraced.append({"label": q.label, "latency_s": s.wall_s})
                traced.append(dict(m, label=q.label))

        self.window(each, min_passes=1)  # per-layer numbers are not gated
        self.log["samples"] = untraced
        self.log["traced"] = traced
        if not traced:
            raise RuntimeError("no traced query completed correctly in the window")
        refs = {"naive_sql": [], "trendwise": []}
        for q in self.wl.rotation:
            for method in refs:
                if method == q.strategy:
                    continue
                t0 = time.perf_counter()
                rows = self._attempt(lambda: self._execute(q, method), q, f"ref.{method}")
                lat = time.perf_counter() - t0
                if rows is not None and self._check(q, rows, f"ref.{method}"):
                    refs[method].append(lat)
        if not refs["trendwise"]:  # the workload's own method is trendwise
            refs["trendwise"] = [u["latency_s"] for u in untraced]
        if not all(refs.values()):
            raise RuntimeError("a reference method failed on every query")
        self.log["refs"] = refs
        return per_layer_metrics(setup, traced, whole, untraced, refs,
                                 self.attempted, len(self.failures))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: run from the repository root; {SRC / 'repro'} not found", file=sys.stderr)
        return 2
    _configure_environment()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload](args.seed), args.seconds)
    try:
        metrics = run.per_layer() if args.trace else run.end_to_end()
    finally:
        _shutdown(run.spark)
    run.log.update(workload=args.workload, seed=args.seed, failures=run.failures)
    print(json.dumps(run.log, default=float))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
