"""Fig. 12: latency vs tuples processed per update during early
termination (Q2, Q4), with COMPARE's automatic segment-size choice
marked."""
import math
import time

import _common

from repro.bench.harness import dataset_cache
from repro.bench.workloads import flight_queries
from repro.core.pruning import compare_topk_pruned


def run(spark, sf=0.05, queries=("Q2", "Q4"), chunks=(1, 5, 20, 50, 200, 1000)):
    rows = []
    with dataset_cache(spark) as get_dataset:
        df = get_dataset("flight", sf)
        n_days = df.select("day").distinct().count()
        auto = max(1, n_days // int(1 + math.log2(n_days)))
        wls = flight_queries()
        for q in queries:
            wl = wls[q]
            for tpu in tuple(chunks) + (auto,):
                t0 = time.perf_counter()
                out, stats = compare_topk_pruned(
                    df, wl.spec, wl.k, ascending=wl.ascending, tuples_per_update=tpu,
                    return_stats=True,
                )
                out.collect()
                t = time.perf_counter() - t0
                rows.append(
                    {
                        "query": q,
                        "tuples_per_update": tpu,
                        "seconds": round(t, 3),
                        "refine_steps": stats.refine_steps,
                        "tuples_compared": stats.tuples_compared,
                        "is_auto": tpu == auto,
                    }
                )
    return rows


if __name__ == "__main__":
    _common.main_wrapper("fig12_early_term", run)
