"""Fig. 11: latency vs number of segment aggregates (Q2, Q4), with the
Sturges-selected count marked."""
import math
import time

import _common

from repro.bench.harness import dataset_cache
from repro.bench.workloads import flight_queries
from repro.core.pruning import compare_topk_pruned


def run(spark, sf=0.05, queries=("Q2", "Q4"), segment_counts=(1, 2, 4, 8, 16, 32, 64)):
    rows = []
    with dataset_cache(spark) as get_dataset:
        df = get_dataset("flight", sf)
        n_days = df.select("day").distinct().count()
        sturges_pick = int(1 + math.log2(n_days))
        wls = flight_queries()
        for q in queries:
            wl = wls[q]
            for l in segment_counts:
                t0 = time.perf_counter()
                out, stats = compare_topk_pruned(
                    df, wl.spec, wl.k, ascending=wl.ascending, n_segments=l,
                    return_stats=True,
                )
                out.collect()
                t = time.perf_counter() - t0
                rows.append(
                    {
                        "query": q,
                        "n_segments": l,
                        "seconds": round(t, 3),
                        "pruned_frac": round(
                            (stats.pruned_initial + stats.pruned_refining)
                            / max(1, stats.n_pairs), 3,
                        ),
                        "is_sturges": l == sturges_pick,
                    }
                )
    return rows


if __name__ == "__main__":
    _common.main_wrapper("fig11_segments", run)
