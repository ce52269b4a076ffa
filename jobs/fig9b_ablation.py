"""Fig. 9b: ablation — each COMPARE optimization enabled left to right:
basic → +merged aggregates → +trendwise → +segment pruning → +early
termination. Reported as speedup over the basic plan."""
import _common

from repro.bench.harness import dataset_cache, execute, timed
from repro.bench.workloads import flight_queries

LEVELS = ("basic", "merged", "trendwise", "pruned", "compare")


def run(spark, sf=0.05, queries=("Q1", "Q2", "Q3", "Q4")):
    rows = []
    with dataset_cache(spark) as get_dataset:
        wls = flight_queries()
        df = get_dataset("flight", sf)
        for q in queries:
            wl = wls[q]
            execute("compare", df, wl)  # warm-up
            times = {lvl: timed(execute, lvl, df, wl) for lvl in LEVELS}
            row = {"query": q}
            for lvl in LEVELS:
                row[f"{lvl}_s"] = round(times[lvl], 3)
                row[f"{lvl}_x"] = round(times["basic"] / times[lvl], 2)
            rows.append(row)
    return rows


if __name__ == "__main__":
    _common.main_wrapper("fig9b_ablation", run)
