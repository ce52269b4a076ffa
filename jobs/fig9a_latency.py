"""Fig. 9a: end-to-end top-k latency of COMPARE vs naive SQL, UDF and
MIDDLEWARE on Q1–Q4 over both datasets, reported as speedups over the
naive (unmodified-DBMS) plan."""
import _common

from repro.bench.harness import MIDDLEWARE_MBPS, dataset_cache, execute, speedup_row, timed
from repro.bench.workloads import flight_queries, tpcds_queries


def run(
    spark,
    sf=0.05,
    queries=("Q1", "Q2", "Q3", "Q4"),
    datasets=("flight", "tpcds"),
    bandwidth_mbps=MIDDLEWARE_MBPS,
):
    rows = []
    with dataset_cache(spark) as get_dataset:
        for dataset in datasets:
            wls = flight_queries() if dataset == "flight" else tpcds_queries()
            df = get_dataset(dataset, sf)
            for q in queries:
                wl = wls[q]
                execute("compare", df, wl)  # warm the JVM/code paths once
                base = timed(execute, "naive_sql", df, wl)
                times = {
                    "udf": timed(execute, "udf", df, wl),
                    "middleware": timed(
                        execute, "middleware", df, wl, bandwidth_mbps=bandwidth_mbps
                    ),
                    "compare": timed(execute, "compare", df, wl),
                }
                rows.append(speedup_row(f"{dataset}-{q}", base, times))
    return rows


if __name__ == "__main__":
    _common.main_wrapper("fig9a_latency", run)
