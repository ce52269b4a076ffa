"""Fig. 15: (a) degree-of-parallelism sweep on Q1; (b) Φp's memory
overhead relative to the input (paper: < 13%, O(p·log(n/p)) floats)."""
import _common

from repro.bench.harness import dataset_cache, execute, timed
from repro.bench.workloads import flight_queries, tpcds_queries
from repro.core.pruning import compare_topk_pruned


def run(spark, sf=0.05, dops=(1, 2, 4, 8, 16)):
    rows = []
    with dataset_cache(spark) as get_dataset:
        wl = flight_queries()["Q1"]
        df = get_dataset("flight", sf)
        original = spark.conf.get("spark.sql.shuffle.partitions")
        for d in dops:
            spark.conf.set("spark.sql.shuffle.partitions", str(d))
            dfd = df.repartition(d).cache()
            dfd.count()
            base = timed(execute, "naive_sql", dfd, wl)
            t = timed(execute, "compare", dfd, wl)
            rows.append({"metric": "dop", "x": d, "naive_s": round(base, 3),
                         "compare_s": round(t, 3), "speedup_x": round(base / t, 2)})
            dfd.unpersist()
        spark.conf.set("spark.sql.shuffle.partitions", original)

        # (b) memory overhead of the pruning operator's summary structures
        for dataset, wls in (("flight", flight_queries()), ("tpcds", tpcds_queries())):
            d = get_dataset(dataset, sf)
            n = d.count()
            sample = d.limit(20_000).toPandas()
            input_bytes = float(sample.memory_usage(deep=True).sum()) * n / len(sample)
            for q in ("Q2", "Q4"):
                wl = wls[q]
                _, stats = compare_topk_pruned(
                    d, wl.spec, wl.k, ascending=wl.ascending, return_stats=True
                )
                # 4 aggregates per segment (8B floats) + TState ≈ 10 floats/trend
                overhead = 8 * (stats.summary_floats + 10 * stats.total_trends)
                rows.append({"metric": "memory", "x": f"{dataset}-{q}",
                             "summary_bytes": overhead,
                             "input_bytes": int(input_bytes),
                             "overhead_pct": round(100 * overhead / input_bytes, 3)})
    return rows


if __name__ == "__main__":
    _common.main_wrapper("fig15_parallelism_memory", run)
