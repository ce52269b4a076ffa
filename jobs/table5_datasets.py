"""Table 5: dataset statistics (rows, in-memory size) at the bench SF."""
import _common

from repro.bench.harness import dataset_cache


def run(spark, sf=0.05):
    rows = []
    with dataset_cache(spark) as get_dataset:
        for name, paper_rows, paper_size in (
            ("flight", "74M", "8 GB"),
            ("tpcds", "720M", "20 GB"),
        ):
            df = get_dataset(name, sf)
            n = df.count()
            sample_n = min(n, 20_000)
            sample = df.limit(sample_n).toPandas()
            size_b = float(sample.memory_usage(deep=True).sum()) * n / sample_n
            rows.append(
                {
                    "dataset": name,
                    "sf": sf,
                    "rows": n,
                    "approx_mb": round(int(size_b) / 1e6, 1),
                    "trend_entities": df.select(df.columns[0]).distinct().count(),
                    "paper_rows": paper_rows,
                    "paper_size": paper_size,
                }
            )
    return rows


if __name__ == "__main__":
    _common.main_wrapper("table5_datasets", run)
