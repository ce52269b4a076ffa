"""Shared spark-submit plumbing for the per-table/figure jobs.

Each job module exposes ``run(spark, sf=...) -> list[dict]`` (so tests
can drive it with the session fixture) and a ``main()`` that builds a
local session for ``spark-submit jobs/<name>.py``.
"""
from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))  # allow `import _common`

# Driver memory must be fixed before the JVM launches (plain `python
# jobs/<name>.py` would otherwise get the 1g default and OOM on cached
# bench datasets); spark-submit users pass --driver-memory instead.
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
    "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
    "pyspark-shell",
)


def get_spark(app: str):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    from repro.bench.harness import tune_session

    tune_session(spark)
    return spark


def main_wrapper(app: str, run):
    spark = get_spark(app)
    spark.sparkContext.setLogLevel("ERROR")
    from repro.bench.harness import BENCH_SF, print_table

    rows = run(spark, sf=BENCH_SF)
    print_table(rows, app)
    spark.stop()
