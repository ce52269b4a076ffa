"""The "unmodified DBMS" baseline: verbose SQL through Catalyst.

This is what SQL Server executes in the paper when the comparative
query is written with existing SQL clauses (Fig. 3): one subquery per
(grouping, measure), each with its own aggregations and a
trendset-level self-join — no sharing, no trendwise partitioning, no
pruning. Here the same SQL text (Spark dialect) is handed to
``spark.sql`` so Catalyst plays the stock optimizer's role; it is also
the plan of the ``basic`` strategy (:mod:`repro.core.basic`).
"""
from __future__ import annotations

from functools import partial

from pyspark.sql import DataFrame

from repro.core.basic import compare_basic, sql_on_view
from repro.core.pairs import with_fixed_literals
from repro.core.spec import CompareSpec
from repro.core.sql_gen import topk_sql


def compare_naive_sql(df: DataFrame, spec: CompareSpec) -> DataFrame:
    """All pair scores via the verbose Fig. 3 SQL."""
    return compare_basic(df, spec)


def compare_topk_naive_sql(
    df: DataFrame, spec: CompareSpec, k: int, ascending: bool = True
) -> DataFrame:
    """Top-k via the verbose SQL + ORDER BY/LIMIT (§3.2), its fixed terms
    typed as the base columns, as in :func:`compare_basic`."""
    top = sql_on_view(df, partial(topk_sql, spec, k, ascending, dialect="spark"))
    return with_fixed_literals(top, df, spec)
