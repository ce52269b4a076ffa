"""UDF baseline (paper §8 setup).

Mirrors the paper's T-SQL UDF: the engine feeds it the UNION of all
group-by aggregates (GROUPING SETS): the distinct trendset sides'
relations, each all of its blocks in one grouping-sets aggregate, tagged
by side. The comparison logic runs as a *sequential batch* with limited
parallelism — reproduced here as a single-partition ``mapInArrow`` task,
so all scoring happens in one Python worker while the cluster idles. The
client logic itself includes the trendwise + summary-pruning
optimizations (see ``client_core``), as in the paper.
"""
from __future__ import annotations

from typing import Iterator

import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.pandas.types import to_arrow_schema

from repro.core.aggregates import BlockLayout, plan_sides
from repro.core.exact import table_arrays
from repro.core.pairs import output_schema
from repro.core.spec import CompareSpec

from . import client_core as cc

SIDE_COL = "__side"


def _make_udf(spec: CompareSpec, layout: list[BlockLayout], sliced: bool, k: int | None,
              ascending: bool, schema: pa.Schema):
    def fn(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        batches = list(batches)
        if not batches:
            return
        table = pa.Table.from_batches(batches)
        table2 = table.filter(pc.equal(table[SIDE_COL], 2))
        table1 = None if sliced else table.filter(pc.equal(table[SIDE_COL], 1))
        out = cc.result_frame(spec, table_arrays(spec, layout, table2, table1), k, ascending)
        yield pa.RecordBatch.from_pandas(out, schema=schema, preserve_index=False)

    return fn


def compare_udf(
    df: DataFrame,
    spec: CompareSpec,
    *,
    k: int | None = None,
    ascending: bool = True,
) -> DataFrame:
    """COMPARE via the sequential UDF baseline (all pairs, or top-k)."""
    side1, side2, layout = plan_sides(df, spec)
    union = side2.withColumn(SIDE_COL, F.lit(2))
    if side1 is not None:
        union = union.unionByName(side1.withColumn(SIDE_COL, F.lit(1)), allowMissingColumns=True)
    schema = output_schema(df, spec)
    udf = _make_udf(spec, layout, side1 is None, k, ascending, to_arrow_schema(schema))
    return union.repartition(1).mapInArrow(udf, schema)
