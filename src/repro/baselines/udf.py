"""UDF baseline (paper §8 setup).

Mirrors the paper's T-SQL UDF: the engine feeds it the UNION of all
group-by aggregates (GROUPING-SETS style), and the comparison logic
runs as a *sequential batch* with limited parallelism — reproduced
here as a single-partition ``mapInPandas`` task, so all scoring happens
in one Python worker while the cluster idles. The client logic itself
includes the trendwise + summary-pruning optimizations (see
``client_core``), as in the paper.
"""
from __future__ import annotations

from functools import reduce
from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.aggregates import G_COL, V_COL, build_vector_blocks, gm_relations
from repro.core.pairs import output_schema
from repro.core.spec import CompareSpec

from . import client_core as cc


def _tagged_union(df: DataFrame, spec: CompareSpec) -> tuple[DataFrame, list[bool]]:
    """UNION of all (side, gm) aggregates — the UDF's GROUPING SETS input —
    and, per (g, m), whether its sides share one aggregate (shipped once)."""
    rels = gm_relations(build_vector_blocks(df, spec), spec)
    all_vary = dict.fromkeys((*spec.t1.vary_cols, *spec.t2.vary_cols))
    types = {f.name: f.dataType for f in df.schema.fields}
    shared = [rels[gm][0] is rels[gm][1] for gm in spec.gms]
    parts = []
    for side, ts in ((1, spec.t1), (2, spec.t2)):
        for i, gm in enumerate(spec.gms):
            if side == 1 and shared[i]:
                continue
            rel = rels[gm][side - 1]
            sel = [F.lit(side).alias("__side"), F.lit(i).alias("__gm")]
            sel += [F.col(c) if c in ts.vary_cols else F.lit(None).cast(types[c]).alias(c)
                    for c in all_vary]
            sel += [F.col(G_COL).cast("string").alias(G_COL), V_COL]
            parts.append(rel.select(*sel))
    return reduce(DataFrame.unionByName, parts), shared


def _make_udf(spec: CompareSpec, shared: list[bool], k: int | None, ascending: bool):
    def fn(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        chunks = [b for b in batches if not b.empty]
        if not chunks:
            return
        pdf = pd.concat(chunks, ignore_index=True)
        parts = [pdf[pdf["__gm"] == gi] for gi in range(len(spec.gms))]
        fetched = [
            (part, part) if one else (part[part["__side"] == 1], part[part["__side"] == 2])
            for part, one in zip(parts, shared)
        ]
        yield cc.result_frame(spec, fetched, k, ascending)

    return fn


def compare_udf(
    df: DataFrame,
    spec: CompareSpec,
    *,
    k: int | None = None,
    ascending: bool = True,
) -> DataFrame:
    """COMPARE via the sequential UDF baseline (all pairs, or top-k)."""
    union, shared = _tagged_union(df, spec)
    return union.repartition(1).mapInPandas(
        _make_udf(spec, shared, k, ascending), output_schema(df, spec)
    )
