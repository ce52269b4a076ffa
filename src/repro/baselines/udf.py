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

from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.aggregates import G_COL, V_COL, build_vector_blocks, gm_relations
from repro.core.pairs import output_schema
from repro.core.spec import CompareSpec

from . import client_core as cc


def _tagged_union(df: DataFrame, spec: CompareSpec) -> DataFrame:
    """UNION of all (side, gm) aggregates — the UDF's GROUPING SETS input."""
    rels = gm_relations(build_vector_blocks(df, spec), spec)
    all_vary: list[str] = []
    for ts in (spec.t1, spec.t2):
        for c in ts.vary_cols:
            if c not in all_vary:
                all_vary.append(c)
    types = {f.name: f.dataType for f in df.schema.fields}
    parts = []
    for side, ts in ((1, spec.t1), (2, spec.t2)):
        for i, gm in enumerate(spec.gms):
            rel = rels[gm][side - 1]
            sel = [F.lit(side).alias("__side"), F.lit(i).alias("__gm")]
            for c in all_vary:
                if c in ts.vary_cols:
                    sel.append(F.col(c).alias(c))
                else:
                    sel.append(F.lit(None).cast(types[c]).alias(c))
            sel += [F.col(G_COL).cast("string").alias("__gs"), F.col(V_COL).alias(V_COL)]
            parts.append(rel.select(*sel))
    out = parts[0]
    for p in parts[1:]:
        out = out.unionByName(p)
    return out


def _make_udf(spec: CompareSpec, k: int | None, ascending: bool):
    def fn(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        chunks = [b for b in batches if not b.empty]
        if not chunks:
            return
        pdf = pd.concat(chunks, ignore_index=True)
        per_gm = []
        for gi in range(len(spec.gms)):
            part = pdf[pdf["__gm"] == gi]
            t1 = cc.group_trends(
                part[part["__side"] == 1], spec.t1.vary_cols, "__gs", V_COL
            )
            t2 = cc.group_trends(
                part[part["__side"] == 2], spec.t2.vary_cols, "__gs", V_COL
            )
            per_gm.append((t1, t2))
        yield cc.result_frame(spec, per_gm, k, ascending)

    return fn


def compare_udf(
    df: DataFrame,
    spec: CompareSpec,
    *,
    k: int | None = None,
    ascending: bool = True,
) -> DataFrame:
    """COMPARE via the sequential UDF baseline (all pairs, or top-k)."""
    return _tagged_union(df, spec).repartition(1).mapInPandas(
        _make_udf(spec, k, ascending), output_schema(df, spec)
    )
