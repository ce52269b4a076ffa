"""Trendwise COMPARE execution via partitioning (paper §4.2).

Instead of one join between two trendset relations (cost superlinear in
trendset size), the aggregate output is partitioned per trend and joined
partition-wise: each side's trends are hashed into c chunks, and every
(chunk₁, chunk₂) pair of a block, c² of them, is one group of a Spark
cogroup (the blocked all-pairs pattern of Bayardo, Ma and Srikant, WWW
2007). Each group decodes its two chunks with the driver's decode
(:func:`~repro.core.exact.block_sides`) and scores every candidate pair
with the driver's kernel (:func:`~repro.core.exact.all_pairs_frame`), so
the lazy relation and the driver top-k share one decode and one scoring
path.

Execution is organized per :class:`~repro.core.aggregates.VectorBlock`
(all measures sharing a grouping column): one aggregation and one
scoring stage per block — the §4.2 aggregate sharing carried through the
whole physical pipeline, so a 10-(g, m) query costs ~2 blocks of stages,
not 10.
"""
from __future__ import annotations

import math
from functools import reduce

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import StructType

from .aggregates import G_COL, MergeGroup, VectorBlock, plan_vector_blocks
from .exact import all_pairs_frame, block_sides
from .pairs import output_schema, pair_key_cols
from .spec import CompareSpec, TrendsetSpec, side_prefix

CHUNK1, CHUNK2 = "__c1", "__c2"


def n_chunks(spark: SparkSession) -> int:
    """Trend chunks per block side: a block has c² chunk pairs, about one per
    core of the default parallelism."""
    return max(1, math.isqrt(spark.sparkContext.defaultParallelism))


def _chunked_side(
    rel: DataFrame, ts: TrendsetSpec, side: int, value_cols: list[str], c: int,
    pair_filter: DataFrame | None,
) -> DataFrame:
    """One block side's rows ``(vary…, __g, value_cols…)``, tagged with their
    trend's chunk and copied once for each of the other side's chunks, as
    ``(CHUNK1, CHUNK2)``.

    Every column gets a fresh attribute, so the two sides of a shared or
    slice-derived block stay apart in the cogroup. A ``pair_filter`` keeps
    only the trends among its keys for this side.
    """
    vary = list(ts.vary_cols)
    if pair_filter is not None:
        keys = pair_filter.select(*[F.col(side_prefix(side) + v).alias(v) for v in vary])
        rel = rel.join(keys.distinct(), on=vary, how="left_semi")
    own = F.pmod(F.xxhash64(*vary), F.lit(c)).cast("int") if vary else F.lit(0)
    other = F.explode(F.sequence(F.lit(0), F.lit(c - 1)))
    tags = (own, other) if side == 1 else (other, own)
    return rel.select(
        *[F.col(x).alias(x) for x in (*vary, G_COL, *value_cols)],
        tags[0].alias(CHUNK1), tags[1].alias(CHUNK2),
    )


def _score_block(
    block: VectorBlock, spec: CompareSpec, c: int, pair_filter: DataFrame | None,
    schema: StructType,
) -> DataFrame:
    gms, value_cols = list(block.value_cols), list(block.value_cols.values())
    s1, s2 = (
        _chunked_side(rel, ts, side, value_cols, c, pair_filter)
        for rel, ts, side in ((block.rel1, spec.t1, 1), (block.rel2, spec.t2, 2))
    )

    def score(pdf1, pdf2):
        return all_pairs_frame(spec, [(gms, *block_sides(spec, pdf1, pdf2, value_cols))])

    return (
        s1.groupBy(CHUNK1, CHUNK2).cogroup(s2.groupBy(CHUNK1, CHUNK2)).applyInPandas(score, schema)
    )


def compare_trendwise(
    df: DataFrame,
    spec: CompareSpec,
    groups: list[MergeGroup] | None = None,
    *,
    pair_filter: DataFrame | None = None,
) -> DataFrame:
    """Merged aggregates + trendwise partitioned comparison.

    ``pair_filter`` (a small relation of surviving pair-key tuples)
    restricts which trend pairs are scored — used by chained COMPARE
    operations (§6 R4) so later, less selective stages only score pairs
    that survived earlier stages.
    """
    c, schema = n_chunks(df.sparkSession), output_schema(df, spec)
    out = reduce(DataFrame.unionByName, [
        _score_block(b, spec, c, pair_filter, schema) for b in plan_vector_blocks(df, spec, groups)
    ])
    if pair_filter is not None:
        out = out.join(F.broadcast(pair_filter), on=pair_key_cols(spec), how="left_semi")
    return out
