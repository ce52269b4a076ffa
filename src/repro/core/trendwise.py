"""Trendwise COMPARE execution via partitioning (paper §4.2).

Instead of one join between two trendset relations (cost superlinear in
trendset size), the aggregate output is partitioned per trend — here:
collapsed to one row per trend holding its sorted (grouping, value)
vectors — and the join happens at *trend* granularity (p rows, not n
tuples). Each surviving pair is scored inside an Arrow-backed
``mapInPandas`` kernel, Spark's analogue of the paper's parallel
partition-wise join + UDA (steps 3–7 of the merged sub-plan).

Execution is organized per :class:`~repro.core.aggregates.VectorBlock`
(all measures sharing a grouping column): one aggregation, one vector
build, one pair join and one scoring stage per block — the §4.2
aggregate sharing carried through the whole physical pipeline, so a
10-(g, m) query costs ~2 blocks of stages, not 10.
"""
from __future__ import annotations

from functools import reduce
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from .aggregates import (
    G_COL,
    MergeGroup,
    VectorBlock,
    build_vector_blocks,
)
from .pairs import pair_condition, pair_key_cols, rename_side, with_fixed_literals
from .scorer import SLICE_FLOATS, dense, score_pairs
from .spec import CompareSpec, Scorer, output_cols

KEYS1, KEYS2 = "__k1", "__k2"


def block_trend_vectors(
    rel: DataFrame, vary_cols: tuple[str, ...], value_cols: list[str], keys_name: str, prefix: str
) -> DataFrame:
    """Collapse a block relation to one row per trend with one sorted
    key array plus one value array per measure (horizontal partitioning
    of §4.2 — a partition per trend)."""
    vec = rel.groupBy(*vary_cols).agg(
        F.sort_array(F.collect_list(F.struct(F.col(G_COL), *value_cols))).alias("__vec")
    )
    sel = [*vary_cols, F.expr(f"transform(__vec, x -> x.{G_COL})").alias(keys_name)]
    for vc in value_cols:
        sel.append(F.expr(f"transform(__vec, x -> x.{vc})").alias(prefix + vc))
    return vec.select(*sel)


def _make_block_scorer(scorer: Scorer, block_gms, value_names, out_fields: list[str]):
    """Pandas kernel scoring every (g, m) of a block for each pair row.

    Each Arrow batch of pair rows becomes dense (rows × grouping values)
    key masks and value arrays over the batch's grouping values, built in
    slices of rows that hold at most :data:`~repro.core.scorer.SLICE_FLOATS`
    cells each; one :func:`~repro.core.scorer.score_pairs` call per slice
    scores every row and measure, the key alignment (the DIFF join on
    grouping values, Def. 7) shared by the measures of the block.
    """
    gm_labels = [(g, m.name) for g, m in block_gms]
    key_cols = [c for c in out_fields if c not in ("grouping", "measure", "score")]

    def side(pdf: pd.DataFrame, keys: str, prefix: str, domain: pd.Index):
        row = np.repeat(np.arange(len(pdf)), pdf[keys].map(len).to_numpy())
        return dense(
            len(pdf), domain, row, np.concatenate(pdf[keys].to_numpy()),
            [np.concatenate(pdf[prefix + vc].to_numpy()) for vc in value_names],
        )

    def score_rows(pdf: pd.DataFrame, domain: pd.Index) -> np.ndarray:
        m1, v1 = side(pdf, KEYS1, "__l", domain)
        m2, v2 = side(pdf, KEYS2, "__r", domain)
        rows = np.arange(len(pdf))
        return score_pairs(scorer, m1, m2, list(zip(v1, v2)), rows, rows)

    def fn(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            if pdf.empty:
                continue
            keys = np.concatenate([*pdf[KEYS1].to_numpy(), *pdf[KEYS2].to_numpy()])
            domain = pd.Index(pd.unique(keys)).dropna()
            step = max(1, SLICE_FLOATS // max(1, len(domain)))
            scores = np.concatenate(
                [score_rows(pdf.iloc[lo:lo + step], domain) for lo in range(0, len(pdf), step)]
            )
            outs = []
            for j, (g, mname) in enumerate(gm_labels):
                out = pdf[key_cols].copy()
                out["grouping"] = g
                out["measure"] = mname
                out["score"] = scores[:, j]
                outs.append(out[~np.isnan(scores[:, j])])
            yield pd.concat(outs, ignore_index=True)[out_fields]

    return fn


def _score_block(block: VectorBlock, spec: CompareSpec, pair_filter: DataFrame | None) -> DataFrame:
    value_names = list(block.value_cols.values())
    v1 = block_trend_vectors(block.rel1, spec.t1.vary_cols, value_names, KEYS1, "__l")
    v2 = block_trend_vectors(block.rel2, spec.t2.vary_cols, value_names, KEYS2, "__r")
    a = rename_side(v1, spec.t1, 1, {})
    b = rename_side(v2, spec.t2, 2, {})
    pc = pair_condition(spec)
    pairs = a.join(b, pc, "inner") if pc is not None else a.crossJoin(b)
    if pair_filter is not None:
        pairs = pairs.join(F.broadcast(pair_filter), on=pair_key_cols(spec), how="left_semi")
    keep = [f for f in pairs.schema.fields if f.name.startswith(("l_", "r_"))]
    out_schema = T.StructType(
        keep
        + [
            T.StructField("grouping", T.StringType()),
            T.StructField("measure", T.StringType()),
            T.StructField("score", T.DoubleType()),
        ]
    )
    out_fields = [f.name for f in out_schema.fields]
    gms_in_order = list(block.value_cols)
    return pairs.mapInPandas(
        _make_block_scorer(spec.scorer, gms_in_order, value_names, out_fields), out_schema
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
    blocks = build_vector_blocks(df, spec, groups)
    out = reduce(DataFrame.unionByName, [_score_block(b, spec, pair_filter) for b in blocks])
    return with_fixed_literals(out, spec).select(*output_cols(spec))
