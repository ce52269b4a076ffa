"""Basic COMPARE execution (paper §4.1).

The sub-plan a relational engine produces for the verbose SQL of
Fig. 3: per (grouping, measure) a group-by aggregate, a *trendset-level*
join on the grouping column, scoring via the aggregate scorer, and a
UNION ALL over the (g, m) combinations.

``compare_basic(df, spec)`` is the unoptimized §4.1 plan;
``compare_merged(df, spec, groups=...)`` is the same join topology
over *merged* group-by aggregates (the first §4.2 optimization alone,
used for the Fig. 9b ablation).
"""
from __future__ import annotations

from functools import reduce

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from . import scorer as sc
from .aggregates import G_COL, V_COL, MergeGroup, build_vector_blocks, gm_relations, single_groups
from .pairs import finish_output, pair_condition, pair_key_cols, rename_side
from .spec import CompareSpec, output_cols


def _score_gm(spec: CompareSpec, gm, rel1: DataFrame, rel2: DataFrame) -> DataFrame:
    a = rename_side(rel1, spec.t1, 1, {G_COL: "__g1", V_COL: "__v1"})
    b = rename_side(rel2, spec.t2, 2, {G_COL: "__g2", V_COL: "__v2"})
    cond = F.col("__g1") == F.col("__g2")
    pc = pair_condition(spec)
    if pc is not None:
        cond = cond & pc
    joined = a.join(b, cond, "inner")
    diff = sc.diff_col(F.col("__v1"), F.col("__v2"), spec.scorer.p)
    keys = pair_key_cols(spec)
    if keys:
        scored = joined.groupBy(*keys).agg(
            sc.agg_col(spec.scorer, diff).alias("score")
        )
    else:  # both sides fully fixed: a single global score row
        scored = joined.agg(sc.agg_col(spec.scorer, diff).alias("score"))
        # the aggregate emits one row even with no matches; drop it then
        scored = scored.filter(F.col("score").isNotNull())
    return finish_output(scored, spec, gm).select(*output_cols(spec))


def compare_with_groups(
    df: DataFrame,
    spec: CompareSpec,
    groups: list[MergeGroup] | None,
    *,
    share_sides: bool,
    persist: bool,
) -> DataFrame:
    """Trendset-level join plan over a given aggregate grouping."""
    blocks = build_vector_blocks(df, spec, groups, share_sides=share_sides, persist=persist)
    rels = gm_relations(blocks, spec)
    parts = [_score_gm(spec, gm, *rels[gm]) for gm in spec.gms]
    return reduce(DataFrame.unionByName, parts)


def compare_basic(df: DataFrame, spec: CompareSpec) -> DataFrame:
    """§4.1 basic plan: no aggregate sharing, trendset-level joins."""
    return compare_with_groups(
        df, spec, single_groups(spec.gms), share_sides=False, persist=False
    )


def compare_merged(
    df: DataFrame, spec: CompareSpec, groups: list[MergeGroup] | None = None
) -> DataFrame:
    """Basic join topology over merged/shared group-by aggregates."""
    return compare_with_groups(df, spec, groups, share_sides=True, persist=True)
