"""Basic COMPARE execution (paper §4.1) and the merged ablation level.

The §4.1 basic plan *is* the sub-plan a relational engine produces for
the verbose SQL of Fig. 3: per (grouping, measure) a group-by aggregate,
a *trendset-level* join on the grouping column, scoring via the
aggregate scorer, and a UNION ALL over the (g, m) combinations.
``compare_basic(df, spec)`` hands that SQL text to ``spark.sql``, so
Catalyst plans it.

``compare_merged(df, spec, groups)`` is the same join topology over
*merged* group-by aggregates (the first §4.2 optimization alone, used
for the Fig. 9b ablation): one join per block of (g, m)s sharing a
grouping column, all of the block's scores computed by one aggregate
over it, instead of one join per (g, m).
"""
from __future__ import annotations

import uuid
from functools import partial, reduce
from typing import Callable

from pyspark.errors import AnalysisException
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from . import scorer as sc
from .aggregates import G_COL, MergeGroup, VectorBlock, build_vector_blocks
from .pairs import pair_condition, pair_key_cols, rename_side, with_fixed_literals
from .spec import CompareSpec, output_cols
from .sql_gen import verbose_sql


#: name suffixes tried for an input plan before falling back to a per-call view
_VIEW_PROBES = 8


def input_view(df: DataFrame) -> str:
    """Name of the session temp view that holds ``df``, registered if needed.

    One view serves every call on the same input: it is named from
    ``df.semanticHash()`` and reused when it holds ``df``'s plan *and*
    ``df``'s schema. The schema check matters: the semantic comparison
    works on canonicalized plans, which drop column names, so two inputs
    that differ only by aliases are "the same" plan. A session thus keeps
    one catalog entry per input, not one per query. A view is never
    replaced or dropped: doing so over a cached DataFrame uncaches that
    DataFrame (as does ``spark.sql(text, R=df)``, which drops its own
    views afterwards), so it would uncache the caller's input.
    """
    spark = df.sparkSession
    base = f"R_{df.semanticHash() & 0xFFFFFFFF:08x}"
    for i in range(_VIEW_PROBES):
        view = f"{base}_{i}" if i else base
        if not spark.catalog.tableExists(view):
            try:
                df.createTempView(view)
            except AnalysisException:  # a concurrent call registered it first
                pass
        held = spark.table(view)
        if held.schema == df.schema and held.sameSemantics(df):
            return view
    # every probed name holds another input: register a view for this call
    view = "R_" + uuid.uuid4().hex
    df.createTempView(view)
    return view


def sql_on_view(df: DataFrame, render: Callable[[str], str]) -> DataFrame:
    """``spark.sql(render(view))`` over ``df``'s :func:`input_view`."""
    return df.sparkSession.sql(render(input_view(df)))


def compare_basic(df: DataFrame, spec: CompareSpec) -> DataFrame:
    """§4.1 basic plan: the verbose Fig. 3 SQL through Catalyst, its fixed
    terms typed as the base columns (the SQL text types a literal by its value)."""
    out = sql_on_view(df, partial(verbose_sql, spec, dialect="spark"))
    return with_fixed_literals(out, df, spec)


def _score_block(df: DataFrame, spec: CompareSpec, blk: VectorBlock) -> DataFrame:
    """One join of the block's two sides on the grouping value, one scorer
    aggregate per (g, m) of the block, unpivoted to a row per (pair, g, m)."""
    vcs = list(blk.value_cols.values())
    a = rename_side(blk.rel1, spec.t1, 1, {G_COL: "__g1", **{vc: vc + "_1" for vc in vcs}})
    b = rename_side(blk.rel2, spec.t2, 2, {G_COL: "__g2", **{vc: vc + "_2" for vc in vcs}})
    cond = F.col("__g1") == F.col("__g2")
    pc = pair_condition(spec)
    if pc is not None:
        cond = cond & pc
    joined = a.join(b, cond, "inner")
    scores = [
        sc.agg_col(spec.scorer, sc.diff_col(F.col(vc + "_1"), F.col(vc + "_2"), spec.scorer.p))
        .alias(f"__s{j}")
        for j, vc in enumerate(vcs)
    ]
    keys = pair_key_cols(spec)
    # both sides fully fixed: a single global score row per (g, m)
    scored = joined.groupBy(*keys).agg(*scores) if keys else joined.agg(*scores)
    # one generator, not a union of per-(g, m) projections: column pruning
    # would make each branch its own plan, each recomputing the join
    rows = F.array(*[
        F.struct(
            F.lit(g).alias("grouping"), F.lit(m.name).alias("measure"),
            F.col(f"__s{j}").alias("score"),
        )
        for j, (g, m) in enumerate(blk.value_cols)
    ])
    out = scored.select(*keys, F.inline(rows))
    if not keys:  # the global aggregate emits a row even with no matches; drop it then
        out = out.filter(F.col("score").isNotNull())
    return with_fixed_literals(out, df, spec).select(*output_cols(spec))


def compare_merged(
    df: DataFrame, spec: CompareSpec, groups: list[MergeGroup] | None = None
) -> DataFrame:
    """Basic join topology over merged/shared group-by aggregates: one join
    per block, whatever its number of (g, m)s."""
    blocks = build_vector_blocks(df, spec, groups)
    return reduce(DataFrame.unionByName, [_score_block(df, spec, blk) for blk in blocks])
