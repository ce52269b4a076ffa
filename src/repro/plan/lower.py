"""Lowering of the logical algebra to DataFrames (Catalyst plans).

``lower(node, catalog)`` turns a logical tree into a (lazy) DataFrame.
COMPARE nodes dispatch to the execution strategies of
:mod:`repro.core`; a ``TopK`` directly above a Φ lowers to
``compare_topk``'s ``compare`` strategy (the Φp pruning physical
operator, or exact trendwise for a MIN/MAX scorer).
"""
from __future__ import annotations

from functools import reduce

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.compare import compare, compare_topk, topk_exact
from repro.core.pairs import pair_key_cols
from repro.core.trendwise import compare_trendwise

from . import rules as R
from .logical import (
    Compare,
    CompareChain,
    Filter,
    GroupAgg,
    Join,
    Node,
    PairJoin,
    Rename,
    Scan,
    ScoreAgg,
    TopK,
    Union,
    chain_stage_name,
)


def _apply_preds(df: DataFrame, preds) -> DataFrame:
    for col, val in preds:
        if isinstance(val, tuple):
            df = df.filter(F.col(col).isin(list(val)))
        else:
            df = df.filter(F.col(col) == F.lit(val))
    return df


def lower(node: Node, catalog: dict[str, DataFrame], strategy: str = "trendwise") -> DataFrame:
    """Lower a logical tree to a DataFrame."""
    if isinstance(node, Scan):
        return catalog[node.name]
    if isinstance(node, Filter):
        return _apply_preds(lower(node.child, catalog, strategy), node.preds)
    if isinstance(node, Join):
        left = lower(node.left, catalog, strategy)
        right = lower(node.right, catalog, strategy)
        return left.join(
            right, left[node.left_on] == right[node.right_on], "inner"
        )
    if isinstance(node, GroupAgg):
        df = lower(node.child, catalog, strategy)
        if not node.aggs:
            return df.select(*node.keys).dropDuplicates()
        fns = {"AVG": F.avg, "SUM": F.sum, "MIN": F.min, "MAX": F.max, "COUNT": F.count}
        return df.groupBy(*node.keys).agg(
            *[fns[a](c).alias(alias) for a, c, alias in node.aggs]
        )
    if isinstance(node, Rename):
        df = lower(node.child, catalog, strategy)
        for old, new in node.mapping:
            df = df.withColumnRenamed(old, new)
        return df
    if isinstance(node, Compare):
        return compare(lower(node.child, catalog, strategy), node.spec, strategy=strategy)
    if isinstance(node, TopK):
        if isinstance(node.child, Compare):
            return compare_topk(
                lower(node.child.child, catalog, strategy),
                node.child.spec,
                node.k,
                ascending=node.ascending,
                strategy="compare",
            )
        return topk_exact(lower(node.child, catalog, strategy), node.k, node.ascending)
    if isinstance(node, CompareChain):
        return _lower_chain(node, catalog, strategy)
    if isinstance(node, Union):
        parts = [lower(i, catalog, strategy) for i in node.inputs]
        return reduce(DataFrame.unionByName, parts)
    if isinstance(node, ScoreAgg):
        # verbose sub-plan: execute as the basic §4.1 plan it denotes
        extracted = R.extract_scoreagg(node)
        if extracted is None:
            raise ValueError("malformed verbose comparative sub-plan")
        scan, spec = extracted
        from repro.core.basic import compare_basic

        return compare_basic(catalog[scan.name], spec)
    if isinstance(node, PairJoin):
        raise NotImplementedError("PairJoin lowers only under ScoreAgg")
    raise TypeError(f"cannot lower {type(node).__name__}")


def _lower_chain(node: CompareChain, catalog, strategy: str) -> DataFrame:
    """Chained Φ (§6 R4): score pairs stage by stage, most selective first
    once R4 has reordered; each stage only scores surviving pairs."""
    df = lower(node.child, catalog, strategy)
    keys = pair_key_cols(node.stages[0][0])
    surviving: DataFrame | None = None
    out: DataFrame | None = None
    names = []
    for spec, op, tau in node.stages:
        if len(spec.gms) != 1:
            raise ValueError("CompareChain stages must have a single (g, m)")
        scored = compare_trendwise(df, spec, pair_filter=surviving)
        col = chain_stage_name(spec)
        names.append(col)
        scored = scored.select(*keys, F.col("score").alias(col))
        cond = F.col(col) <= F.lit(tau) if op == "<=" else F.col(col) >= F.lit(tau)
        scored = scored.filter(cond)
        out = scored if out is None else out.join(scored, on=keys, how="inner")
        surviving = out.select(*keys)
    # stages may have been reordered by R4: emit a canonical column order
    return out.select(*keys, *sorted(names))
