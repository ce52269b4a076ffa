"""Public COMPARE API: strategy dispatch.

Strategies (the Fig. 9b ablation levels, left to right):

* ``basic``     — §4.1 plan: the verbose Fig. 3 SQL through Catalyst
  (per-(g, m) group-bys, trendset-level join).
* ``merged``    — §4.2 merged/shared group-by aggregates, same join.
* ``trendwise`` — merged aggregates + trendwise partitioned comparison:
  one Spark task per pair of trend chunks, which decodes and scores them
  as the driver top-k does (:mod:`repro.core.trendwise`).
* ``optimized`` — Algorithm-1-chosen merge groups + trendwise comparison.

Top-k-only strategies (``compare_topk``):

* ``pruned``  — Φp segment-aggregate pruning, no early termination.
* ``compare`` — the full system: Φp pruning + early termination,
  Algorithm-1 merge groups (the paper's COMPARE configuration). Φp's
  bounds need a SUM/AVG scorer; a MIN/MAX scorer falls back to the exact
  top-k over the same groups.

Under ``compare_topk``, ``trendwise`` and ``optimized`` score their pairs
on the driver (:func:`~repro.core.exact.compare_topk_exact`) instead of
sorting the lazy Spark output.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .aggregates import persisted
from .basic import compare_basic, compare_merged
from .exact import compare_topk_exact
from .pairs import local_frame
from .pruning import compare_topk_pruned
from .spec import CompareSpec
from .trendwise import compare_trendwise

EXACT_STRATEGIES = ("basic", "merged", "trendwise", "optimized")
TOPK_STRATEGIES = EXACT_STRATEGIES + ("pruned", "compare")


def _optimizer_groups(df: DataFrame, spec: CompareSpec, fds: dict[str, str] | None):
    """Algorithm-1 merge groups; ``None`` (the default grouping) for one
    (g, m), where there is nothing to merge. The statistics come from the
    session catalog, so only a column the input has not been scanned for
    yet runs a statistics job."""
    from repro.plan.cost import TableStats
    from repro.plan.optimizer import merge_partition

    if len(spec.gms) < 2:
        return None
    # the cost model reads distinct counts of constraint and grouping columns only
    cols = dict.fromkeys([*spec.t1.cols, *spec.t2.cols, *(g for g, _ in spec.gms)])
    return merge_partition(spec, TableStats.of_input(df, list(cols), fds))


def compare(
    df: DataFrame,
    spec: CompareSpec,
    strategy: str = "trendwise",
    *,
    fds: dict[str, str] | None = None,
) -> DataFrame:
    """Φ(R, T1 <-> T2, F): scores for every compared pair of trends.

    ``fds`` are optional functional-dependency hints consumed by the
    Algorithm-1 cost model under ``strategy='optimized'``.
    """
    if strategy == "basic":
        return compare_basic(df, spec)
    if strategy == "merged":
        return compare_merged(df, spec)
    if strategy == "trendwise":
        return compare_trendwise(df, spec)
    if strategy == "optimized":
        return compare_trendwise(df, spec, groups=_optimizer_groups(df, spec, fds))
    raise ValueError(f"unknown strategy {strategy!r}; pick one of {EXACT_STRATEGIES}")


def topk_exact(scores: DataFrame, k: int, ascending: bool = True) -> DataFrame:
    """Deterministic top-k over a COMPARE output (ties broken by identity)."""
    order = [F.col("score").asc() if ascending else F.col("score").desc()] + [
        F.col(c) for c in scores.columns if c != "score"
    ]
    return scores.orderBy(*order).limit(k)


def compare_topk(
    df: DataFrame,
    spec: CompareSpec,
    k: int = 5,
    *,
    ascending: bool = True,
    strategy: str = "compare",
    fds: dict[str, str] | None = None,
) -> DataFrame:
    """Top-k comparative query (§3.2), via an exact top-k or the Φp operator,
    computed inside the call's ``persisted()`` scope as a local relation.

    ``trendwise``/``optimized`` (and ``compare`` under a MIN/MAX scorer)
    score every candidate pair on the driver (:mod:`repro.core.exact`);
    ``basic``/``merged`` sort their lazy ``compare()`` output.
    """
    with persisted():
        if strategy == "pruned":
            return compare_topk_pruned(df, spec, k, ascending=ascending, early_termination=False)
        if strategy == "compare":
            groups = _optimizer_groups(df, spec, fds)
            if spec.scorer.agg in ("MIN", "MAX"):
                return compare_topk_exact(df, spec, k, ascending=ascending, groups=groups)
            return compare_topk_pruned(
                df, spec, k, ascending=ascending, early_termination=True, groups=groups
            )
        if strategy in ("trendwise", "optimized"):
            groups = _optimizer_groups(df, spec, fds) if strategy == "optimized" else None
            return compare_topk_exact(df, spec, k, ascending=ascending, groups=groups)
        if strategy not in EXACT_STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; pick one of {TOPK_STRATEGIES}")
        top = topk_exact(compare(df, spec, strategy, fds=fds), k, ascending)
        return local_frame(df.sparkSession, top.collect(), top.schema)
