"""Group-by aggregation layer for COMPARE (paper §4.1 step 1 and §4.2 merging).

Every strategy and baseline reads its aggregates from one path,
:func:`plan_vector_blocks` (:func:`build_vector_blocks` when a block is
read more than once). Per :class:`MergeGroup` and grouping column it
builds a :class:`VectorBlock`: one relation per trendset side with
schema ``(vary constraint cols…, __g, __m0, __m1, …)``, one row per
(trend, grouping value) and one value column per (g, m) of the block.

* A group over one grouping column is one group-by computing all of its
  measures.
* A group over several grouping columns is *merged*: one group-by
  computing partial aggregates over the union of grouping columns, then a
  cheap re-aggregate per grouping column (§4.2 "Merging group-by
  aggregates", steps 1–4 of the merged sub-plan).
* *Shared across sides*: when trendset T1 is a fixed-value slice of T2
  (e.g. ``airport='SFO' <-> airport``), T1's relation is derived by
  filtering T2's instead of re-scanning the base relation; identical
  trendsets share one relation object.

The per-(g, m) plans (the merged join, the UDF and middleware
baselines) read each (g, m) as the projection ``(vary…, __g, __v)`` of
its block (:func:`gm_relations`).

Inside a :func:`persisted` scope the merged partials and (through
:func:`build_vector_blocks`, not :func:`plan_vector_blocks`) the blocks
are persisted (Spark does not share work between the re-aggregates, nor
between the actions that read a block, otherwise) and leaving the scope
unpersists them; outside one the blocks are plain lazy plans.

This layer builds relations only and runs no Spark action: the driver
paths fetch the blocks (:func:`repro.core.exact.block_arrays`).
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from pyspark import StorageLevel
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .spec import GM, CompareSpec, Measure, TrendsetSpec

G_COL = "__g"
V_COL = "__v"

#: The frames the innermost open :func:`persisted` scope has persisted.
_SCOPE: ContextVar[list[DataFrame] | None] = ContextVar("persisted_scope", default=None)


@contextmanager
def persisted():
    """Persist the aggregates built in this scope (a context manager or a
    decorator); unpersist them on exit. A nested scope releases only its own
    frames: one whose plan is already cached is not persisted again."""
    frames: list[DataFrame] = []
    token = _SCOPE.set(frames)
    try:
        yield
    finally:
        _SCOPE.reset(token)
        while frames:  # dependents first: a block before the partial it reads
            frames.pop().unpersist()


def _persist(df: DataFrame) -> None:
    """Persist ``df`` for the open scope, if there is one and ``df`` is not cached yet."""
    frames = _SCOPE.get()
    if frames is not None and df.storageLevel == StorageLevel.NONE:
        frames.append(df.persist())


def clear_cache() -> None:
    """No-op. Aggregates are released by the :func:`persisted` scope that
    persisted them; this stays only because ``perfbench/run.py`` imports it."""


@dataclass(frozen=True)
class MergeGroup:
    """A set of (grouping, measure) pairs computed by one group-by."""

    gms: tuple[GM, ...]

    @property
    def groupings(self) -> tuple[str, ...]:
        out: list[str] = []
        for g, _ in self.gms:
            if g not in out:
                out.append(g)
        return tuple(out)

    @property
    def measures(self) -> tuple[Measure, ...]:
        out: list[Measure] = []
        for _, m in self.gms:
            if m not in out:
                out.append(m)
        return tuple(out)


def same_grouping_groups(gms: tuple[GM, ...]) -> list[MergeGroup]:
    """Merge all (g, m) sharing a grouping column (always beneficial)."""
    by_g: dict[str, list[GM]] = {}
    for g, m in gms:
        by_g.setdefault(g, []).append((g, m))
    return [MergeGroup(tuple(v)) for v in by_g.values()]


# ---------------------------------------------------------------------------


def filtered(df: DataFrame, ts: TrendsetSpec) -> DataFrame:
    """Apply the fixed conjunctive constraint of a trendset (Def. 2)."""
    for t in ts.fixed:
        df = df.filter(F.col(t.col) == F.lit(t.value))
    return df


def _partial_exprs(measures: tuple[Measure, ...]):
    """Partial aggregates that allow algebraic re-aggregation."""
    exprs, names = [], {}
    for i, m in enumerate(measures):
        if m.agg in ("AVG", "SUM", "COUNT"):
            s, c = f"__s{i}", f"__c{i}"
            exprs += [F.sum(m.col).alias(s), F.count(m.col).alias(c)]
            names[m] = (s, c)
        elif m.agg == "MIN":
            s = f"__s{i}"
            exprs.append(F.min(m.col).alias(s))
            names[m] = (s, None)
        else:  # MAX
            s = f"__s{i}"
            exprs.append(F.max(m.col).alias(s))
            names[m] = (s, None)
    return exprs, names


def _refinal_expr(m: Measure, names):
    s, c = names[m]
    if m.agg == "AVG":
        return (F.sum(s) / F.sum(c)).cast("double")
    if m.agg == "SUM":
        return F.sum(s).cast("double")
    if m.agg == "COUNT":
        return F.sum(c).cast("double")
    if m.agg == "MIN":
        return F.min(s).cast("double")
    return F.max(s).cast("double")


def _direct_expr(m: Measure):
    fn = {"AVG": F.avg, "SUM": F.sum, "MIN": F.min, "MAX": F.max, "COUNT": F.count}[m.agg]
    return fn(m.col).cast("double")


@dataclass
class VectorBlock:
    """All measures that share one grouping column, as one relation.

    This is the §4.2 sharing taken to the physical layer: every (g, m)
    with the same grouping ``g`` (after Algorithm-1 merging) is served
    by a single aggregated relation ``(vary…, __g, __m0, __m1, …)`` so
    the trendwise/Φp stages downstream pay one shuffle per *block*, not
    one per (g, m).
    """

    g: str
    value_cols: dict  # gm -> value column name in rel1/rel2
    rel1: DataFrame
    rel2: DataFrame
    shared: bool  # rel1 is rel2


def _block_rels_for_side(df: DataFrame, ts: TrendsetSpec, groups: list[MergeGroup]):
    """Per (group, grouping) block relations for one trendset side."""
    base = filtered(df, ts)
    vary = list(ts.vary_cols)
    out = {}  # (group_idx, g) -> (rel, {gm: col})
    for gidx, grp in enumerate(groups):
        if len(grp.groupings) == 1:
            g = grp.groupings[0]
            cols = {gm: f"__m{j}" for j, gm in enumerate(grp.gms)}
            rel = base.groupBy(*vary, g).agg(
                *[_direct_expr(gm[1]).alias(cols[gm]) for gm in grp.gms]
            ).withColumnRenamed(g, G_COL)
            out[(gidx, g)] = (rel, cols)
        else:
            exprs, names = _partial_exprs(grp.measures)
            partial_aggs = base.groupBy(*vary, *grp.groupings).agg(*exprs)
            _persist(partial_aggs)
            for g in grp.groupings:
                gms_g = tuple(gm for gm in grp.gms if gm[0] == g)
                cols = {gm: f"__m{j}" for j, gm in enumerate(gms_g)}
                rel = partial_aggs.groupBy(*vary, g).agg(
                    *[_refinal_expr(gm[1], names).alias(cols[gm]) for gm in gms_g]
                ).withColumnRenamed(g, G_COL)
                out[(gidx, g)] = (rel, cols)
    return out


def plan_vector_blocks(
    df: DataFrame, spec: CompareSpec, groups: list[MergeGroup] | None = None
) -> list[VectorBlock]:
    """Block relations for both sides (T1 reuses T2's when possible), for a
    caller that reads each block side once: inside a :func:`persisted`
    scope only the merged partials, which every re-aggregate reads, are
    persisted."""
    groups = groups if groups is not None else same_grouping_groups(spec.gms)
    side2 = _block_rels_for_side(df, spec.t2, groups)
    slice_f = slice_filters(spec)
    if spec.same_trendsets:
        side1 = side2
    elif slice_f is not None:
        side1 = {}
        for key, (rel, cols) in side2.items():
            derived = rel
            for c, v in slice_f.items():
                derived = derived.filter(F.col(c) == F.lit(v))
            derived = derived.drop(*[c for c in slice_f if c not in spec.t1.vary_cols])
            side1[key] = (derived, cols)
    else:
        side1 = _block_rels_for_side(df, spec.t1, groups)
    return [
        VectorBlock(g=key[1], value_cols=cols, rel1=side1[key][0], rel2=rel2,
                    shared=side1[key][0] is rel2)
        for key, (rel2, cols) in side2.items()
    ]


def build_vector_blocks(
    df: DataFrame, spec: CompareSpec, groups: list[MergeGroup] | None = None
) -> list[VectorBlock]:
    """:func:`plan_vector_blocks`, the block relations persisted in the open
    scope too: for a caller that reads a block more than once
    (:func:`gm_relations` once per (g, m))."""
    blocks = plan_vector_blocks(df, spec, groups)
    for blk in blocks:
        _persist(blk.rel2)
        if not blk.shared:
            _persist(blk.rel1)
    return blocks


def gm_relations(
    blocks: list[VectorBlock], spec: CompareSpec
) -> dict[GM, tuple[DataFrame, DataFrame]]:
    """Both sides of every (g, m) as ``(vary…, __g, __v)`` projections of its block.

    A shared block yields one projection object for both sides, so a
    consumer can tell (``rel1 is rel2``) that it needs to compute it once.
    """
    out = {}
    for blk in blocks:
        for gm, vc in blk.value_cols.items():
            rel2 = blk.rel2.select(*spec.t2.vary_cols, G_COL, F.col(vc).alias(V_COL))
            rel1 = rel2 if blk.shared else blk.rel1.select(
                *spec.t1.vary_cols, G_COL, F.col(vc).alias(V_COL)
            )
            out[gm] = (rel1, rel2)
    return out


def slice_filters(spec: CompareSpec) -> dict[str, object] | None:
    """If T1 is a fixed-value slice of T2's trends, the filters deriving it.

    Requires identical constraint column sets where every T1-fixed /
    T2-varying column supplies a filter and all other terms coincide.
    """
    if set(spec.t1.cols) != set(spec.t2.cols):
        return None
    t2 = {t.col: t for t in spec.t2.terms}
    filters: dict[str, object] = {}
    for t in spec.t1.terms:
        o = t2[t.col]
        if t.varies and o.varies:
            continue
        if not t.varies and o.varies:
            filters[t.col] = t.value
        elif not t.varies and not o.varies and t.value == o.value:
            continue
        else:
            return None
    return filters
