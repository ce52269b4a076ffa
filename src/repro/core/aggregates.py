"""Group-by aggregation layer for COMPARE (paper §4.1 step 1 and §4.2 merging).

Every strategy and baseline reads its aggregates from one path: each
trendset side is **one relation** (:func:`side_aggregate`), whose rows
carry (``__b``) the grouping set they belong to.

* The groups over one grouping column share one ``GROUPING SETS``
  aggregate over the filtered base relation, a set ``(vary…, g)`` per
  distinct grouping column: one scan and one shuffle for all of them
  (Gray et al., "Data Cube", ICDE 1996).
* A group over several grouping columns is *merged*: one group-by
  computing partial aggregates over the union of its grouping columns,
  then one grouping-sets re-aggregate over that partial (§4.2 "Merging
  group-by aggregates", steps 1–4 of the merged sub-plan).
* *Shared across sides*: when trendset T1 is a fixed-value slice of T2
  (e.g. ``airport='SFO' <-> airport``), T1 is read from T2's relation;
  identical trendsets share one.

A :class:`VectorBlock` (per :class:`MergeGroup` and grouping column) is
a view of its group's side relations: its set's rows as ``(vary…, __g,
value cols…)``, one row per (trend, grouping value) and one value column
per (g, m). The lazy paths (the ``merged`` join and the trendwise tasks)
read the views, each once.

This layer builds relations only, runs no Spark action and persists
nothing: the driver paths and the client baselines fetch each side
relation once and decode it with :func:`repro.core.exact.table_arrays`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .spec import GM, CompareSpec, Measure, TrendsetSpec

G_COL = "__g"
#: a side relation's column holding the grouping set of its row (:func:`side_aggregate`)
B_COL = "__b"

def clear_cache() -> None:
    """No-op: aggregates are never cached. This stays only because
    ``perfbench/run.py`` imports it."""


@dataclass(frozen=True)
class MergeGroup:
    """A set of (grouping, measure) pairs computed by one group-by."""

    gms: tuple[GM, ...]

    @property
    def groupings(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(g for g, _ in self.gms))

    @property
    def measures(self) -> tuple[Measure, ...]:
        return tuple(dict.fromkeys(m for _, m in self.gms))


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
    """Partial aggregates that allow algebraic re-aggregation, and per
    measure its re-aggregate over them."""
    exprs, refinal = [], {}
    for i, m in enumerate(measures):
        s, c = f"__s{i}", f"__c{i}"
        if m.agg in ("MIN", "MAX"):
            fn = F.min if m.agg == "MIN" else F.max
            exprs.append(fn(m.col).alias(s))
            refinal[m] = fn(s)
        else:
            exprs += [F.sum(m.col).alias(s), F.count(m.col).alias(c)]
            refinal[m] = {"AVG": F.sum(s) / F.sum(c), "SUM": F.sum(s), "COUNT": F.sum(c)}[m.agg]
    return exprs, {m: e.cast("double") for m, e in refinal.items()}


def _direct_expr(m: Measure):
    fn = {"AVG": F.avg, "SUM": F.sum, "MIN": F.min, "MAX": F.max, "COUNT": F.count}[m.agg]
    return fn(m.col).cast("double")


@dataclass(frozen=True)
class BlockLayout:
    """A block's rows in its side's :func:`side_aggregate`: those whose
    ``B_COL`` is ``tag``, keyed by ``g``, with (g, m) ``gm`` in ``value_cols[gm]``."""

    g: str
    value_cols: dict  # gm -> value column name
    tag: int


@dataclass
class VectorBlock:
    """All measures that share one grouping column, as one relation per side.

    This is the §4.2 sharing taken to the physical layer: every (g, m)
    with the same grouping ``g`` (after Algorithm-1 merging) is served
    by a single aggregated relation ``(vary…, __g, __m0, __m1, …)``, a
    view of its group's :func:`side_aggregate`.
    """

    g: str
    value_cols: dict  # gm -> value column name in rel1/rel2
    rel1: DataFrame
    rel2: DataFrame
    shared: bool  # rel1 is rel2


def side_aggregate(
    df: DataFrame, ts: TrendsetSpec, groups: list[MergeGroup]
) -> tuple[DataFrame, list[BlockLayout]]:
    """One trendset side's blocks as one relation ``(vary…, grouping
    cols…, value cols…, B_COL)``, and per block (single-grouping groups
    first, then each merged group's) where its rows are.

    The single-grouping groups' aggregate and each merged group's
    re-aggregate are unioned; a row's ``B_COL`` numbers its grouping set.
    The layout depends on ``groups`` only, so both sides share it.
    """
    base, vary = filtered(df, ts), list(ts.vary_cols)
    single = [grp for grp in groups if len(grp.groupings) == 1]
    measures = dict.fromkeys(m for grp in single for m in grp.measures)
    parts = [(base, single, {m: _direct_expr(m) for m in measures})] if single else []
    for grp in groups:
        if len(grp.groupings) > 1:
            exprs, refinal = _partial_exprs(grp.measures)
            parts.append((base.groupBy(*vary, *grp.groupings).agg(*exprs), [grp], refinal))
    rels, layout, n_tags, n_cols = [], [], 0, 0
    for rel, grps, aggs in parts:
        gs = list(dict.fromkeys(g for grp in grps for g in grp.groupings))
        cols = {m: f"__m{n_cols + j}" for j, m in enumerate(aggs)}
        values = [e.alias(cols[m]) for m, e in aggs.items()]
        if len(gs) == 1:  # Spark would still Expand one set: ~15 % slower on TPC-DS Q2@192
            rels.append(rel.groupBy(*vary, *gs).agg(*values, F.lit(n_tags).alias(B_COL)))
        else:
            tag = F.when(F.grouping(gs[0]) == 0, n_tags)  # grouping(g) is 0 on g's set's rows
            for i, g in enumerate(gs[1:], 1):
                tag = tag.when(F.grouping(g) == 0, n_tags + i)
            rels.append(rel.groupingSets([[*vary, g] for g in gs], *vary, *gs).agg(*values, tag.alias(B_COL)))
        layout += [
            BlockLayout(g, {gm: cols[gm[1]] for gm in grp.gms if gm[0] == g}, n_tags + gs.index(g))
            for grp in grps for g in grp.groupings
        ]
        n_tags, n_cols = n_tags + len(gs), n_cols + len(aggs)
    return reduce(lambda a, b: a.unionByName(b, allowMissingColumns=True), rels), layout


def plan_sides(
    df: DataFrame, spec: CompareSpec, groups: list[MergeGroup] | None = None
) -> tuple[DataFrame | None, DataFrame, list[BlockLayout]]:
    """``(side1, side2, layout)``: T1's and T2's :func:`side_aggregate` and
    their block layout; ``side1`` is None when T1 is a slice of T2
    (:func:`slice_filters`, identical trendsets included)."""
    groups = groups if groups is not None else same_grouping_groups(spec.gms)
    side2, layout = side_aggregate(df, spec.t2, groups)
    side1 = None if slice_filters(spec) is not None else side_aggregate(df, spec.t1, groups)[0]
    return side1, side2, layout


def _view(side: DataFrame, ts: TrendsetSpec, blk: BlockLayout) -> DataFrame:
    """Block ``blk`` of a side relation as ``(vary…, __g, value cols…)``."""
    return side.filter(F.col(B_COL) == blk.tag).select(
        *ts.vary_cols, F.col(blk.g).alias(G_COL), *blk.value_cols.values()
    )


def build_vector_blocks(
    df: DataFrame, spec: CompareSpec, groups: list[MergeGroup] | None = None
) -> list[VectorBlock]:
    """Both sides of every block, as views of its own group's
    :func:`plan_sides` relations (read on their own, a single-grouping
    group's is a plain group-by with no ``Expand``); a slice T1 filters T2's
    relation, and identical trendsets share one view object."""
    blocks = []
    for grp in groups if groups is not None else same_grouping_groups(spec.gms):
        side1, side2, layout = plan_sides(df, spec, [grp])
        if side1 is None:
            side1 = side2
            for c, v in slice_filters(spec).items():
                side1 = side1.filter(F.col(c) == F.lit(v))
        for blk in layout:
            rel2 = _view(side2, spec.t2, blk)
            rel1 = rel2 if spec.same_trendsets else _view(side1, spec.t1, blk)
            blocks.append(VectorBlock(blk.g, blk.value_cols, rel1, rel2, rel1 is rel2))
    return blocks


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
