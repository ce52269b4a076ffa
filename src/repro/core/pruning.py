"""The Φp pruning physical operator for DIFF-based comparison (paper §5).

Summarize → Bound → Prune → refine:

1. **Summarize** — each trend is summarized by *segment aggregates*
   (COUNT, SUM, MIN, MAX per segment) plus its key bitmap (the paper's
   bitmap, used to COUNT matching tuples between trends). Segment count
   follows Sturges, ``floor(1 + log2(n))``. Segments are aligned on
   **global grouping-value quantile buckets** (identical to the paper's
   index segments when trend domains coincide, and sound when they do
   not — see DESIGN.md §4). Summaries are computed *in Spark* (one
   groupBy over trend × segment per block side, the segment id a range
   expression over the segments' lower-edge values) and decoded into
   dense (trends × segments) arrays plus a (trends × domain) bitmap
   (:class:`SegAgg`): O(p · log(n/p)) floats.
2. **Bound** — for every candidate pair at once, as (pairs × segments)
   broadcasts (:func:`bound_pairs`): the matched COUNT per segment is
   the AND+sum of the two bitmaps; the lower bound of a fully-matched
   segment is ``cnt · DIFF(avg1, avg2, p)`` (Theorem 1, convexity); the
   upper bound of any matched segment is
   ``cnt · max(|max1−min2|, |max2−min1|)^p`` (non-negativity +
   monotonicity). Sums over segments bound ``SUM OVER DIFF(p)``; AVG
   scores divide by the exact matched count.
3. **Prune** — the threshold T is the k-th best pessimistic bound over
   all pairs (one ``np.partition``); any pair whose optimistic bound
   cannot reach T is pruned *before its tuples are ever joined*.
   Surviving trends' aggregated vectors are then fetched and refined
   one segment (or a configurable tuple chunk, Fig. 12) at a time under
   two priority queues (Algorithm 2) until the top-k pairs are exact.

The TState of a pair is a row index into columns (:class:`_Phi`):
per-segment bounds and matched counts, refinement cursor, pruned flag,
optimistic / pessimistic bound. PQ_S is the set of k rows with the best
pessimistic bounds, so reading T costs O(k) per refinement step, not a
scan over every pair. Rows are sorted by output identity, so ties at
equal scores break as in :func:`repro.core.compare.topk_exact`.

This module is the paper's new physical operator; Algorithm 2 runs
single-threaded on the driver (as in the paper's pseudo-code) over
Spark-computed summaries — see DESIGN.md §2 for the layering argument.
The Spark actions of one call are a domain ``collect`` per grouping
column, then a summary per block side, then a survivor fetch per block
side; the actions of each phase are independent and run concurrently
(:func:`_run_concurrently`). The top-k result is a local relation, so
collecting it runs no Spark job.
"""
from __future__ import annotations

import heapq
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.util import inheritable_thread_target

from .aggregates import G_COL, MergeGroup, VectorBlock, build_vector_blocks, same_grouping_groups
from .pairs import candidate_pairs, local_frame, output_rows, output_schema, py_scalar
from .scorer import diff_np, score_from_sum
from .spec import CompareSpec


def sturges(n: int) -> int:
    """Number of segment aggregates per trend, ``floor(1 + log2(n))``."""
    return max(1, int(1 + math.log2(n))) if n > 0 else 1


def prune_slack(thr: float) -> float:
    """Relative epsilon for prune comparisons.

    For p=1 the Theorem-1 lower bound is *exactly* tight when all tuple
    diffs share a sign, so float rounding can place a pair's bound a few
    ulps above its true score; without slack the threshold would prune
    the k-th pair against itself.
    """
    return 1e-9 * max(1.0, abs(thr))


@dataclass
class PruneStats:
    """Observability for the ablation / sensitivity experiments."""

    n_pairs: int = 0
    pruned_initial: int = 0
    pruned_refining: int = 0
    refine_steps: int = 0
    segments_refined: int = 0
    tuples_compared: int = 0
    summary_floats: int = 0  # 4 aggregates × segments × trends (memory proxy)
    surviving_trends: int = 0
    total_trends: int = 0


@dataclass
class Segmentation:
    """One grouping column's domain, cut into contiguous quantile segments."""

    domain: list  # sorted distinct grouping values; a key is an index into it
    edges: np.ndarray  # segment b holds keys edges[b]:edges[b+1]

    @property
    def n_segments(self) -> int:
        return len(self.edges) - 1

    def segment_of(self, g: Column) -> Column:
        """Segment id of grouping value ``g``: a range expression over the
        lower-edge values of segments 1…l−1."""
        lower = [self.domain[i] for i in self.edges[1:-1]]
        if not lower:
            return F.lit(0)
        expr = F.when(g < F.lit(lower[0]), 0)
        for b, v in enumerate(lower[1:], 1):
            expr = expr.when(g < F.lit(v), b)
        return expr.otherwise(len(lower))

    def key_index(self, values) -> np.ndarray:
        """Each grouping value's index into the domain, −1 if it is not in it."""
        return pd.Index(self.domain).get_indexer(values)


@dataclass
class SegAgg:
    """SegAgg of every trend of one side for one (g, m), as dense arrays.

    Rows are the side's trends, in the order of its trend-id list.
    """

    cnt: np.ndarray  # (trends, segments) int64: tuples per segment
    sum: np.ndarray  # (trends, segments) float64
    min: np.ndarray  # (trends, segments) float64, +inf where empty
    max: np.ndarray  # (trends, segments) float64, -inf where empty
    member: np.ndarray  # (trends, domain) bool: the key bitmap
    edges: np.ndarray  # Segmentation.edges


def _run_concurrently(spark: SparkSession, actions: list) -> list:
    """Results of independent Spark actions (zero-argument callables), in
    ``actions`` order; two or more run on one thread each.

    Each thread inherits the caller's local properties (its job group,
    scheduler pool), so its jobs are attributed as the caller's own.
    """
    if len(actions) < 2:
        return [a() for a in actions]
    with ThreadPoolExecutor(len(actions)) as pool:
        futures = [pool.submit(inheritable_thread_target(spark)(a)) for a in actions]
        return [f.result() for f in futures]


def _per_block_side(spark: SparkSession, spec: CompareSpec, blocks: list[VectorBlock], action):
    """``(result1, result2)`` per block of ``action(b, rel, vary, side)``
    over block ``b``'s side relations (side 0 is T1's, 1 is T2's).

    Every block side's action runs concurrently; a shared block runs
    T2's only and uses it for both sides.
    """
    calls = []
    for b, blk in enumerate(blocks):
        calls.append(partial(action, b, blk.rel2, spec.t2.vary_cols, 1))
        if not blk.shared:
            calls.append(partial(action, b, blk.rel1, spec.t1.vary_cols, 0))
    results = iter(_run_concurrently(spark, calls))
    out = []
    for blk in blocks:
        r2 = next(results)
        out.append((r2 if blk.shared else next(results), r2))
    return out


def _domain(blk: VectorBlock) -> list:
    """Sorted distinct grouping values of both sides of a block (one action)."""
    dom = blk.rel2.select(G_COL)
    if not blk.shared:
        dom = dom.union(blk.rel1.select(G_COL))
    return sorted(r[0] for r in dom.distinct().collect())


def segmentations(blocks: list[VectorBlock], n_segments: int | None) -> dict[str, Segmentation]:
    """Domain and segments of each grouping column.

    One domain ``collect`` per grouping column; the columns' actions run
    concurrently.
    """
    first = {}
    for blk in blocks:
        first.setdefault(blk.g, blk)
    spark = blocks[0].rel2.sparkSession if blocks else None
    domains = _run_concurrently(spark, [partial(_domain, blk) for blk in first.values()])
    out: dict[str, Segmentation] = {}
    for g, gvals in zip(first, domains):
        nd = len(gvals)
        l = n_segments if n_segments is not None else sturges(nd)
        l = max(1, min(l, nd)) if nd else 1
        seg_of = (np.arange(nd, dtype=np.int64) * l) // max(nd, 1)
        out[g] = Segmentation(gvals, np.searchsorted(seg_of, np.arange(l + 1)))
    return out


def _trend_rows(pdf: pd.DataFrame, vary: tuple[str, ...], tids: list[tuple] | None = None):
    """Trend ids (sorted vary-value tuples, unless given) and each row's index into them."""
    if not vary:
        return ([()] if len(pdf) else []), np.zeros(len(pdf), dtype=np.int64)
    rows = pd.MultiIndex.from_frame(pdf[list(vary)])
    if tids is None:
        tids = sorted(rows.unique())
    if not tids:
        return tids, np.zeros(0, dtype=np.int64)
    return tids, pd.MultiIndex.from_tuples(tids).get_indexer(rows)


def summarize(
    rel: DataFrame, vary: tuple[str, ...], blk: VectorBlock, seg: Segmentation
) -> tuple[list[tuple], dict]:
    """Summarize one side of a block: its trend ids and a SegAgg per (g, m).

    Segment aggregates of every measure of the block come from ONE
    groupBy over trend × segment, fetched through Arrow; each group's
    grouping values are indexed into the domain on the driver. Rows whose
    grouping value is NULL match no key, as in an equi-join.
    """
    l, nd = seg.n_segments, len(seg.domain)
    aggs = {"__cnt": F.count(F.lit(1)), "__keys": F.collect_list(G_COL)}
    for vc in blk.value_cols.values():
        aggs.update({"s" + vc: F.sum(vc), "n" + vc: F.min(vc), "x" + vc: F.max(vc)})
    pdf = pd.DataFrame(columns=[*vary, "__b", *aggs])  # empty domain: no rows
    if nd:
        pdf = (
            rel.where(F.col(G_COL).isNotNull())
            .groupBy(*vary, seg.segment_of(F.col(G_COL)).alias("__b"))
            .agg(*(c.alias(name) for name, c in aggs.items()))
            .toPandas()
        )
    tids, ti = _trend_rows(pdf, vary)
    b = pdf["__b"].to_numpy(dtype=np.int64)
    cnt = np.zeros((len(tids), l), dtype=np.int64)
    cnt[ti, b] = pdf["__cnt"].to_numpy(dtype=np.int64)
    member = np.zeros((len(tids), nd), dtype=bool)
    if len(pdf):
        keys = pdf["__keys"]
        gi = seg.key_index(np.concatenate(keys.tolist()))
        hit = gi >= 0  # a value outside the domain sets no bit
        member[np.repeat(ti, keys.map(len))[hit], gi[hit]] = True
    out = {}
    for gm, vc in blk.value_cols.items():
        arrs = []
        for pre, fill in (("s", 0.0), ("n", np.inf), ("x", -np.inf)):
            a = np.full((len(tids), l), fill)
            a[ti, b] = pdf[pre + vc].to_numpy(dtype=np.float64)
            arrs.append(a)
        out[gm] = SegAgg(cnt, *arrs, member, seg.edges)
    return tids, out


def bound_pairs(s1: SegAgg, s2: SegAgg, ia: np.ndarray, ib: np.ndarray, p: int):
    """Matched counts and SUM OVER DIFF(p) bounds of pairs ``(ia[j], ib[j])``.

    Returns ``(matched, lb, ub)``, each (pairs × segments). The matched
    COUNT of a segment is the AND+sum (a 0/1 dot product) of the two key
    bitmaps; Theorem 1 gives ``lb`` where a segment is fully matched on
    both sides (0 elsewhere), the max-gap bound gives ``ub`` wherever a
    segment has matches.
    """
    m1, m2 = s1.member.astype(np.float64), s2.member.astype(np.float64)
    e = s1.edges
    matched = np.zeros((len(ia), len(e) - 1), dtype=np.int64)
    for b in range(len(e) - 1):
        matched[:, b] = (m1[:, e[b]:e[b + 1]] @ m2[:, e[b]:e[b + 1]].T)[ia, ib]
    with np.errstate(divide="ignore", invalid="ignore"):
        avg1, avg2 = s1.sum / s1.cnt, s2.sum / s2.cnt
        full = (matched > 0) & (matched == s1.cnt[ia]) & (matched == s2.cnt[ib])
        lb = np.where(full, matched * diff_np(avg1[ia], avg2[ib], p), 0.0)
        gap = np.maximum(diff_np(s1.max[ia], s2.min[ib], p), diff_np(s2.max[ib], s1.min[ia], p))
        ub = np.where(matched > 0, matched * gap, 0.0)
    return matched, lb, ub


class _Phi:
    """Driver-side state of one Φp invocation across all (g, m).

    The TState of pair ``i`` is row ``i`` of the columns below; rows are
    sorted by output identity (l_ trend, r_ trend, grouping, measure).
    """

    def __init__(self, spec: CompareSpec, k: int, ascending: bool, tuples_per_update: int | None,
                 gm, ia, ib, matched, lb, ub):
        self.spec, self.k, self.asc = spec, k, ascending
        self.gm, self.ia, self.ib = gm, ia, ib
        self.matched, self.lb, self.ub = matched, lb, ub  # (pairs × segments)
        self.cnt = matched.sum(axis=1)
        self.left = (matched > 0).sum(axis=1)  # segments still to refine
        self.next = np.zeros(len(gm), dtype=np.int64)  # refinement cursor
        self.pruned = np.zeros(len(gm), dtype=bool)
        # matched tuples per refinement step: the Fig. 12 knob, else one average segment
        self.budget = (
            np.full(len(gm), tuples_per_update) if tuples_per_update
            else np.maximum(1, self.cnt // np.maximum(1, self.left))
        )
        lo = score_from_sum(spec.scorer, lb.sum(axis=1), self.cnt)
        hi = score_from_sum(spec.scorer, ub.sum(axis=1), self.cnt)
        # optimistic / pessimistic bounds under the requested direction
        self.opt = -lo if ascending else hi
        self.pess = -hi if ascending else lo
        self.stats = PruneStats(n_pairs=len(gm))
        self._rebuild_pq_s()

    # ---- PQ_S: the k rows with the best pessimistic bounds; T is their min
    def _rebuild_pq_s(self) -> None:
        self.in_top = np.zeros(len(self.pess), dtype=bool)
        if len(self.pess) <= self.k:
            self.top, self.thr = None, -np.inf
            return
        self.top = np.argpartition(self.pess, -self.k)[-self.k:]
        self.in_top[self.top] = True
        self.thr = float(self.pess[self.top].min())

    def _update_pq_s(self, i: int, old: float) -> None:
        """Pair ``i``'s pessimistic bound moved from ``old``: keep PQ_S and T exact.

        Pruned pairs stay in the candidate set: their pessimistic bounds
        lie below T, so they never enter PQ_S.
        """
        v = self.pess[i]
        if self.top is None or (v <= self.thr and not self.in_top[i]):
            return
        if self.in_top[i]:
            if v < old:  # float rounding lowered a bound: rebuild
                self._rebuild_pq_s()
                return
        else:
            j = int(np.argmin(self.pess[self.top]))
            self.in_top[self.top[j]] = False
            self.top[j] = i
            self.in_top[i] = True
        self.thr = float(self.pess[self.top].min())

    def prune_initial(self) -> None:
        slack = prune_slack(self.thr)
        self.pruned = self.opt < self.thr - slack
        self.stats.pruned_initial = int(self.pruned.sum())

    def refine(self, i: int, vecs) -> None:
        """Replace whole segments' bounds of pair ``i`` with exact partial
        scores, in segment order, until one update's worth of matched
        tuples is compared."""
        v1, m1, v2, m2, e = vecs[self.gm[i]]
        a, b, row, p = self.ia[i], self.ib[i], self.matched[i], self.spec.scorer.p
        lb, ub = self.lb[i], self.ub[i]
        s, done, left, budget = int(self.next[i]), 0, int(self.left[i]), self.budget[i]
        while left and done < budget:
            while not row[s]:
                s += 1
            lo, hi = e[s], e[s + 1]
            d = diff_np(v1[a, lo:hi], v2[b, lo:hi], p)[m1[a, lo:hi] & m2[b, lo:hi]]
            lb[s] = ub[s] = d.sum()
            done += row[s]
            s += 1
            left -= 1
            self.stats.segments_refined += 1
        self.next[i], self.left[i] = s, left
        self.stats.tuples_compared += int(done)
        self.stats.refine_steps += 1
        lo_s = score_from_sum(self.spec.scorer, lb.sum(), self.cnt[i])
        hi_s = score_from_sum(self.spec.scorer, ub.sum(), self.cnt[i])
        self.opt[i] = -lo_s if self.asc else hi_s
        self.pess[i] = -hi_s if self.asc else lo_s

    def topk(self, vecs, early_termination: bool) -> list[int]:
        """Rows of the exact top-k pairs, best first (ties by identity)."""
        alive = np.flatnonzero(~self.pruned)
        if not early_termination:
            # ablation stage: segment pruning only — score all survivors fully
            for i in alive:
                while self.left[i]:
                    self.refine(i, vecs)
            return alive[np.argsort(-self.opt[alive], kind="stable")][: self.k].tolist()
        # Algorithm 2: PQ over optimistic bounds, incremental refinement
        heap = [(-float(self.opt[i]), i) for i in alive.tolist()]
        heapq.heapify(heap)
        results: list[int] = []
        while heap and len(results) < self.k:
            _, i = heapq.heappop(heap)
            if not self.left[i]:
                results.append(i)  # max optimistic bound and exact ⇒ next best
                continue
            old = self.pess[i]
            self.refine(i, vecs)
            self._update_pq_s(i, old)
            if self.opt[i] < self.thr - prune_slack(self.thr):
                self.pruned[i] = True
                self.stats.pruned_refining += 1
                continue
            heapq.heappush(heap, (-float(self.opt[i]), i))
        return results


def _bound_all(spec: CompareSpec, sides: list):
    """TState columns ``(gm, ia, ib, matched, lb, ub)`` of every candidate
    pair with matches, rows sorted by output identity (l_ trend, r_ trend,
    grouping, measure) — the tie order of ``topk_exact``."""
    rank1 = {t: r for r, t in enumerate(sorted({t for (t1, _), _ in sides for t in t1}))}
    rank2 = {t: r for r, t in enumerate(sorted({t for _, (t2, _) in sides for t in t2}))}
    by_name = sorted(range(len(spec.gms)), key=lambda j: (spec.gms[j][0], spec.gms[j][1].name))
    gm_rank = np.argsort(by_name)
    parts = []
    for gi, ((tids1, aggs1), (tids2, aggs2)) in enumerate(sides):
        gm = spec.gms[gi]
        ia, ib = candidate_pairs(spec, tids1, tids2)
        matched, lb, ub = bound_pairs(aggs1[gm], aggs2[gm], ia, ib, spec.scorer.p)
        keep = matched.sum(axis=1) > 0  # no matching grouping values: no score (Def. 7)
        ia, ib = ia[keep], ib[keep]
        key1 = np.array([rank1[t] for t in tids1], dtype=np.int64)[ia]
        key2 = np.array([rank2[t] for t in tids2], dtype=np.int64)[ib]
        parts.append((np.full(len(ia), gi), ia, ib, key1, key2, matched[keep], lb[keep], ub[keep]))
    gm, ia, ib, key1, key2 = (np.concatenate(c) for c in list(zip(*parts))[:5])
    # groupings with fewer segments are padded with empty ones
    n_seg = max(part[5].shape[1] for part in parts)
    matched, lb, ub = (
        np.concatenate([np.pad(a, ((0, 0), (0, n_seg - a.shape[1]))) for a in c])
        for c in list(zip(*parts))[5:]
    )
    order = np.lexsort((gm_rank[gm], key2, key1))
    return gm[order], ia[order], ib[order], matched[order], lb[order], ub[order]


def _trend_filter(vary: tuple[str, ...], tids: list[tuple]) -> Column:
    """``vary`` is one of ``tids``: an IN over the column, or over a struct
    of the columns when there are several."""
    if len(vary) == 1:
        return F.col(vary[0]).isin([py_scalar(t[0]) for t in tids])
    return F.struct(*vary).isin(
        [F.struct(*(F.lit(py_scalar(v)).alias(c) for c, v in zip(vary, t))) for t in tids]
    )


def _fetch_values(
    rel: DataFrame, vary: tuple[str, ...], blk: VectorBlock, seg: Segmentation,
    tids: list[tuple], rows,
) -> dict:
    """Dense (trends × domain) value arrays per (g, m) of a block side,
    filled for the trend rows ``rows`` only (one Spark action, unfiltered
    when every trend is in ``rows``)."""
    out = {gm: np.full((len(tids), len(seg.domain)), np.nan) for gm in blk.value_cols}
    if not len(rows):
        return out
    if len(rows) < len(tids):
        rel = rel.where(_trend_filter(vary, [tids[r] for r in rows]))
    pdf = rel.toPandas()
    _, ti = _trend_rows(pdf, vary, tids)
    gi = seg.key_index(pdf[G_COL])
    hit = (ti >= 0) & (gi >= 0)  # a row outside the summarized trends or the domain fills nothing
    for gm, vc in blk.value_cols.items():
        out[gm][ti[hit], gi[hit]] = pdf[vc].to_numpy(dtype=np.float64)[hit]
    return out


def compare_topk_pruned(
    df: DataFrame,
    spec: CompareSpec,
    k: int = 5,
    *,
    ascending: bool = True,
    n_segments: int | None = None,
    tuples_per_update: int | None = None,
    early_termination: bool = True,
    groups: list[MergeGroup] | None = None,
    return_stats: bool = False,
):
    """Top-k comparative query through the Φp pruning operator.

    Returns a DataFrame with the canonical COMPARE output schema
    restricted to the top-k pairs (ordered best-first); with
    ``return_stats=True`` also returns a :class:`PruneStats`.
    """
    if spec.scorer.agg not in ("SUM", "AVG"):
        raise ValueError(
            f"Φp bounds require a SUM/AVG scorer; use the trendwise strategy "
            f"for {spec.scorer.agg}"
        )
    spark = df.sparkSession
    groups = groups if groups is not None else same_grouping_groups(spec.gms)
    # Block-organized aggregates (§4.2 sharing): one relation per grouping
    # column carrying every measure, persisted for the phases below.
    blocks = build_vector_blocks(df, spec, groups)
    segs = segmentations(blocks, n_segments)
    gm_index = {gm: gi for gi, gm in enumerate(spec.gms)}

    # ---- Summarize: one groupBy per block side ----------------------------
    summaries = _per_block_side(
        spark, spec, blocks,
        lambda b, rel, vary, _: summarize(rel, vary, blocks[b], segs[blocks[b].g]),
    )
    sides: list = [None] * len(spec.gms)  # gi -> ((tids1, aggs1), (tids2, aggs2))
    n_trends = n_floats = 0
    for blk, (s1, s2) in zip(blocks, summaries):
        seg = segs[blk.g]
        n = len(s2[0]) + (0 if blk.shared else len(s1[0]))
        n_trends += n * len(blk.value_cols)
        n_floats += 4 * seg.n_segments * n * len(blk.value_cols)
        for gm in blk.value_cols:
            sides[gm_index[gm]] = (s1, s2)

    # ---- Bound: every candidate pair at once, per (g, m) ------------------
    phi = _Phi(spec, k, ascending, tuples_per_update, *_bound_all(spec, sides))
    phi.stats.total_trends, phi.stats.summary_floats = n_trends, n_floats

    # ---- Prune: against the k-th best pessimistic bound -------------------
    phi.prune_initial()

    # ---- fetch vectors of surviving trends only, one action per block side
    alive = ~phi.pruned
    survivors = []  # per block: trend rows to fetch of (T1, T2)
    for blk in blocks:
        in_blk = alive & np.isin(phi.gm, [gm_index[gm] for gm in blk.value_cols])
        rows1, rows2 = np.unique(phi.ia[in_blk]), np.unique(phi.ib[in_blk])
        survivors.append((rows1, np.union1d(rows1, rows2) if blk.shared else rows2))
    fetched = _per_block_side(
        spark, spec, blocks,
        lambda b, rel, vary, side: _fetch_values(
            rel, vary, blocks[b], segs[blocks[b].g], summaries[b][side][0], survivors[b][side]
        ),
    )
    vecs: list = [None] * len(spec.gms)
    for blk, ((_, aggs1), (_, aggs2)), (v1, v2) in zip(blocks, summaries, fetched):
        seg = segs[blk.g]
        for gm in blk.value_cols:
            gi = gm_index[gm]
            vecs[gi] = (v1[gm], aggs1[gm].member, v2[gm], aggs2[gm].member, seg.edges)
            on = alive & (phi.gm == gi)
            phi.stats.surviving_trends += len(np.unique(phi.ia[on])) + len(np.unique(phi.ib[on]))

    results = phi.topk(vecs, early_termination)

    # ---- build the output relation ----------------------------------------
    rows = []
    for i in results:
        gi = int(phi.gm[i])
        (tids1, _), (tids2, _) = sides[gi]
        score = score_from_sum(spec.scorer, phi.lb[i].sum(), phi.cnt[i])
        rows.append((tids1[phi.ia[i]], tids2[phi.ib[i]], gi, score))
    out = local_frame(spark, output_rows(spec, rows), output_schema(df, spec))
    return (out, phi.stats) if return_stats else out

