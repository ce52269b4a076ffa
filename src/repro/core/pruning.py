"""The Φp pruning physical operator for DIFF-based comparison (paper §5).

Fetch → Summarize → Bound → Prune → refine in rounds → Select:

1. **Fetch** — each block side is read once, through Arrow, into dense
   (trends × grouping values) key masks and value arrays
   (:func:`repro.core.exact.block_arrays`, the exact top-k's fetch): one
   Spark action per block side, none after it.
2. **Summarize** — each trend is summarized by *segment aggregates*
   (COUNT, SUM, MIN, MAX per segment) plus its key bitmap (the paper's
   bitmap, used to COUNT matching tuples between trends). Segment count
   follows Sturges, ``floor(1 + log2(n))``, over the block's sorted
   grouping values (identical to the paper's index segments when trend
   domains coincide, and sound when they do not — see DESIGN.md §4).
   The aggregates are ``reduceat`` cuts of the dense arrays at the
   segment edges (:func:`seg_agg`, :class:`SegAgg`): O(p · log(n/p))
   floats.
3. **Bound** — for every candidate pair at once, as (pairs × segments)
   broadcasts (:func:`bound_pairs`): the matched COUNT per segment is
   the AND+sum of the two bitmaps; the lower bound of a fully-matched
   segment is ``cnt · DIFF(avg1, avg2, p)`` (Theorem 1, convexity); the
   upper bound of any matched segment is
   ``cnt · max(|max1−min2|, |max2−min1|)^p`` (non-negativity +
   monotonicity). Sums over segments bound ``SUM OVER DIFF(p)``; AVG
   scores divide by the exact matched count. A pair with a matched NaN
   measure has no score and is dropped, as on the exact path.
4. **Prune** — the threshold T is the k-th best pessimistic bound over
   all pairs (one ``np.partition``); any pair whose optimistic bound
   cannot reach T is pruned.
5. **Refine** — in rounds, the batched form of Algorithm 2 (the
   Threshold Algorithm of Fagin, Lotem and Naor, PODS 2001, run in
   batches): each round replaces the bounds of the next matched
   segment(s) of every live pair with exact partial scores, computed by
   the exact path's kernel (:func:`~repro.core.scorer.score_pairs`, SUM
   OVER DIFF(p) over the segment's columns) per (g, m) and segment, then
   recomputes T and prunes again. Rounds stop when no live pair has an
   unrefined segment, so there are at most #segments rounds.
6. **Select** — the unpruned pairs, now exact, are ranked by the exact
   top-k's selection (:func:`repro.core.exact.select_rows`), ties by
   output identity. A pair is pruned only when its optimistic bound lies
   below T − slack, so every pair tied with the k-th score reaches it.

The TState of a pair is a row index into columns (:class:`_Phi`):
per-segment bounds and matched counts, pruned flag, optimistic /
pessimistic bound, rows in block order.

Everything after the fetch runs on the driver over numpy arrays
(:func:`phi_topk`), so the Spark jobs of a call are exactly those of
:func:`repro.core.exact.compare_topk_exact` for the same groups; the
top-k result is a local relation, so collecting it runs no Spark job.
Pruned trends are still fetched: at the sizes measured, skipping them
saved less than a second Spark round costs (DESIGN.md §2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame

from .aggregates import MergeGroup, persisted
from .exact import block_arrays, select_rows
from .pairs import candidate_pairs, local_frame, output_rows, output_schema
from .scorer import diff_np, score_from_sum, score_pairs
from .spec import CompareSpec, Scorer


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
class SegAgg:
    """SegAgg of every trend of one side for one (g, m), as dense arrays.

    Rows are the side's trends, in the order of its trend-id list.
    """

    cnt: np.ndarray  # (trends, segments) int64: tuples per segment
    sum: np.ndarray  # (trends, segments) float64
    min: np.ndarray  # (trends, segments) float64, +inf where empty
    max: np.ndarray  # (trends, segments) float64, -inf where empty
    member: np.ndarray  # (trends, domain) bool: the key bitmap
    edges: np.ndarray  # segment b holds keys edges[b]:edges[b+1]


def segment_edges(nd: int, n_segments: int | None) -> np.ndarray:
    """Edges of the contiguous segments of a sorted domain of ``nd`` keys:
    segment b holds keys ``edges[b]:edges[b+1]``. Sturges' count unless
    ``n_segments`` is given, at most one segment per key; with ``nd > 0``
    the edges rise strictly, so no segment is empty."""
    l = n_segments if n_segments is not None else sturges(nd)
    l = max(1, min(l, nd)) if nd else 1
    return (np.arange(l + 1) * nd + l - 1) // l  # edges[b] = ceil(b · nd / l)


def seg_agg(mask: np.ndarray, vals: np.ndarray, edges: np.ndarray) -> SegAgg:
    """SegAgg of one side's trends for one (g, m), from its (trends × domain)
    key mask and values (:func:`repro.core.exact.block_arrays`).

    COUNT is of keys; SUM/MIN/MAX skip NaN measures, as SQL's skip NULLs.
    """
    shape = (mask.shape[0], len(edges) - 1)
    if not mask.shape[1]:  # reduceat cannot cut a zero-width axis
        return SegAgg(np.zeros(shape, dtype=np.int64), np.zeros(shape), np.full(shape, np.inf),
                      np.full(shape, -np.inf), mask, edges)
    ok = mask & ~np.isnan(vals)
    start = edges[:-1]
    return SegAgg(
        np.add.reduceat(mask, start, axis=1, dtype=np.int64),
        np.add.reduceat(np.where(ok, vals, 0.0), start, axis=1),
        np.minimum.reduceat(np.where(ok, vals, np.inf), start, axis=1),
        np.maximum.reduceat(np.where(ok, vals, -np.inf), start, axis=1),
        mask, edges,
    )


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

    The TState of pair ``i`` is row ``i`` of the columns below, in block
    order; :func:`phi_topk` ranks the unpruned rows through the shared
    selection :func:`repro.core.exact.select_rows`.
    """

    def __init__(self, spec: CompareSpec, k: int, ascending: bool, tuples_per_update: int | None,
                 gm, ia, ib, matched, lb, ub):
        self.spec, self.k, self.asc = spec, k, ascending
        self.gm, self.ia, self.ib = gm, ia, ib
        self.matched, self.lb, self.ub = matched, lb, ub  # (pairs × segments)
        self.cnt = matched.sum(axis=1)
        self.pruned = np.zeros(len(gm), dtype=bool)
        # matched tuples per pair and round: the Fig. 12 knob, else one average segment
        self.budget = (
            np.full(len(gm), tuples_per_update) if tuples_per_update
            else np.maximum(1, self.cnt // np.maximum(1, (matched > 0).sum(axis=1)))
        )
        self.opt, self.pess = np.empty(len(gm)), np.empty(len(gm))
        self._rebound(np.arange(len(gm)))
        self.stats = PruneStats(n_pairs=len(gm))

    def _rebound(self, rows: np.ndarray) -> None:
        """Optimistic / pessimistic bounds of ``rows`` under the requested direction."""
        lo = score_from_sum(self.spec.scorer, self.lb[rows].sum(axis=1), self.cnt[rows])
        hi = score_from_sum(self.spec.scorer, self.ub[rows].sum(axis=1), self.cnt[rows])
        self.opt[rows] = -lo if self.asc else hi
        self.pess[rows] = -hi if self.asc else lo

    def _prune(self, rows: np.ndarray) -> np.ndarray:
        """Mark the pairs of ``rows`` that cannot reach T pruned; return them.

        T is the k-th best pessimistic bound over every pair (pruned pairs'
        bounds lie below it); with at most k pairs nothing is pruned.
        """
        n = len(self.pess)
        if n <= self.k:
            return rows[:0]
        thr = float(np.partition(self.pess, n - self.k)[n - self.k])
        cut = rows[self.opt[rows] < thr - prune_slack(thr)]
        self.pruned[cut] = True
        return cut

    def prune_initial(self) -> None:
        self.stats.pruned_initial = len(self._prune(np.arange(len(self.gm))))

    def _refine(self, rows: np.ndarray, seg: np.ndarray, vecs) -> None:
        """Replace segment ``seg[j]``'s bounds of pair ``rows[j]`` with its exact
        partial score: SUM OVER DIFF(p) by the scoring kernel, over the segment's
        columns, once per group of pairs sharing a (g, m) and segment."""
        n_seg, partial_sum = self.matched.shape[1], Scorer("SUM", self.spec.scorer.p)
        key = self.gm[rows] * n_seg + seg
        order = np.argsort(key, kind="stable")
        rows, key = rows[order], key[order]
        for part in np.split(np.arange(len(rows)), np.flatnonzero(np.diff(key)) + 1):
            gi, s = divmod(int(key[part[0]]), n_seg)
            v1, m1, v2, m2, e = vecs[gi]
            cols = slice(e[s], e[s + 1])
            r = rows[part]
            exact = score_pairs(partial_sum, m1[:, cols], m2[:, cols],
                                [(v1[:, cols], v2[:, cols])], self.ia[r], self.ib[r])
            self.lb[r, s] = self.ub[r, s] = exact[:, 0]

    def refine_rounds(self, vecs, early_termination: bool) -> None:
        """Refine every live pair to its exact score, in rounds.

        A round gives every live pair with an unrefined matched segment one
        budget of matched tuples (at least one segment, in segment order);
        under early termination it then prunes against the new T.
        """
        pending = (self.matched > 0) & ~self.pruned[:, None]  # matched segments not yet exact
        live = np.flatnonzero(pending.any(axis=1))
        while len(live):
            done = np.zeros(len(self.gm), dtype=np.int64)  # matched tuples refined this round
            go = live
            while len(go):
                seg = pending[go].argmax(axis=1)  # next matched segment
                self._refine(go, seg, vecs)
                pending[go, seg] = False
                done[go] += self.matched[go, seg]
                self.stats.segments_refined += len(go)
                go = go[(done[go] < self.budget[go]) & pending[go].any(axis=1)]
            self.stats.refine_steps += len(live)
            self.stats.tuples_compared += int(done.sum())
            self._rebound(live)
            if early_termination:
                cut = self._prune(live)
                pending[cut] = False
                self.stats.pruned_refining += len(cut)
            live = live[pending[live].any(axis=1)]


def phi_topk(
    spec: CompareSpec, k: int, ascending: bool, arrays: list, *,
    n_segments: int | None, tuples_per_update: int | None, early_termination: bool,
) -> tuple[list[tuple], PruneStats]:
    """Φp over the dense arrays of :func:`~repro.core.exact.block_arrays`.

    Walks the blocks as :func:`~repro.core.exact.topk_rows` does and
    returns the top-k rows of :func:`~repro.core.exact.select_rows` and
    the call's :class:`PruneStats`. Without
    early termination every survivor of the initial prune is refined to
    its exact score (the ``pruned`` ablation level).
    """
    parts, bounds = [], []  # per (g, m), in block order
    vecs: list = [None] * len(spec.gms)  # gi -> (v1, m1, v2, m2, edges)
    n_trends = n_floats = 0
    for gms, (tids1, m1, vals1), (tids2, m2, vals2) in arrays:
        shared = tids1 is tids2
        edges = segment_edges(m2.shape[1], n_segments)
        n = (len(tids2) + (0 if shared else len(tids1))) * len(gms)
        n_trends += n
        n_floats += 4 * (len(edges) - 1) * n
        ia, ib = candidate_pairs(spec, tids1, tids2)
        for gm, v1, v2 in zip(gms, vals1, vals2):
            a2 = seg_agg(m2, v2, edges)
            a1 = a2 if shared else seg_agg(m1, v1, edges)
            # ---- Bound: every candidate pair of the (g, m) at once ----------
            matched, lb, ub = bound_pairs(a1, a2, ia, ib, spec.scorer.p)
            keep = matched.sum(axis=1) > 0  # no matching grouping values: no score (Def. 7)
            nan1, nan2 = m1 & np.isnan(v1), m2 & np.isnan(v2)
            if nan1.any() or nan2.any():  # a matched NaN measure gives a pair no score
                hits = np.hstack([nan1, m1]).astype(np.float64) @ np.hstack([m2, nan2]).T
                keep &= hits[ia, ib] == 0
            gi = spec.gms.index(gm)
            parts.append((gi, tids1, ia[keep], tids2, ib[keep]))
            bounds.append((matched[keep], lb[keep], ub[keep]))
            vecs[gi] = (v1, m1, v2, m2, edges)

    # one row per pair in block order; groupings with fewer segments leave theirs empty
    n_seg = max(m.shape[1] for m, _, _ in bounds)
    starts = np.cumsum([0] + [len(m) for m, _, _ in bounds])
    matched = np.zeros((starts[-1], n_seg), dtype=np.int64)
    lb, ub = np.zeros(matched.shape), np.zeros(matched.shape)
    for lo, hi, cols in zip(starts[:-1], starts[1:], bounds):
        for out, a in zip((matched, lb, ub), cols):
            out[lo:hi, :a.shape[1]] = a
    gm = np.concatenate([np.full(len(ia), gi) for gi, _, ia, _, _ in parts])
    ia = np.concatenate([ia for _, _, ia, _, _ in parts])
    ib = np.concatenate([ib for _, _, _, _, ib in parts])
    phi = _Phi(spec, k, ascending, tuples_per_update, gm, ia, ib, matched, lb, ub)
    phi.stats.total_trends, phi.stats.summary_floats = n_trends, n_floats
    if k <= 0:
        return [], phi.stats

    # ---- Prune: against the k-th best pessimistic bound -------------------
    phi.prune_initial()
    alive = ~phi.pruned
    for gi in range(len(spec.gms)):
        on = alive & (phi.gm == gi)
        phi.stats.surviving_trends += len(np.unique(phi.ia[on])) + len(np.unique(phi.ib[on]))

    # ---- Refine in rounds, then select the top k of the exact survivors ----
    phi.refine_rounds(vecs, early_termination)
    alive = ~phi.pruned
    ends = np.cumsum([len(ia) for _, _, ia, _, _ in parts])[:-1]
    parts = [
        (gi, tids1, ia[on], tids2, ib[on])
        for (gi, tids1, ia, tids2, ib), on in zip(parts, np.split(alive, ends))
    ]
    score = score_from_sum(spec.scorer, phi.lb[alive].sum(axis=1), phi.cnt[alive])
    return select_rows(spec, parts, score, k, ascending), phi.stats


@persisted()
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
    ``return_stats=True`` also returns a :class:`PruneStats`. Runs the
    Spark jobs of :func:`~repro.core.exact.compare_topk_exact`: one Arrow
    fetch per block side.
    """
    if spec.scorer.agg not in ("SUM", "AVG"):
        raise ValueError(
            f"Φp bounds require a SUM/AVG scorer; use the trendwise strategy "
            f"for {spec.scorer.agg}"
        )
    rows, stats = phi_topk(
        spec, k, ascending, block_arrays(df, spec, groups), n_segments=n_segments,
        tuples_per_update=tuples_per_update, early_termination=early_termination,
    )
    out = local_frame(df.sparkSession, output_rows(spec, rows), output_schema(df, spec))
    return (out, stats) if return_stats else out
