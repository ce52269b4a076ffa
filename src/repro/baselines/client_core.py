"""Client-side comparison logic shared by the UDF and middleware baselines.

The paper's UDF and middleware both *incorporate* the trendwise
comparison and summary-aggregate pruning optimizations (§8, setup) —
what they lack is in-engine execution (parallel operators, no data
movement). This module is that client logic: pure pandas/numpy,
single-threaded, over the engine's scoring and bounds kernels.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.pairs import candidate_pairs, output_rows
from repro.core.pruning import SegAgg, bound_pairs, prune_slack
from repro.core.scorer import align, score_from_sum, score_np, score_pair
from repro.core.spec import CompareSpec, output_cols


def group_trends(pdf: pd.DataFrame, vary_cols, gcol: str, vcol: str):
    """Partition an aggregated frame into per-trend (keys, vals) vectors."""
    out = {}
    if not vary_cols:
        s = pdf.sort_values(gcol)
        out[()] = (s[gcol].to_numpy(), s[vcol].to_numpy(dtype=np.float64))
        return out
    for tid, grp in pdf.groupby(list(vary_cols), sort=False):
        tid = tid if isinstance(tid, tuple) else (tid,)
        s = grp.sort_values(gcol)
        out[tid] = (s[gcol].to_numpy(), s[vcol].to_numpy(dtype=np.float64))
    return out


def score_all_pairs(spec: CompareSpec, trends1: dict, trends2: dict, gm_idx: int):
    """(tid1, tid2, gm_idx, score) for every comparable pair with matches."""
    rows = []
    t1_ids, t2_ids = list(trends1), list(trends2)
    for i, j in zip(*candidate_pairs(spec, t1_ids, t2_ids)):
        a, b = t1_ids[i], t2_ids[j]
        v1, v2 = align(*trends1[a], *trends2[b])
        if v1.size == 0:
            continue
        rows.append((a, b, gm_idx, score_np(spec.scorer, v1, v2)))
    return rows


def _one_segment(trends: dict, domain: np.ndarray) -> SegAgg:
    """Φp's SegAgg of a side's trends with one segment over ``domain``."""
    keys = [k for k, _ in trends.values()]
    vals = [v for _, v in trends.values()]
    member = np.zeros((len(keys), len(domain)), dtype=bool)
    rows = np.repeat(np.arange(len(keys)), [len(k) for k in keys])
    member[rows, np.searchsorted(domain, np.concatenate(keys))] = True
    cnt = np.array([len(v) for v in vals], dtype=np.int64)[:, None]
    total, vmin, vmax = (
        np.array([f(v) for v in vals], dtype=np.float64)[:, None] for f in (np.sum, np.min, np.max)
    )
    return SegAgg(cnt, total, vmin, vmax, member, np.array([0, len(domain)]))


def topk_pairs(spec: CompareSpec, per_gm: list[tuple[dict, dict]], k: int, ascending: bool):
    """Client-side top-k with single-summary bound pruning.

    Bounds come from Φp's kernel (:func:`repro.core.pruning.bound_pairs`)
    with one segment per trend: enough to skip clearly-out pairs without
    the full operator. They exist for SUM/AVG scorers only; under MIN/MAX
    every pair with matches is scored.
    """
    bounded = spec.scorer.agg in ("SUM", "AVG")
    rows, lo, hi = [], [], []
    for gi, (t1s, t2s) in enumerate(per_gm):
        t1_ids, t2_ids = list(t1s), list(t2s)
        ia, ib = candidate_pairs(spec, t1_ids, t2_ids)
        if not len(ia):
            continue
        domain = np.unique(np.concatenate([kv[0] for kv in (*t1s.values(), *t2s.values())]))
        s1, s2 = _one_segment(t1s, domain), _one_segment(t2s, domain)
        matched, lb, ub = bound_pairs(s1, s2, ia, ib, spec.scorer.p)
        cnt = matched[:, 0]
        on = cnt > 0  # no matching grouping values: no score (Def. 7)
        rows += [(t1_ids[i], t2_ids[j], gi) for i, j in zip(ia[on], ib[on])]
        if bounded:
            lo.append(score_from_sum(spec.scorer, lb[on, 0], cnt[on]))
            hi.append(score_from_sum(spec.scorer, ub[on, 0], cnt[on]))
    if bounded and len(rows) > k:
        lo, hi = np.concatenate(lo), np.concatenate(hi)
        opt, pess = (-lo, -hi) if ascending else (hi, lo)
        thr = np.partition(pess, -k)[-k]  # the k-th best pessimistic bound
        rows = [r for r, keep in zip(rows, opt >= thr - prune_slack(thr)) if keep]
    scored = [
        (a, b, gi, score_pair(spec.scorer, *per_gm[gi][0][a], *per_gm[gi][1][b]))
        for a, b, gi in rows
    ]
    scored.sort(key=lambda r: (r[3] if ascending else -r[3], r[0], r[1], r[2]))
    return scored[:k]


def result_frame(
    spec: CompareSpec, per_gm: list[tuple[dict, dict]], k: int | None, ascending: bool
) -> pd.DataFrame:
    """The client's COMPARE output: every pair's score, or the top-k (``k``)."""
    if k is None:
        rows = [r for gi, (t1, t2) in enumerate(per_gm) for r in score_all_pairs(spec, t1, t2, gi)]
    else:
        rows = topk_pairs(spec, per_gm, k, ascending)
    return pd.DataFrame(output_rows(spec, rows), columns=output_cols(spec))
