"""Client-side comparison logic shared by the UDF and middleware baselines.

The paper's UDF and middleware both *incorporate* the trendwise
comparison and summary-aggregate pruning optimizations (§8, setup) —
what they lack is in-engine execution (parallel operators, no data
movement). This module is that client logic: pure pandas/numpy,
single-threaded.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.pairs import candidate_pairs
from repro.core.scorer import score_from_sum, score_np
from repro.core.spec import CompareSpec, side_prefix


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


def _aligned(t1, t2):
    k1, v1 = t1
    k2, v2 = t2
    _, i1, i2 = np.intersect1d(k1, k2, assume_unique=True, return_indices=True)
    return v1[i1], v2[i2]


def score_all_pairs(spec: CompareSpec, trends1: dict, trends2: dict, gm_idx: int):
    """(tid1, tid2, gm_idx, score) for every comparable pair with matches."""
    rows = []
    t1_ids, t2_ids = list(trends1), list(trends2)
    for i, j in zip(*candidate_pairs(spec, t1_ids, t2_ids)):
        a, b = t1_ids[i], t2_ids[j]
        v1, v2 = _aligned(trends1[a], trends2[b])
        if v1.size == 0:
            continue
        rows.append((a, b, gm_idx, score_np(spec.scorer, v1, v2)))
    return rows


def topk_pairs(
    spec: CompareSpec,
    per_gm: list[tuple[dict, dict]],
    k: int,
    ascending: bool,
    prune: bool = True,
):
    """Client-side top-k with single-summary bound pruning.

    Bounds mirror Φp's with one segment per trend (COUNT/SUM/MIN/MAX):
    enough to skip clearly-out pairs without the full operator.
    """
    sign = 1.0 if not ascending else -1.0
    cands = []
    for gi, (t1s, t2s) in enumerate(per_gm):
        sums1 = {t: _summary(v) for t, v in t1s.items()}
        sums2 = sums1 if t1s is t2s else {t: _summary(v) for t, v in t2s.items()}
        t1_ids, t2_ids = list(t1s), list(t2s)
        for i, j in zip(*candidate_pairs(spec, t1_ids, t2_ids)):
            a, b = t1_ids[i], t2_ids[j]
            lo, hi, cnt = _pair_bounds(spec, sums1[a], sums2[b], t1s[a], t2s[b])
            if cnt == 0:
                continue
            cands.append([gi, a, b, lo, hi, cnt])
    if not cands:
        return []
    if prune and spec.scorer.agg in ("SUM", "AVG") and len(cands) > k:
        pess = sorted((sign * (c[3] if sign > 0 else c[4]) for c in cands), reverse=True)
        thr = pess[k - 1]
        slack = 1e-9 * max(1.0, abs(thr))  # tight p=1 bounds: see pruning._prune_slack
        cands = [c for c in cands if sign * (c[4] if sign > 0 else c[3]) >= thr - slack]
    scored = []
    for gi, a, b, _, _, _ in cands:
        t1s, t2s = per_gm[gi]
        v1, v2 = _aligned(t1s[a], t2s[b])
        scored.append((a, b, gi, score_np(spec.scorer, v1, v2)))
    scored.sort(key=lambda r: (r[3] if ascending else -r[3], r[0], r[1], r[2]))
    return scored[:k]


def _summary(t):
    k, v = t
    return (len(v), float(v.sum()), float(v.min()), float(v.max()), k)


def _pair_bounds(spec: CompareSpec, s1, s2, t1, t2):
    n1, sum1, min1, max1, k1 = s1
    n2, sum2, min2, max2, k2 = s2
    cnt = len(np.intersect1d(k1, k2, assume_unique=True))
    if cnt == 0:
        return 0.0, 0.0, 0
    p = spec.scorer.p
    gap = max(abs(max1 - min2), abs(max2 - min1))
    ub = cnt * gap**p
    lb = cnt * abs(sum1 / n1 - sum2 / n2) ** p if cnt == n1 == n2 else 0.0
    return (
        score_from_sum(spec.scorer, lb, cnt),
        score_from_sum(spec.scorer, ub, cnt),
        cnt,
    )


def rows_to_frame(spec: CompareSpec, rows, out_cols: list[str]) -> pd.DataFrame:
    """(tid1, tid2, gm_idx, score) rows → the canonical output frame."""
    recs = []
    for a, b, gi, score in rows:
        g, m = spec.gms[gi]
        rec = {}
        for c, v in zip(spec.t1.vary_cols, a):
            rec[side_prefix(1) + c] = v
        for t in spec.t1.fixed:
            rec[side_prefix(1) + t.col] = t.value
        for c, v in zip(spec.t2.vary_cols, b):
            rec[side_prefix(2) + c] = v
        for t in spec.t2.fixed:
            rec[side_prefix(2) + t.col] = t.value
        rec["grouping"] = g
        rec["measure"] = m.name
        rec["score"] = score
        recs.append(rec)
    return pd.DataFrame(recs, columns=out_cols)
