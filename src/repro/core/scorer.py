"""DIFF(p) and aggregated distance functions (paper §2.2.3, Defs. 6–8).

Provides both Spark Column expressions (used by the ``merged`` join) and
numpy kernels: :func:`dense`, the one decode of a block side into (trends
× grouping values) arrays (called only by :mod:`repro.core.exact`), and
the masked scoring kernel :func:`score_pairs`, shared by the driver top-k,
Φp's refinement, the lazy trendwise tasks and the client baselines; Φp's
bounds read the same arrays.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import Column
from pyspark.sql import functions as F

from .spec import Scorer


def diff_col(m1: Column, m2: Column, p: int) -> Column:
    """DIFF(m1, m2, p) = |m1 - m2|^p as a Spark column (Def. 7)."""
    d = F.abs(m1 - m2)
    return d * d if p == 2 else F.pow(d, float(p))


def agg_col(scorer: Scorer, diff: Column) -> Column:
    """The scorer's aggregate over a DIFF column."""
    fn = {"SUM": F.sum, "AVG": F.avg, "MIN": F.min, "MAX": F.max}[scorer.agg]
    return fn(diff)


def diff_np(v1: np.ndarray, v2: np.ndarray, p: int) -> np.ndarray:
    d = np.abs(v1 - v2)
    return d * d if p == 2 else d**p


#: floats in one temporary of :func:`score_pairs`; a slice holds this many
#: (pair, grouping value) cells, so its working set stays a few hundred KB
SLICE_FLOATS = 1 << 14


def dense(n_rows: int, domain: pd.Index, row: np.ndarray, keys, values: list):
    """Long ``(row, key, value…)`` entries as a (rows × domain) key mask plus
    one value array per entry of ``values`` (NaN where a row lacks the key).

    A key outside ``domain`` (a NULL grouping value included) sets nothing,
    so it matches no key, as in the equi-join.
    """
    gi = domain.get_indexer(keys)
    hit = gi >= 0
    row, gi = row[hit], gi[hit]
    mask = np.zeros((n_rows, len(domain)), dtype=bool)
    mask[row, gi] = True
    out = []
    for v in values:
        a = np.full(mask.shape, np.nan)
        a[row, gi] = np.asarray(v, dtype=np.float64)[hit]
        out.append(a)
    return mask, out


def score_pairs(scorer: Scorer, m1: np.ndarray, m2: np.ndarray, values: list, ia, ib) -> np.ndarray:
    """Scores of the pairs ``(ia[j], ib[j])``, one column per ``(v1, v2)`` of ``values``.

    ``m1``/``m2`` are (trends × domain) key masks of the two sides and each
    ``v1``/``v2`` the matching value arrays (:func:`dense`). A pair's DIFF
    runs over the keys both trends hold (Def. 7); its score is NaN when no
    key matches or a matched value is NaN. Pairs are scored in slices of
    :data:`SLICE_FLOATS` cells, the key match of a slice shared by every
    measure.
    """
    out = np.full((len(ia), len(values)), np.nan)
    step = max(1, SLICE_FLOATS // max(1, m1.shape[1]))
    fill = {"SUM": 0.0, "AVG": 0.0, "MIN": np.inf, "MAX": -np.inf}[scorer.agg]
    fn = {"SUM": np.sum, "AVG": np.sum, "MIN": np.min, "MAX": np.max}[scorer.agg]
    for lo in range(0, len(ia), step):
        a, b = ia[lo:lo + step], ib[lo:lo + step]
        match = m1[a] & m2[b]
        cnt = match.sum(axis=1)
        has = cnt > 0
        for j, (v1, v2) in enumerate(values):
            s = fn(np.where(match, diff_np(v1[a], v2[b], scorer.p), fill), axis=1)
            if scorer.agg == "AVG":
                s = s / np.maximum(cnt, 1)
            out[lo:lo + step, j] = np.where(has, s, np.nan)
    return out


def score_from_sum(scorer: Scorer, total, count):
    """Convert SUM-of-DIFF value(s) and matched count(s) (> 0) to the scorer's scale.

    Used by Φp's bound kernel, whose bounds are derived on SUM; works on
    scalars and numpy arrays alike.
    """
    if scorer.agg == "SUM":
        return total
    if scorer.agg == "AVG":
        return total / count
    raise ValueError(f"pruning bounds only support SUM/AVG, got {scorer.agg}")
