"""Per-pair reference scoring for the kernel tests.

Aligns two trends on grouping value with ``np.intersect1d`` and scores
the aligned vectors one pair at a time: the direct reading of Defs. 7–8
that the masked kernels (``scorer.score_pairs``, Φp's bounds and the
lazy trendwise tasks) are checked against.
"""
import numpy as np

from repro.core.scorer import diff_np
from repro.core.spec import Scorer


def score_np(scorer: Scorer, v1: np.ndarray, v2: np.ndarray) -> float:
    """Score two *aligned* measure vectors. NaN when nothing matches."""
    if v1.size == 0:
        return float("nan")
    d = diff_np(v1, v2, scorer.p)
    fn = {"SUM": np.sum, "AVG": np.mean, "MIN": np.min, "MAX": np.max}[scorer.agg]
    return float(fn(d))


def align(k1: np.ndarray, v1: np.ndarray, k2: np.ndarray, v2: np.ndarray):
    """Inner-join two (sorted, unique) key/value vectors on key.

    Tuples with non-matching grouping values are ignored (Def. 7).
    Returns the aligned value vectors.
    """
    _, i1, i2 = np.intersect1d(k1, k2, assume_unique=True, return_indices=True)
    return v1[i1], v2[i2]


def score_pair(scorer: Scorer, k1, v1, k2, v2) -> float:
    """Align two trends on grouping value and score them."""
    a1, a2 = align(np.asarray(k1), np.asarray(v1, dtype=np.float64),
                   np.asarray(k2), np.asarray(v2, dtype=np.float64))
    return score_np(scorer, a1, a2)
