"""Φp's Bound kernel on small random trends, without Spark.

``pruning.bound_pairs`` must bracket the exact score of every pair
(LB ≤ score ≤ UB) and count matched tuples exactly, for ragged domains,
constant trends, p ∈ {1, 2} and the SUM / AVG scorers.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pruning import SegAgg, bound_pairs
from repro.core.spec import Scorer

from .pair_reference import score_np


def _segagg(member, vals, edges):
    """Reference summaries of dense (trends × domain) trends."""
    starts = edges[:-1]
    return SegAgg(
        cnt=np.add.reduceat(member.astype(np.int64), starts, axis=1),
        sum=np.add.reduceat(np.where(member, vals, 0.0), starts, axis=1),
        min=np.minimum.reduceat(np.where(member, vals, np.inf), starts, axis=1),
        max=np.maximum.reduceat(np.where(member, vals, -np.inf), starts, axis=1),
        member=member,
        edges=edges,
    )


@st.composite
def _trendsets(draw):
    n1, n2 = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    nd = draw(st.integers(1, 24))
    cuts = draw(st.lists(st.integers(1, max(1, nd - 1)), max_size=5, unique=True))
    edges = np.array(sorted({0, nd, *(c for c in cuts if c < nd)}), dtype=np.int64)
    seed = draw(st.integers(0, 2**32 - 1))
    g = np.random.default_rng(seed)
    ragged = draw(st.booleans())
    constant = draw(st.booleans())

    def side(n):
        member = g.random((n, nd)) < 0.7 if ragged else np.ones((n, nd), dtype=bool)
        vals = np.full((n, nd), 3.25) if constant else np.round(g.normal(0, 20, (n, nd)), 2)
        return member, vals

    return side(n1), side(n2), edges, constant


@settings(max_examples=300, deadline=None)
@given(_trendsets(), st.sampled_from([1, 2]), st.sampled_from(["SUM", "AVG"]))
def test_bounds_bracket_exact_scores(data, p, agg):
    (mem1, val1), (mem2, val2), edges, constant = data
    s1, s2 = _segagg(mem1, val1, edges), _segagg(mem2, val2, edges)
    ia, ib = (a.ravel() for a in np.indices((len(mem1), len(mem2))))
    matched, lb, ub = bound_pairs(s1, s2, ia, ib, p)
    scorer = Scorer(agg, p)
    for j, (a, b) in enumerate(zip(ia, ib)):
        k1, k2 = np.flatnonzero(mem1[a]), np.flatnonzero(mem2[b])
        common = np.intersect1d(k1, k2)
        assert matched[j].sum() == len(common)
        for s in range(len(edges) - 1):
            in_seg = (common >= edges[s]) & (common < edges[s + 1])
            assert matched[j, s] == in_seg.sum()
        if not len(common):
            assert lb[j].sum() == ub[j].sum() == 0.0
            continue
        cnt = len(common)
        score = score_np(scorer, val1[a, common], val2[b, common])
        lo, hi = lb[j].sum(), ub[j].sum()
        if agg == "AVG":
            lo, hi = lo / cnt, hi / cnt
        tol = 1e-9 * max(1.0, abs(score))
        assert lo <= score + tol
        assert hi >= score - tol
        if constant:
            assert lo == hi == 0.0
