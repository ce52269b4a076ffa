"""Property test of the Φp driver core (``pruning.phi_topk``) over plain
numpy arrays, no Spark: whatever the masks, ties, segment count, update
size or early termination, its top-k equals the top-k of the exact kernel
``scorer.score_pairs`` in (score, output identity) order.

Values are small integers (or NaN), so every SUM of DIFFs is exact in
float64 on both sides and ties compare equal; AVG divides the same exact
sum by the same count.
"""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pairs import candidate_pairs
from repro.core.pruning import phi_topk
from repro.core.scorer import score_pairs
from repro.core.spec import CompareSpec, ConstraintTerm, Measure, Scorer, TrendsetSpec

WEEK = (("week", Measure("AVG", "x")), ("week", Measure("SUM", "y")))
DAY = (("day", Measure("AVG", "z")),)


@st.composite
def side(draw, n_gms, nds, allow_nan):
    """Trend ids plus, per block, a (trends × domain) key mask and one value
    array per (g, m). Some trends are constant, some copy another (ties)."""
    cells = st.sampled_from([*range(-3, 4), math.nan]) if allow_nan else st.integers(-3, 3)
    trends = []  # per trend, per block: (mask row, value rows)
    for _ in range(draw(st.integers(0, 6))):
        per_block = []
        for n_gm, nd in zip(n_gms, nds):
            mask = draw(st.lists(st.booleans(), min_size=nd, max_size=nd))
            if draw(st.booleans()):  # constant
                vals = [[float(draw(cells))] * nd for _ in range(n_gm)]
            else:
                vals = [[float(draw(cells)) for _ in range(nd)] for _ in range(n_gm)]
            per_block.append((mask, vals))
        trends.append(per_block)
    if trends:
        trends += [trends[c] for c in draw(st.lists(st.integers(0, len(trends) - 1), max_size=3))]
    tids = [(i,) for i in range(len(trends))]
    out = []
    for b, (n_gm, nd) in enumerate(zip(n_gms, nds)):
        mask = np.array([t[b][0] for t in trends], dtype=bool).reshape(len(trends), nd)
        vals = [np.array([t[b][1][j] for t in trends]).reshape(len(trends), nd)
                for j in range(n_gm)]
        out.append((tids, mask, vals))
    return out


@st.composite
def cases(draw):
    """One block over ``week`` with one or two (g, m), maybe a second over
    ``day``; both sides one trendset (pairs a < b) or two (every pair)."""
    n_gms = [draw(st.integers(1, 2))] + ([1] if draw(st.booleans()) else [])
    nds = [draw(st.integers(0, 10)) for _ in n_gms]
    allow_nan = draw(st.booleans())
    s1 = draw(side(n_gms, nds, allow_nan))
    if draw(st.booleans()):
        s2, t1 = s1, TrendsetSpec((ConstraintTerm("c"),))
        t2 = t1
    else:
        s2 = draw(side(n_gms, nds, allow_nan))
        t1, t2 = TrendsetSpec((ConstraintTerm("c"),)), TrendsetSpec((ConstraintTerm("d"),))
    gms = [WEEK[: n_gms[0]], DAY][: len(n_gms)]
    scorer = Scorer(draw(st.sampled_from(["SUM", "AVG"])), draw(st.sampled_from([1, 2])))
    spec = CompareSpec(t1, t2, tuple(gm for g in gms for gm in g), scorer)
    arrays = [(list(g), a, b) for g, a, b in zip(gms, s1, s2)]
    n_pairs = sum(len(candidate_pairs(spec, a[0], b[0])[0]) * len(g) for g, a, b in arrays)
    return dict(
        spec=spec, arrays=arrays, k=draw(st.integers(0, n_pairs + 2)),
        ascending=draw(st.booleans()),
        n_segments=draw(st.sampled_from([None, 1, 2, max(nds) + 3])),
        tuples_per_update=draw(st.sampled_from([None, 1, 1000])),
        early_termination=draw(st.booleans()),
    )


def reference_topk(spec, k, ascending, arrays):
    """``(tid1, tid2, gm_idx, score)`` rows of the exact top-k, by (score,
    l_ trend, r_ trend, grouping, measure)."""
    ranked = []
    for gms, (tids1, m1, v1), (tids2, m2, v2) in arrays:
        ia, ib = candidate_pairs(spec, tids1, tids2)
        s = score_pairs(spec.scorer, m1, m2, list(zip(v1, v2)), ia, ib)
        for j, gm in enumerate(gms):
            gi = spec.gms.index(gm)
            for a, b, x in zip(ia, ib, s[:, j]):
                if not np.isnan(x):
                    ident = (tids1[a], tids2[b], gm[0], gm[1].name)
                    ranked.append(((x if ascending else -x, *ident), (tids1[a], tids2[b], gi, x)))
    return [row for _, row in sorted(ranked, key=lambda r: r[0])][:k]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_phi_topk_equals_exact_topk(case):
    rows, stats = phi_topk(
        case["spec"], case["k"], case["ascending"], case["arrays"],
        n_segments=case["n_segments"], tuples_per_update=case["tuples_per_update"],
        early_termination=case["early_termination"],
    )
    exp = reference_topk(case["spec"], case["k"], case["ascending"], case["arrays"])
    assert [r[:3] for r in rows] == [r[:3] for r in exp]
    assert [r[3] for r in rows] == pytest.approx([r[3] for r in exp], rel=1e-9)
    assert stats.pruned_initial + stats.pruned_refining <= stats.n_pairs
