"""DIFF / aggregated-distance-function properties (§2.2.3, §5, Theorem 1)."""
import math

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import scorer
from repro.core.scorer import dense, diff_np, score_from_sum, score_pairs
from repro.core.spec import Scorer

from .pair_reference import align, score_np, score_pair

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
vec = st.lists(finite, min_size=1, max_size=40)


class TestDiffProperties:
    """The three §5 properties pruning relies on."""

    @given(m1=finite, m2=finite, p=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_non_negativity(self, m1, m2, p):
        assert diff_np(np.array([m1]), np.array([m2]), p)[0] >= 0

    @given(m=finite, d1=st.floats(0, 1e3), d2=st.floats(0, 1e3), p=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_monotonicity_in_abs_gap(self, m, d1, d2, p):
        lo, hi = sorted([d1, d2])
        assert diff_np(np.array([m]), np.array([m + lo]), p)[0] <= diff_np(
            np.array([m]), np.array([m + hi]), p
        )[0] + 1e-9

    @given(x=finite, y=finite, lam=st.floats(0, 1), p=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_convexity(self, x, y, lam, p):
        f = lambda v: abs(v) ** p
        mixed = f(lam * x + (1 - lam) * y)
        assert mixed <= lam * f(x) + (1 - lam) * f(y) + 1e-6 * max(1, abs(mixed))


class TestTheorem1:
    """AVG(DIFF(m1, m2, p)) >= DIFF(AVG(m1), AVG(m2), p) — the lower bound."""

    @given(v1=vec, v2=vec, p=st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_lower_bound_holds(self, v1, v2, p):
        n = min(len(v1), len(v2))
        a, b = np.asarray(v1[:n]), np.asarray(v2[:n])
        avg_diff = diff_np(a, b, p).mean()
        diff_avg = abs(a.mean() - b.mean()) ** p
        assert avg_diff >= diff_avg - 1e-6 * max(1.0, abs(avg_diff))

    @given(v1=vec, v2=vec, p=st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_upper_bound_holds(self, v1, v2, p):
        # max-gap bound used for the segment upper bound (§5.1)
        n = min(len(v1), len(v2))
        a, b = np.asarray(v1[:n]), np.asarray(v2[:n])
        gap = max(abs(a.max() - b.min()), abs(b.max() - a.min()))
        assert diff_np(a, b, p).sum() <= n * gap**p + 1e-6 * max(1.0, n * gap**p)


class TestScoreNp:
    """The per-pair reference the kernels are checked against."""

    @pytest.mark.parametrize(
        "agg,expected",
        [("SUM", 14.0), ("AVG", 14.0 / 3), ("MIN", 1.0), ("MAX", 9.0)],
    )
    def test_aggregates(self, agg, expected):
        v1 = np.array([1.0, 2.0, 3.0])
        v2 = np.array([0.0, 0.0, 0.0])
        assert score_np(Scorer(agg, 2), v1, v2) == pytest.approx(expected)

    def test_manhattan(self):
        v1, v2 = np.array([1.0, -2.0]), np.array([3.0, 2.0])
        assert score_np(Scorer("SUM", 1), v1, v2) == pytest.approx(6.0)

    def test_empty_is_nan(self):
        assert math.isnan(score_np(Scorer(), np.array([]), np.array([])))


class TestAlign:
    def test_inner_join_on_keys(self):
        v1, v2 = align(
            np.array([1, 2, 4]), np.array([10.0, 20.0, 40.0]),
            np.array([2, 3, 4]), np.array([-2.0, -3.0, -4.0]),
        )
        assert v1.tolist() == [20.0, 40.0] and v2.tolist() == [-2.0, -4.0]

    def test_disjoint_keys(self):
        v1, v2 = align(np.array([1]), np.array([1.0]), np.array([2]), np.array([2.0]))
        assert v1.size == 0 and v2.size == 0

    def test_string_keys(self):
        s = score_pair(
            Scorer("SUM", 2), np.array(["a", "b"]), [1.0, 2.0], np.array(["b", "c"]), [5.0, 6.0]
        )
        assert s == pytest.approx(9.0)


class TestScorePairs:
    """The masked (pairs × domain) kernel against align + score_np per pair."""

    @pytest.mark.parametrize("agg", ["SUM", "AVG", "MIN", "MAX"])
    @pytest.mark.parametrize("slice_floats", [1, 7, 1 << 14])
    def test_matches_per_pair_alignment(self, monkeypatch, agg, slice_floats):
        monkeypatch.setattr(scorer, "SLICE_FLOATS", slice_floats)
        rng = np.random.default_rng(3)
        n1, n2, nd = 5, 6, 9
        m1, m2 = rng.random((n1, nd)) < 0.6, rng.random((n2, nd)) < 0.6
        v1, v2 = rng.normal(size=(n1, nd)), rng.normal(size=(n2, nd))
        nan_key = np.flatnonzero(m1[1])[0]
        v1[1, nan_key] = np.nan  # a matched NaN measure poisons its pairs
        m2[:, nan_key] = True
        m2[0] = False  # a trend with no key
        ia, ib = np.nonzero(np.ones((n1, n2), dtype=bool))
        sc = Scorer(agg, 2)
        got = score_pairs(sc, m1, m2, [(v1, v2), (2 * v1, v2)], ia, ib)
        for j, (a, b) in enumerate(zip(ia, ib)):
            for col, w1 in enumerate((v1, 2 * v1)):
                keys = np.arange(nd)
                exp = score_pair(sc, keys[m1[a]], w1[a][m1[a]], keys[m2[b]], v2[b][m2[b]])
                if math.isnan(exp):
                    assert math.isnan(got[j, col])
                elif agg in ("MIN", "MAX"):
                    assert got[j, col] == exp
                else:
                    assert got[j, col] == pytest.approx(exp, rel=1e-12)
        assert np.isnan(got[ib == 0]).all() and np.isnan(got[ia == 1]).all()

    def test_dense_drops_keys_outside_the_domain(self):
        domain = pd.Index([1, 2, 3])
        row = np.array([0, 0, 1, 1])
        keys = pd.Series([1, None, 3, 4], dtype="Int64")
        mask, (vals,) = dense(2, domain, row, keys, [np.array([1.0, 2.0, 3.0, 4.0])])
        assert mask.tolist() == [[True, False, False], [False, False, True]]
        assert vals[0, 0] == 1.0 and vals[1, 2] == 3.0 and np.isnan(vals[0, 1])


class TestScoreFromSum:
    def test_sum_identity(self):
        assert score_from_sum(Scorer("SUM", 2), 12.0, 4) == 12.0

    def test_avg_divides(self):
        assert score_from_sum(Scorer("AVG", 2), 12.0, 4) == 3.0

    def test_minmax_rejected(self):
        with pytest.raises(ValueError):
            score_from_sum(Scorer("MAX", 2), 1.0, 1)

