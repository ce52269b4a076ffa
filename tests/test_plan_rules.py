"""§6 transformation rules R1–R5: each rewrite must fire under its
precondition, refuse otherwise, and preserve results when lowered."""
import pandas as pd
import pytest

from repro.core.compare import compare, topk_exact
from repro.core.pairs import pair_key_cols
from repro.core.spec import CompareSpec, ConstraintTerm, Measure, Scorer, TrendsetSpec
from repro.core.sql_gen import verbose_sql
from repro.oracle import assert_equivalent
from repro.plan import (
    Compare,
    CompareChain,
    Filter,
    GroupAgg,
    Join,
    PairJoin,
    Rename,
    Scan,
    ScoreAgg,
    TopK,
    Union,
    lower,
    optimize_tree,
)
from repro.plan import rules as R
from repro.plan.logical import chain_stage_name

from .spec_catalog import CATALOG


def ts(*terms):
    return TrendsetSpec(tuple(ConstraintTerm(*t) for t in terms))


@pytest.fixture()
def catalog(flight_df, websales_df, webpages_df, sales_df):
    return {
        "flights": flight_df,
        "websales": websales_df,
        "webpages": webpages_df,
        "sales": sales_df,
    }


def _frames_equal(a, b):
    a, b = a.toPandas(), b.toPandas()
    assert sorted(a.columns) == sorted(b.columns)
    cols = sorted(a.columns)
    a = a[cols].sort_values(cols).reset_index(drop=True)
    b = b[cols].sort_values(cols).reset_index(drop=True)
    for c in cols:
        if a[c].dtype.kind == "f":
            a[c] = a[c].round(5)
            b[c] = b[c].round(5)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


FLIGHT_COLS = ("airport", "day", "week", "month", "arr_delay", "dep_delay",
               "weather_delay", "carrier_delay", "duration")
WS_COLS = ("ws_web_page_sk", "ws_item_sk", "ws_sold_date_sk", "ws_warehouse_sk",
           "ws_quantity", "ws_net_profit")
WP_COLS = ("wp_web_page_sk", "wp_type", "wp_char_count")


def _star_compare():
    """Φ over websales ⋈ webpages with the constraint on the dim PK."""
    spec = CompareSpec(
        ts(("wp_web_page_sk", 1)),
        ts(("wp_web_page_sk",)),
        (("ws_item_sk", Measure("AVG", "ws_net_profit")),),
    )
    join = Join(
        Scan("websales", WS_COLS), Scan("webpages", WP_COLS),
        "ws_web_page_sk", "wp_web_page_sk", fk_pk=True,
    )
    return Compare(join, spec)


class TestR1:
    def test_fires_and_pushes_below_join(self):
        out = R.r1_push_compare_below_join(_star_compare())
        assert isinstance(out, Rename)
        assert isinstance(out.child, Compare)
        assert isinstance(out.child.child, Scan) and out.child.child.name == "websales"
        assert "ws_web_page_sk" in out.child.spec.input_cols
        assert "wp_web_page_sk" not in out.child.spec.input_cols

    def test_output_cols_preserved(self):
        node = _star_compare()
        assert R.r1_push_compare_below_join(node).cols == node.cols

    def test_results_preserved(self, catalog):
        node = _star_compare()
        _frames_equal(lower(node, catalog), lower(optimize_tree(node), catalog))

    def test_refuses_non_pk_dim_column(self):
        spec = CompareSpec(
            ts(("wp_type", "order")), ts(("wp_type",)),
            (("ws_item_sk", Measure("AVG", "ws_net_profit")),),
        )
        join = Join(Scan("websales", WS_COLS), Scan("webpages", WP_COLS),
                    "ws_web_page_sk", "wp_web_page_sk", fk_pk=True)
        assert R.r1_push_compare_below_join(Compare(join, spec)) is None

    def test_refuses_non_fkpk_join(self):
        node = _star_compare()
        import dataclasses
        join = dataclasses.replace(node.child, fk_pk=False)
        assert R.r1_push_compare_below_join(Compare(join, node.spec)) is None

    def test_refuses_pk_as_grouping(self):
        spec = CompareSpec(
            ts(("ws_item_sk",)), ts(("ws_item_sk",)),
            (("wp_web_page_sk", Measure("AVG", "ws_net_profit")),),
        )
        join = Join(Scan("websales", WS_COLS), Scan("webpages", WP_COLS),
                    "ws_web_page_sk", "wp_web_page_sk", fk_pk=True)
        assert R.r1_push_compare_below_join(Compare(join, spec)) is None


class TestR2:
    def _minmax_compare(self):
        spec = CompareSpec(
            ts(("airport",)), ts(("airport",)),
            (("week", Measure("MAX", "arr_delay")),),
        )
        return Compare(Scan("flights", FLIGHT_COLS), spec)

    def test_fires_for_minmax(self):
        out = R.r2_dedup_below_compare(self._minmax_compare())
        assert isinstance(out, Compare)
        dedup = out.child
        assert isinstance(dedup, GroupAgg) and dedup.aggs == ()
        assert set(dedup.keys) == {"airport", "week", "arr_delay"}

    def test_results_preserved(self, catalog):
        node = self._minmax_compare()
        _frames_equal(lower(node, catalog), lower(optimize_tree(node), catalog))

    def test_refuses_avg_measure(self):
        _, spec = CATALOG["q2"]
        assert R.r2_dedup_below_compare(Compare(Scan("flights", FLIGHT_COLS), spec)) is None

    def test_idempotent(self):
        once = R.r2_dedup_below_compare(self._minmax_compare())
        assert R.r2_dedup_below_compare(once) is None

    def test_avg_would_change_results(self, catalog):
        """Negative control: forcing the dedup under AVG measures breaks
        results — exactly why the precondition exists."""
        _, spec = CATALOG["q2"]
        node = Compare(Scan("flights", FLIGHT_COLS), spec)
        forced = Compare(GroupAgg(node.child, spec.input_cols, ()), spec)
        a = lower(node, catalog).toPandas()
        b = lower(forced, catalog).toPandas()
        key = sorted(c for c in a.columns if c != "score")
        a = a.sort_values(key).reset_index(drop=True)
        b = b.sort_values(key).reset_index(drop=True)
        assert not a["score"].round(6).equals(b["score"].round(6))


class TestR3:
    def _filtered_compare(self):
        _, spec = CATALOG["q2"]
        return Filter(
            Compare(Scan("flights", FLIGHT_COLS), spec),
            (("l_airport", "A1"), ("r_airport", "A3")),
        )

    def test_fires_when_both_sides_pinned(self):
        out = R.r3_predicate_pushdown(self._filtered_compare())
        assert isinstance(out, Filter) and isinstance(out.child, Compare)
        inner = out.child.child
        assert isinstance(inner, Filter)
        assert inner.preds == (("airport", ("A1", "A3")),)

    def test_results_preserved(self, catalog):
        node = self._filtered_compare()
        _frames_equal(lower(node, catalog), lower(optimize_tree(node), catalog))

    def test_refuses_one_sided_filter(self):
        _, spec = CATALOG["q2"]
        node = Filter(
            Compare(Scan("flights", FLIGHT_COLS), spec), (("l_airport", "A1"),)
        )
        assert R.r3_predicate_pushdown(node) is None

    def test_idempotent(self):
        once = R.r3_predicate_pushdown(self._filtered_compare())
        assert R.r3_predicate_pushdown(once) is None


def _chain(sel=(0.9, 0.1)):
    mk = lambda g, m: CompareSpec(
        ts(("city",)), ts(("city",)), ((g, Measure("AVG", m)),)
    )
    return CompareChain(
        Scan("sales", ("region", "city", "product", "country", "week", "month",
                       "revenue", "profit", "quantity")),
        ((mk("week", "revenue"), "<=", 1e5), (mk("week", "profit"), "<=", 50.0)),
        selectivity=sel,
    )


class TestR4:
    def test_reorders_by_selectivity(self):
        out = R.r4_reorder_chain(_chain((0.9, 0.1)))
        assert out is not None
        assert out.stages[0][0].gms[0][1].col == "profit"  # more selective first

    def test_no_reorder_when_sorted(self):
        assert R.r4_reorder_chain(_chain((0.1, 0.9))) is None

    def test_results_preserved_across_orders(self, catalog):
        chain = _chain((0.9, 0.1))
        reordered = optimize_tree(chain)
        a, b = lower(chain, catalog), lower(reordered, catalog)
        assert (tuple(a.columns), tuple(b.columns)) == (chain.cols, reordered.cols)
        _frames_equal(a, b)

    def test_rows_match_duckdb(self, catalog, sales_df):
        """Each stage's verbose SQL, filtered by its τ and inner-joined on the
        pair keys, in both stage orders: later stages score only the pairs
        that survived the earlier ones."""
        chain = _chain((0.9, 0.1))
        keys = ", ".join(pair_key_cols(chain.stages[0][0]))
        stages = [
            f"(SELECT {keys}, score AS {chain_stage_name(spec)} "
            f"FROM ({verbose_sql(spec, 'R')}) WHERE score {op} {tau!r})"
            for spec, op, tau in chain.stages
        ]
        sql = f"SELECT * FROM {stages[0]} s0 JOIN {stages[1]} s1 USING ({keys})"
        n = sales_df.select("city").distinct().count()
        for tree in (chain, optimize_tree(chain)):
            got = lower(tree, catalog)
            assert 0 < got.count() < n * (n - 1) // 2  # some pairs pass, not all
            assert_equivalent(got, sql, R=sales_df)

    def test_mismatched_pair_structure_rejected(self):
        s1 = CompareSpec(ts(("city",)), ts(("city",)), (("week", Measure("AVG", "revenue")),))
        s2 = CompareSpec(ts(("product",)), ts(("product",)), (("week", Measure("AVG", "revenue")),))
        with pytest.raises(ValueError):
            CompareChain(Scan("sales", ("city", "product", "week", "revenue")),
                         ((s1, "<=", 1.0), (s2, "<=", 1.0)))


def _verbose_tree():
    """The Fig. 3 shape for q2 over two (g, m): Union of ScoreAgg sub-plans."""
    scan = Scan("flights", FLIGHT_COLS)
    parts = []
    for g, m in (("day", "arr_delay"), ("week", "arr_delay")):
        side = lambda: GroupAgg(scan, ("airport", g), (("AVG", m, "__v"),))
        parts.append(
            ScoreAgg(PairJoin(side(), side(), g), Scorer("SUM", 2), g, f"AVG({m})")
        )
    return Union(tuple(parts))


class TestR5:
    def test_recognizes_verbose_plan(self):
        out = optimize_tree(_verbose_tree())
        assert isinstance(out, Compare)
        assert len(out.spec.gms) == 2
        assert out.spec.t1.vary_cols == ("airport",)

    def test_single_subquery_recognized(self):
        out = R.r5_verbose_to_compare(_verbose_tree().inputs[0])
        assert isinstance(out, Compare) and len(out.spec.gms) == 1

    def test_results_preserved(self, catalog):
        node = _verbose_tree()
        _frames_equal(lower(node, catalog), lower(optimize_tree(node), catalog))

    def test_refuses_mismatched_trendsets(self):
        scan = Scan("flights", FLIGHT_COLS)
        a = ScoreAgg(
            PairJoin(
                GroupAgg(scan, ("airport", "day"), (("AVG", "arr_delay", "__v"),)),
                GroupAgg(scan, ("airport", "day"), (("AVG", "arr_delay", "__v"),)),
                "day",
            ),
            Scorer("SUM", 2), "day", "AVG(arr_delay)",
        )
        b = ScoreAgg(
            PairJoin(
                GroupAgg(scan, ("week",), (("AVG", "dep_delay", "__v"),)),
                GroupAgg(scan, ("week",), (("AVG", "dep_delay", "__v"),)),
                "week",
            ),
            Scorer("SUM", 2), "week", "AVG(dep_delay)",
        )
        assert R.r5_verbose_to_compare(Union((a, b))) is None

    def test_fixed_constraint_recovered(self):
        scan = Scan("flights", FLIGHT_COLS)
        side1 = GroupAgg(Filter(scan, (("airport", "A0"),)), ("day",), (("AVG", "arr_delay", "__v"),))
        side2 = GroupAgg(scan, ("airport", "day"), (("AVG", "arr_delay", "__v"),))
        sa = ScoreAgg(PairJoin(side1, side2, "day"), Scorer("SUM", 2), "day", "AVG(arr_delay)")
        out = R.r5_verbose_to_compare(sa)
        assert isinstance(out, Compare)
        assert out.spec.t1.fixed[0].value == "A0"
        assert out.spec.t2.vary_cols == ("airport",)
        assert out.spec.exclude_equal


class TestLowering:
    def test_topk_over_compare_uses_pruning_operator(self, catalog):
        _, spec = CATALOG["q2"]
        node = TopK(Compare(Scan("flights", FLIGHT_COLS), spec), 3, ascending=True)
        got = lower(node, catalog).toPandas()
        from repro.core.compare import compare, topk_exact

        exp = topk_exact(compare(catalog["flights"], spec, "trendwise"), 3, True).toPandas()
        assert sorted(got["score"].round(6)) == pytest.approx(sorted(exp["score"].round(6)))

    @pytest.mark.parametrize("ascending", [True, False])
    def test_topk_over_minmax_compare_is_exact_trendwise(self, catalog, ascending):
        _, spec = CATALOG["max_scorer"]
        sales = catalog["sales"]
        node = TopK(Compare(Scan("sales", tuple(sales.columns)), spec), 3, ascending=ascending)
        exp = topk_exact(compare(sales, spec, "trendwise"), 3, ascending)
        pd.testing.assert_frame_equal(lower(node, catalog).toPandas(), exp.toPandas())

    def test_join_lowering_keeps_both_key_columns(self, catalog):
        node = Join(Scan("websales", WS_COLS), Scan("webpages", WP_COLS),
                    "ws_web_page_sk", "wp_web_page_sk", fk_pk=True)
        df = lower(node, catalog)
        assert {"wp_web_page_sk", "ws_web_page_sk", "wp_type"} <= set(df.columns)
        assert df.count() == catalog["websales"].count()

    def test_filter_in_lowering(self, catalog):
        node = Filter(Scan("flights", FLIGHT_COLS), (("airport", ("A0", "A1")),))
        assert set(r["airport"] for r in lower(node, catalog).select("airport").distinct().collect()) == {"A0", "A1"}

    def test_scan_unknown_table_raises(self, catalog):
        with pytest.raises(KeyError):
            lower(Scan("nope", ()), catalog)
