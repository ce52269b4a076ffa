"""Fig. 13: gains from the §6 pushdown rules.

R1 (Φ below PK-FK join): TPC-DS Q3/Q4 expressed over
``websales ⋈ webpages`` with the constraint on the dimension PK; the
rule rewrites Φ onto the fact table alone.

R2 (dedup below Φ): flight Q1/Q2 with MAX measures over a *quantized*
delay column (rounded to integers, so duplicates exist — the paper's
flight data has integral delays); the rule dedups Φ's input.
"""
import _common
from pyspark.sql import functions as F

from repro import synth_data as sd
from repro.bench.harness import timed
from repro.core.spec import CompareSpec, ConstraintTerm, Measure, Scorer, TrendsetSpec
from repro.plan import Compare, Join, Scan, lower, optimize_tree
from repro.bench.workloads import tpcds_gms

WS_COLS = ("ws_web_page_sk", "ws_item_sk", "ws_sold_date_sk", "ws_warehouse_sk",
           "ws_quantity", "ws_net_profit")
WP_COLS = ("wp_web_page_sk", "wp_type", "wp_char_count")


def _ts(*terms):
    return TrendsetSpec(tuple(ConstraintTerm(*t) for t in terms))


def _r1_tree(q: str):
    gms = tpcds_gms()
    pk = "wp_web_page_sk"
    if q == "Q3":
        spec = CompareSpec(_ts((pk, 1)), _ts((pk, 2)), gms, Scorer("SUM", 2))
    else:
        spec = CompareSpec(_ts((pk,)), _ts((pk,)), gms, Scorer("SUM", 2))
    join = Join(Scan("websales", WS_COLS), Scan("webpages", WP_COLS),
                "ws_web_page_sk", pk, fk_pk=True)
    return Compare(join, spec)


def _r2_spec(q: str):
    gm = (("week", Measure("MAX", "arr_delay_q")),)
    if q == "Q1":
        return CompareSpec(_ts(("airport", "A0")), _ts(("airport",)), gm, Scorer("SUM", 2))
    return CompareSpec(_ts(("airport",)), _ts(("airport",)), gm, Scorer("SUM", 2))


def run(spark, sf=0.05):
    rows = []
    ws = sd.websales(spark, sf=sf).cache()
    wp = sd.webpages(spark)
    ws.count()
    catalog = {"websales": ws, "webpages": wp}
    for q in ("Q3", "Q4"):
        tree = _r1_tree(q)
        t_orig = timed(lambda: lower(tree, catalog).collect())
        t_opt = timed(lambda: lower(optimize_tree(tree), catalog).collect())
        rows.append({"rule": "R1_phi_below_join", "query": q,
                     "original_s": round(t_orig, 3), "rewritten_s": round(t_opt, 3),
                     "improvement_pct": round(100 * (1 - t_opt / t_orig), 1)})
    ws.unpersist()

    fl = (
        sd.flights(spark, sf=sf, n_airports=64)
        .withColumn("arr_delay_q", F.round("arr_delay", 0))
        .cache()
    )
    fl.count()
    fl_cols = tuple(fl.columns)
    catalog = {"flights": fl}
    n_in = fl.count()
    for q in ("Q1", "Q2"):
        spec = _r2_spec(q)
        tree = Compare(Scan("flights", fl_cols), spec)
        t_orig = timed(lambda: lower(tree, catalog).collect())
        opt = optimize_tree(tree)
        t_opt = timed(lambda: lower(opt, catalog).collect())
        n_dedup = fl.select(*spec.input_cols).dropDuplicates().count()
        rows.append({"rule": "R2_dedup_below_phi", "query": q,
                     "original_s": round(t_orig, 3), "rewritten_s": round(t_opt, 3),
                     "improvement_pct": round(100 * (1 - t_opt / t_orig), 1),
                     "input_reduction_pct": round(100 * (1 - n_dedup / n_in), 1)})
    fl.unpersist()
    return rows


if __name__ == "__main__":
    _common.main_wrapper("fig13_rules", run)
