"""Catalog of CompareSpec shapes used across the correctness suites.

Keys name the paper example / Table-4 query shape each spec mirrors;
``dataset`` picks the session fixture it runs against.
"""
from repro.core.spec import CompareSpec, ConstraintTerm, Measure, Scorer, TrendsetSpec


def ts(*terms):
    return TrendsetSpec(tuple(ConstraintTerm(*t) for t in terms))


def m(agg, col):
    return Measure(agg, col)


# (name, dataset, spec)
CATALOG = {
    # §2.1 example 1a: region overall vs every product in the region
    "ex1a": (
        "sales",
        CompareSpec(
            ts(("region", "Asia")),
            ts(("region", "Asia"), ("product",)),
            (("week", m("AVG", "revenue")),),
        ),
    ),
    # §2.1 example 1b: two fixed subsets over several (g, m)
    "ex1b": (
        "sales",
        CompareSpec(
            ts(("region", "Asia")),
            ts(("region", "Asia"), ("product", "Inspiron")),
            (
                ("week", m("AVG", "revenue")),
                ("country", m("AVG", "profit")),
                ("month", m("AVG", "revenue")),
            ),
        ),
    ),
    # §2.1 example 2a: cities of Asia vs cities of Europe
    "ex2a": (
        "sales",
        CompareSpec(
            ts(("region", "Asia"), ("city",)),
            ts(("region", "Europe"), ("city",)),
            (("week", m("AVG", "revenue")),),
        ),
    ),
    # §2.1 example 2b: same, over several (g, m)
    "ex2b": (
        "sales",
        CompareSpec(
            ts(("region", "Asia"), ("city",)),
            ts(("region", "Europe"), ("city",)),
            (("week", m("AVG", "revenue")), ("country", m("AVG", "profit"))),
        ),
    ),
    # Table 4 Q1: reference airport vs all airports (self excluded)
    "q1": (
        "flight",
        CompareSpec(ts(("airport", "A0")), ts(("airport",)), (("day", m("AVG", "arr_delay")),)),
    ),
    # Table 4 Q2: all airports pairwise (symmetric dedup)
    "q2": (
        "flight",
        CompareSpec(ts(("airport",)), ts(("airport",)), (("day", m("AVG", "arr_delay")),)),
    ),
    # Q2 without symmetric dedup (ordered pairs, as the §4.1 join emits)
    "q2_ordered": (
        "flight",
        CompareSpec(
            ts(("airport",)), ts(("airport",)),
            (("day", m("AVG", "arr_delay")),), dedup="none",
        ),
    ),
    # Q2 with trends keyed by two columns (string, bigint): pairs match
    # within a month; top-k prunes whole trends, so Φp's identity order
    # and pair condition compare both columns at once
    "q2_month": (
        "flight",
        CompareSpec(
            ts(("airport",), ("month",)), ts(("airport",), ("month",)),
            (("day", m("AVG", "arr_delay")),),
        ),
    ),
    # Table 4 Q3: one airport against itself over many (g, m)
    "q3": (
        "flight",
        CompareSpec(
            ts(("airport", "A0")),
            ts(("airport", "A1")),
            (
                ("day", m("AVG", "arr_delay")),
                ("day", m("AVG", "dep_delay")),
                ("week", m("AVG", "arr_delay")),
                ("week", m("AVG", "duration")),
            ),
        ),
    ),
    # Table 4 Q4: all airports × several (g, m)
    "q4": (
        "flight",
        CompareSpec(
            ts(("airport",)),
            ts(("airport",)),
            (
                ("day", m("AVG", "arr_delay")),
                ("day", m("AVG", "dep_delay")),
                ("week", m("AVG", "arr_delay")),
            ),
        ),
    ),
    # TPC-DS Q1 shape (integer constraint values)
    "tpcds_q1": (
        "websales",
        CompareSpec(
            ts(("ws_web_page_sk", 1)),
            ts(("ws_web_page_sk",)),
            (("ws_item_sk", m("AVG", "ws_net_profit")),),
        ),
    ),
    # different measure aggregates / scorers
    "sum_measure": (
        "sales",
        CompareSpec(
            ts(("city",)), ts(("city",)), (("week", m("SUM", "quantity")),)
        ),
    ),
    "manhattan": (
        "sales",
        CompareSpec(
            ts(("city",)), ts(("city",)),
            (("week", m("AVG", "revenue")),), Scorer("SUM", 1),
        ),
    ),
    "avg_scorer": (
        "sales",
        CompareSpec(
            ts(("city",)), ts(("city",)),
            (("week", m("AVG", "revenue")),), Scorer("AVG", 2),
        ),
    ),
    "max_scorer": (
        "sales",
        CompareSpec(
            ts(("city",)), ts(("city",)),
            (("week", m("AVG", "revenue")),), Scorer("MAX", 2),
        ),
    ),
    "min_scorer": (
        "sales",
        CompareSpec(
            ts(("city",)), ts(("city",)),
            (("week", m("AVG", "revenue")),), Scorer("MIN", 1),
        ),
    ),
    "count_measure": (
        "sales",
        CompareSpec(
            ts(("city",)), ts(("city",)), (("week", m("COUNT", "revenue")),)
        ),
    ),
}


def fixture_for(dataset: str) -> str:
    return {"sales": "sales_df", "flight": "flight_df", "websales": "websales_df"}[dataset]
