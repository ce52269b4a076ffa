"""The Table 4 workloads: Q1–Q4 over Flight and TPC-DS-lite.

Q1  one-to-many, fixed (g, m):      reference entity <-> all entities
Q2  many-to-many, fixed (g, m):     all entities <-> all entities
Q3  one-to-one, varying (g, m):     one entity <-> same entity, n (g, m) pairs
Q4  many-to-many, varying (g, m):   all entities <-> all entities, n (g, m) pairs

Trend counts are scaled relative to the paper (384 airports / 2040
webpages there; configurable here — pair count grows quadratically).
The default k=5 output pairs and SUM OVER DIFF(2) scorer follow §8.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.spec import CompareSpec, ConstraintTerm, Measure, Scorer, TrendsetSpec
from repro.synth_data import FLIGHT_MEASURES


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # "flight" | "tpcds"
    spec: CompareSpec
    k: int = 5
    ascending: bool = True  # top-k most similar, as in §2.1's examples
    fds: dict = field(default_factory=dict, hash=False)


def _ts(*terms) -> TrendsetSpec:
    return TrendsetSpec(tuple(ConstraintTerm(*t) for t in terms))


_SCORER = Scorer("SUM", 2)


def flight_gms(n: int = 10) -> tuple:
    """The §8 flight (g, m) pool: {day, week} × five delay measures."""
    gms = []
    for g in ("day", "week"):
        for m in FLIGHT_MEASURES:
            gms.append((g, Measure("AVG", m)))
    return tuple(gms[:n])


def tpcds_gms(n: int = 5) -> tuple:
    pool = [
        ("ws_item_sk", Measure("AVG", "ws_net_profit")),
        ("ws_sold_date_sk", Measure("AVG", "ws_net_profit")),
        ("ws_sold_date_sk", Measure("AVG", "ws_quantity")),
        ("ws_item_sk", Measure("AVG", "ws_quantity")),
        ("ws_warehouse_sk", Measure("AVG", "ws_net_profit")),
    ]
    return tuple(pool[:n])


def flight_queries() -> dict[str, Workload]:
    ref_airport = "A0"
    one = flight_gms(1)
    many = flight_gms()
    fds = {"week": "day", "month": "day"}
    return {
        "Q1": Workload(
            "Q1", "flight",
            CompareSpec(_ts(("airport", ref_airport)), _ts(("airport",)), one, _SCORER),
            fds=fds,
        ),
        "Q2": Workload(
            "Q2", "flight",
            CompareSpec(_ts(("airport",)), _ts(("airport",)), one, _SCORER),
            fds=fds,
        ),
        "Q3": Workload(
            "Q3", "flight",
            CompareSpec(
                _ts(("airport", ref_airport)), _ts(("airport", ref_airport)), many, _SCORER
            ),
            fds=fds,
        ),
        "Q4": Workload(
            "Q4", "flight",
            CompareSpec(_ts(("airport",)), _ts(("airport",)), many, _SCORER),
            fds=fds,
        ),
    }


def tpcds_queries() -> dict[str, Workload]:
    ref_page = 1
    one = tpcds_gms(1)
    many = tpcds_gms()
    c = "ws_web_page_sk"
    return {
        "Q1": Workload(
            "Q1", "tpcds",
            CompareSpec(_ts((c, ref_page)), _ts((c,)), one, _SCORER),
        ),
        "Q2": Workload(
            "Q2", "tpcds",
            CompareSpec(_ts((c,)), _ts((c,)), one, _SCORER),
        ),
        "Q3": Workload(
            "Q3", "tpcds",
            CompareSpec(_ts((c, ref_page)), _ts((c, ref_page)), many, _SCORER),
        ),
        "Q4": Workload(
            "Q4", "tpcds",
            CompareSpec(_ts((c,)), _ts((c,)), many, _SCORER),
        ),
    }
