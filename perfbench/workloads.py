"""Seeded query lists for the COMPARE benchmark.

A workload is a set of generated inputs plus a rotation of top-k
COMPARE queries over them. The benchmark seed picks the generator
seeds and the rotation order; the program under test only ever sees
the generated DataFrames and the query specs.
"""
from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

from repro.bench.workloads import flight_queries, tpcds_queries
from repro.core.spec import CompareSpec, Scorer

K = 5
FLIGHT_SF = 0.01
TPCDS_SF = 0.01


@dataclass(frozen=True)
class Input:
    """One generated base relation: ``synth_data.<generator>(**kwargs)``."""

    generator: str  # "flights" | "websales"
    kwargs: dict


@dataclass(frozen=True)
class Query:
    """One top-k query of a workload's rotation."""

    label: str
    input: str  # key into Workload.inputs
    spec: CompareSpec
    ascending: bool
    strategy: str
    k: int = K
    fds: dict = field(default_factory=dict, hash=False)

    def describe(self) -> dict:
        return {"label": self.label, "input": self.input, "strategy": self.strategy,
                "k": self.k, "ascending": self.ascending, "spec": spec_text(self.spec)}


def spec_text(spec: CompareSpec) -> str:
    """Compact COMPARE text of a spec, for the resolved query list."""

    def side(ts):
        return ", ".join(t.col if t.varies else f"{t.col}={t.value!r}" for t in ts.terms)

    gms = ", ".join(f"({g}, {m.name})" for g, m in spec.gms)
    return f"[{side(spec.t1)}] <-> [{side(spec.t2)}] [{gms}] USING {spec.scorer.name}"


@dataclass(frozen=True)
class Workload:
    inputs: dict  # name -> Input
    rotation: tuple  # Query, in the order the client sends them


def phi_all_pairs(seed: int) -> Workload:
    """Flight all<->all through Phi_p: a bound-heavy and a refine-heavy shape.

    Q4 (10 (g, m)) descending prunes most of its pairs from their
    segment bounds and refines little, so the Bound phase dominates; Q2
    ascending prunes nothing up front and refines thousands of steps, so
    the early-termination refine loop dominates.
    """
    rng = random.Random(seed)
    n4, n2 = 48, 112
    q4, q2 = flight_queries()["Q4"], flight_queries()["Q2"]
    inputs = {
        f"flight{n4}": Input("flights", dict(sf=FLIGHT_SF, seed=rng.randrange(1 << 30), n_airports=n4)),
        f"flight{n2}": Input("flights", dict(sf=FLIGHT_SF, seed=rng.randrange(1 << 30), n_airports=n2)),
    }
    rotation = [
        Query(f"Q4@{n4}/desc", f"flight{n4}", q4.spec, False, "compare", fds=q4.fds),
        Query(f"Q2@{n2}/asc", f"flight{n2}", q2.spec, True, "compare", fds=q2.fds),
    ]
    rng.shuffle(rotation)
    return Workload(inputs, tuple(rotation))


def exact_max_scorer(seed: int) -> Workload:
    """TPC-DS-lite all<->all under MAX OVER DIFF(1), scored exactly by trendwise.

    Phi_p rejects MIN/MAX scorers, so every pair is scored Spark-side in
    ``mapInPandas``; Q4 has 5 (g, m) over 3 grouping columns.
    """
    rng = random.Random(seed)
    n4, n2 = 96, 192
    max1 = Scorer("MAX", 1)
    q4, q2 = tpcds_queries()["Q4"], tpcds_queries()["Q2"]
    inputs = {
        f"web{n4}": Input("websales", dict(sf=TPCDS_SF, seed=rng.randrange(1 << 30), n_pages=n4)),
        f"web{n2}": Input("websales", dict(sf=TPCDS_SF, seed=rng.randrange(1 << 30), n_pages=n2)),
    }
    rotation = [
        Query(f"Q4@{n4}/desc", f"web{n4}", dataclasses.replace(q4.spec, scorer=max1), False,
              "trendwise"),
        Query(f"Q2@{n2}/asc", f"web{n2}", dataclasses.replace(q2.spec, scorer=max1), True,
              "trendwise"),
    ]
    rng.shuffle(rotation)
    return Workload(inputs, tuple(rotation))


WORKLOADS = {"phi_all_pairs": phi_all_pairs, "exact_max_scorer": exact_max_scorer}
