"""Middleware baseline (paper §8 setup; mimics Zenvisage/SeeDB).

The middleware issues one select-aggregate query per (side, g, m),
ships the aggregate result over the network to a client process, and
compares trends client-side (with the trendwise + summary-pruning
optimizations, as in the paper). The network is simulated: the Arrow
payload is actually serialized, a transfer delay of
``bytes / bandwidth`` is injected (the paper measured a 10 MB/s link),
and the payload is actually deserialized — reproducing the transfer +
(de)serialization bottleneck the paper attributes to this approach.
``bandwidth_mbps=None`` disables the sleep (used by correctness tests).
"""
from __future__ import annotations

import pickle
import time

import pandas as pd
from pyspark.sql import DataFrame

from repro.core.aggregates import build_vector_blocks, gm_relations
from repro.core.spec import CompareSpec

from . import client_core as cc


def _fetch(rel: DataFrame, bandwidth_mbps: float | None) -> tuple[pd.DataFrame, int]:
    """Collect an aggregate query result and simulate its network hop."""
    pdf = rel.toPandas()
    payload = pickle.dumps(pdf, protocol=pickle.HIGHEST_PROTOCOL)
    if bandwidth_mbps:
        time.sleep(len(payload) / (bandwidth_mbps * 1_000_000))
    return pickle.loads(payload), len(payload)


def compare_middleware(
    df: DataFrame,
    spec: CompareSpec,
    *,
    k: int | None = None,
    ascending: bool = True,
    bandwidth_mbps: float | None = 10.0,
    return_bytes: bool = False,
):
    """COMPARE computed in a middleware client. Returns a pandas frame
    (the result lives client-side), optionally with total bytes moved."""
    rels = gm_relations(build_vector_blocks(df, spec), spec)
    total_bytes = 0
    fetched = []
    for gm in spec.gms:
        r1, r2 = rels[gm]
        p2, b2 = _fetch(r2, bandwidth_mbps)
        p1, b1 = (p2, 0) if r1 is r2 else _fetch(r1, bandwidth_mbps)
        total_bytes += b1 + b2
        fetched.append((p1, p2))
    out = cc.result_frame(spec, fetched, k, ascending)
    return (out, total_bytes) if return_bytes else out
