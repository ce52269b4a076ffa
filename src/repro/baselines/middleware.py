"""Middleware baseline (paper §8 setup; mimics Zenvisage/SeeDB).

The middleware issues one select-aggregate query per distinct trendset
side, the side's blocks in one grouping-sets aggregate, as SeeDB shares
one scan across its aggregates; it ships each result over the network to
a client process, and compares trends client-side (with the trendwise +
summary-pruning optimizations, as in the paper). The network is
simulated: the Arrow payload is actually serialized, a transfer delay of
``bytes / bandwidth`` is injected (the paper measured a 10 MB/s link),
and the payload is actually deserialized — reproducing the transfer +
(de)serialization bottleneck the paper attributes to this approach.
``bandwidth_mbps=None`` disables the sleep (used by correctness tests).
"""
from __future__ import annotations

import time

import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame

from repro.core.aggregates import plan_sides
from repro.core.exact import table_arrays
from repro.core.spec import CompareSpec

from . import client_core as cc


def _transfer(payload: pa.Buffer, bandwidth_mbps: float | None) -> pa.Buffer:
    """The simulated network hop: ``len(payload) / bandwidth`` seconds."""
    if bandwidth_mbps:
        time.sleep(payload.size / (bandwidth_mbps * 1_000_000))
    return payload


def _fetch(rel: DataFrame, bandwidth_mbps: float | None) -> pa.Table:
    """Collect an aggregate query result and ship it, serialized, over the hop."""
    table = rel.toArrow()
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as writer:
        writer.write_table(table)
    return pa.ipc.open_stream(_transfer(sink.getvalue(), bandwidth_mbps)).read_all()


def compare_middleware(
    df: DataFrame,
    spec: CompareSpec,
    *,
    k: int | None = None,
    ascending: bool = True,
    bandwidth_mbps: float | None = 10.0,
) -> pd.DataFrame:
    """COMPARE computed in a middleware client. Returns a pandas frame
    (the result lives client-side)."""
    side1, side2, layout = plan_sides(df, spec)
    table2 = _fetch(side2, bandwidth_mbps)
    table1 = None if side1 is None else _fetch(side1, bandwidth_mbps)
    return cc.result_frame(spec, table_arrays(spec, layout, table2, table1), k, ascending)
