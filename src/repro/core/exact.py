"""Exact top-k on the driver: every candidate pair scored, none pruned.

The §4.2 plan joins at *trend* granularity, so the comparison touches p
trend rows, not n tuples. A top-k query needs no pair relation in Spark
at all: each side of each :class:`~repro.core.aggregates.VectorBlock`
(one row per trend and grouping value) is fetched once through Arrow —
a shared block once, the sides concurrently — and decoded into dense
(trends × grouping values) value arrays plus a key mask. Candidate pairs
(:func:`~repro.core.pairs.candidate_pairs`) are scored by the masked
kernel :func:`~repro.core.scorer.score_pairs`, and the k best, in
``topk_exact``'s (score, output identity) order, become a local relation.

This is Φp without the bounds (:mod:`repro.core.pruning` reads the same
:func:`block_arrays`), and the shared-scan, client-side scoring of SeeDB
(Vartak et al., PVLDB 8(13), 2015). Lazy ``compare()``, whose output is
O(pairs) and must stay a relation, runs the same decode and scoring per
pair of trend chunks inside Spark tasks (:mod:`repro.core.trendwise`,
through :func:`all_pairs_frame`).
"""
from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.util import inheritable_thread_target

from .aggregates import G_COL, MergeGroup, VectorBlock, plan_vector_blocks
from .pairs import (
    candidate_pairs, identity_keys, local_frame, output_rows, output_schema, trend_rows,
)
from .scorer import dense, score_pairs
from .spec import CompareSpec, output_cols


def _fetch(rel: DataFrame) -> pd.DataFrame:
    """One block side, collected through Arrow and converted to pandas on the
    calling thread: on the TPC-DS benchmark this peaks ~1.5 MB lower in
    driver RSS than ``toPandas`` (which copies its converted columns)."""
    return rel.toArrow().to_pandas(use_threads=False)


def _fetch_sides(spark: SparkSession, blocks: list[VectorBlock]) -> list[tuple]:
    """``(pdf1, pdf2)`` per block: T1's and T2's side, fetched by :func:`_fetch`.

    A shared block is fetched once and is then both sides. Two or more
    block sides are fetched concurrently, one thread each; every thread
    inherits the caller's local properties (its job group, scheduler pool),
    so its jobs are attributed as the caller's own.
    """
    rels = [rel for blk in blocks for rel in ([blk.rel2] if blk.shared else [blk.rel1, blk.rel2])]
    if len(rels) < 2:
        pdfs = iter([_fetch(rel) for rel in rels])
    else:
        fetch = inheritable_thread_target(spark)(_fetch)
        with ThreadPoolExecutor(len(rels)) as pool:
            pdfs = iter(list(pool.map(fetch, rels)))
    out = []
    for blk in blocks:
        pdf1 = next(pdfs)
        out.append((pdf1, pdf1 if blk.shared else next(pdfs)))
    return out


def _side_arrays(pdf: pd.DataFrame, vary: tuple[str, ...], value_cols: list[str], domain: pd.Index):
    """Trend ids, (trends × domain) key mask and value arrays of one fetched block side."""
    tids, ti = trend_rows(pdf, vary)
    mask, vals = dense(len(tids), domain, ti, pdf[G_COL], [pdf[vc] for vc in value_cols])
    return tids, mask, vals


def block_sides(spec: CompareSpec, pdf1: pd.DataFrame, pdf2: pd.DataFrame, value_cols: list[str]):
    """``((tids1, m1, vals1), (tids2, m2, vals2))`` of one block's fetched
    sides ``(vary…, __g, value_cols…)``: each side's trend ids, (trends ×
    domain) key mask and one value array per column of ``value_cols``.

    The domain is the block's sorted distinct non-NULL grouping values. A
    shared block (``pdf1 is pdf2``) is decoded once, and its two sides are
    then one tuple.
    """
    # every grouping value of the block; a pair matches on those both trends hold
    domain = pd.Index(pd.concat([pdf1[G_COL], pdf2[G_COL]]).dropna().unique()).sort_values()
    side1 = _side_arrays(pdf1, spec.t1.vary_cols, value_cols, domain)
    side2 = side1 if pdf1 is pdf2 else _side_arrays(pdf2, spec.t2.vary_cols, value_cols, domain)
    return side1, side2


def block_arrays(df: DataFrame, spec: CompareSpec, groups: list[MergeGroup] | None) -> list:
    """``(gms, (tids1, m1, vals1), (tids2, m2, vals2))`` per block of
    :func:`~repro.core.aggregates.plan_vector_blocks`: the block's (g, m)s,
    then its :func:`block_sides`, one value array per (g, m).

    Runs one Spark action per block side (a shared block: one, whose two
    sides are then one tuple). Each block side is read once, so inside the
    caller's ``persisted()`` scope only the merged partials that several
    block sides read are persisted.
    """
    blocks = plan_vector_blocks(df, spec, groups)
    fetched = _fetch_sides(df.sparkSession, blocks)
    return [
        (list(blk.value_cols), *block_sides(spec, pdf1, pdf2, list(blk.value_cols.values())))
        for blk, (pdf1, pdf2) in zip(blocks, fetched)
    ]


def select_rows(spec: CompareSpec, parts: list, score: np.ndarray, k: int, ascending: bool) -> list[tuple]:
    """The k best of the pair rows ``parts`` (``(gi, tids1, ia, tids2, ib)``,
    as :func:`~repro.core.pairs.identity_keys` takes them) with exact scores
    ``score``, as ``(tid1, tid2, gm_idx, score)`` rows, best first, ties by
    output identity as in ``topk_exact``; a k no smaller than the row count
    returns every row. Φp ranks through it too."""
    lead = score if ascending else -score
    rows = np.arange(len(lead))
    if 0 < k < len(lead):  # only rows no worse than the k-th best can be in the top k
        rows = np.flatnonzero(lead <= np.partition(lead, k - 1)[k - 1])
    keys = identity_keys(spec, parts)
    top = rows[np.lexsort([*(key[rows] for key in keys), lead[rows]])][:k]
    starts = np.cumsum([0] + [len(ia) for _, _, ia, _, _ in parts])
    out = []
    for i in top:
        part = int(np.searchsorted(starts, i, side="right")) - 1
        gi, tids1, ia, tids2, ib = parts[part]
        j = i - starts[part]
        out.append((tids1[ia[j]], tids2[ib[j]], gi, score[i]))
    return out


def topk_rows(spec: CompareSpec, arrays: list, k: int, ascending: bool) -> list[tuple]:
    """:func:`select_rows` over every scored candidate pair of ``arrays``
    (:func:`block_arrays`' shape)."""
    gm_index = {gm: gi for gi, gm in enumerate(spec.gms)}
    parts, scores = [], []
    for gms, (tids1, m1, v1), (tids2, m2, v2) in arrays:
        ia, ib = candidate_pairs(spec, tids1, tids2)
        s = score_pairs(spec.scorer, m1, m2, list(zip(v1, v2)), ia, ib)
        for j, gm in enumerate(gms):
            ok = ~np.isnan(s[:, j])  # no matched key, or a matched NaN: no row
            parts.append((gm_index[gm], tids1, ia[ok], tids2, ib[ok]))
            scores.append(s[ok, j])
    return select_rows(spec, parts, np.concatenate(scores), k, ascending)


def all_pairs_frame(spec: CompareSpec, arrays: list) -> pd.DataFrame:
    """Every scored candidate pair of ``arrays`` (:func:`block_arrays`'
    shape) as a pandas frame in ``output_cols`` order: the client
    baselines' all-pairs output and the lazy trendwise task's."""
    rows = topk_rows(spec, arrays, sys.maxsize, True)
    return pd.DataFrame(output_rows(spec, rows), columns=output_cols(spec))


def compare_topk_exact(
    df: DataFrame,
    spec: CompareSpec,
    k: int,
    *,
    ascending: bool = True,
    groups: list[MergeGroup] | None = None,
) -> DataFrame:
    """The exact top-k pairs (ties broken by output identity) as a local
    relation, from the arrays of :func:`block_arrays`."""
    rows = topk_rows(spec, block_arrays(df, spec, groups), k, ascending)
    return local_frame(df.sparkSession, output_rows(spec, rows), output_schema(df, spec))
