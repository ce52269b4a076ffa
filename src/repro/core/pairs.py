"""Shared pair machinery for COMPARE execution strategies.

Every strategy emits the canonical ``l_``/``r_`` output relation
(:func:`output_schema`). The pair rule is the verbose SQL's text
(:func:`repro.core.sql_gen.pair_sql`), which the ``merged`` join renders
over the ``l_``/``r_`` columns (:func:`pair_condition`);
:func:`candidate_pairs` is its numpy copy for the driver paths and the
lazy trendwise tasks, checked against the join by
``tests/test_pairs.py``. :func:`identity_keys` is the one tie order; only
:func:`repro.core.exact.select_rows` calls it.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T
from pyspark.sql.pandas.types import to_arrow_schema

from .spec import CompareSpec, TrendsetSpec, output_cols, side_prefix
from .sql_gen import pair_sql


def rename_side(rel: DataFrame, ts: TrendsetSpec, side: int, extra: dict[str, str]) -> DataFrame:
    """Prefix a side's vary columns with ``l_``/``r_`` and rename extras."""
    pre = side_prefix(side)
    for c in ts.vary_cols:
        rel = rel.withColumnRenamed(c, pre + c)
    for old, new in extra.items():
        rel = rel.withColumnRenamed(old, new)
    return rel


def pair_condition(spec: CompareSpec) -> Column | None:
    """Join condition between the two (renamed) sides, or None for cross:
    the verbose SQL's pair condition (:func:`~repro.core.sql_gen.pair_sql`)
    over the ``l_``/``r_`` columns."""
    cond = pair_sql(
        spec, lambda c: f"`{side_prefix(1)}{c}`", lambda c: f"`{side_prefix(2)}{c}`", "spark"
    )
    return None if cond is None else F.expr(cond)


def _constraint_tuple(ts: TrendsetSpec, tid: tuple) -> tuple:
    """A trend's full constraint tuple, ordered by column name, as in :func:`pair_sql`."""
    vary = iter(tid)
    vals = {t.col: next(vary) if t.varies else t.value for t in ts.terms}
    return tuple(vals[c] for c in sorted(ts.cols))


def _null_first(tid: tuple) -> tuple:
    """Sort key ordering vary-value tuples as Spark's ascending sort does:
    a NULL (None) before every value."""
    return tuple((False, 0) if v is None else (True, v) for v in tid)


#: SQL's three-valued logic as ints: AND is min, OR is max, NOT is ``TRUE - x``
FALSE, NULL, TRUE = 0, 1, 2


def _column_compare(v1: list, v2: list) -> tuple[np.ndarray, np.ndarray]:
    """``a < b`` and ``a = b`` of one constraint column between every pair of
    the two sides, as (len(v1) × len(v2)) truth values, NULL where either
    value is None."""
    rank = {v: i for i, v in enumerate(sorted({v for v in (*v1, *v2) if v is not None}))}
    r1 = np.array([rank.get(v, -1) for v in v1], dtype=np.int64)[:, None]
    r2 = np.array([rank.get(v, -1) for v in v2], dtype=np.int64)[None, :]
    null = (r1 < 0) | (r2 < 0)
    return np.where(null, NULL, TRUE * (r1 < r2)), np.where(null, NULL, TRUE * (r1 == r2))


def candidate_pairs(
    spec: CompareSpec, t1_ids: list[tuple], t2_ids: list[tuple]
) -> tuple[np.ndarray, np.ndarray]:
    """Driver-side :func:`pair_condition`: index arrays ``(ia, ib)`` into the
    two sides' trend-id lists (vary-column tuples, NULL as None), row-major
    order.

    Trends compare by full constraint tuple, as in the Spark join:
    ``dedup_symmetric`` keeps ``a < b``, ``exclude_equal`` drops ``a == b``;
    both in three-valued logic, so a pair whose condition is NULL (a NULL
    vary value decides it) is dropped, as the join drops it.
    """
    if not (spec.dedup_symmetric or spec.exclude_equal):
        return np.nonzero(np.ones((len(t1_ids), len(t2_ids)), dtype=bool))
    c1 = [_constraint_tuple(spec.t1, t) for t in t1_ids]
    c2 = [_constraint_tuple(spec.t2, t) for t in t2_ids]
    lt, eq = zip(*(
        _column_compare([c[p] for c in c1], [c[p] for c in c2]) for p in range(len(spec.t1.cols))
    ))
    if spec.dedup_symmetric:  # the lexicographic ``<`` of pair_sql
        keep = lt[-1]
        for x_lt, x_eq in zip(reversed(lt[:-1]), reversed(eq[:-1])):
            keep = np.maximum(x_lt, np.minimum(x_eq, keep))
    else:
        keep = TRUE - np.minimum.reduce(eq)
    return np.nonzero(keep == TRUE)


def trend_rows(pdf: pd.DataFrame, vary: tuple[str, ...]):
    """Trend ids and each row's index into them.

    The ids are the distinct vary-value tuples of ``pdf`` in Spark's
    ascending order; a NULL (None or NaN in pandas) is a value of its own,
    as in a group-by, and becomes None in the id.
    """
    if not vary:
        return ([()] if len(pdf) else []), np.zeros(len(pdf), dtype=np.int64)
    codes = pdf.groupby(list(vary), dropna=False, sort=False).ngroup().to_numpy()
    _, first = np.unique(codes, return_index=True)  # groups are numbered as first seen
    found = [
        tuple(None if pd.isna(v) else v for v in row)
        for row in pdf[list(vary)].iloc[first].itertuples(index=False, name=None)
    ]
    tids = sorted(found, key=_null_first)
    pos = {t: i for i, t in enumerate(tids)}
    return tids, np.array([pos[t] for t in found], dtype=np.int64)[codes]


def identity_keys(spec: CompareSpec, parts: list) -> list[np.ndarray]:
    """``np.lexsort`` keys ordering pair rows by output identity (l_ trend,
    r_ trend, grouping, measure): the tie order of ``topk_exact``.

    ``parts`` are ``(gi, tids1, ia, tids2, ib)``: the rows
    ``(tids1[ia[j]], tids2[ib[j]])`` of (g, m) ``spec.gms[gi]``; the keys
    cover their concatenation, least significant first.
    """
    ids1 = sorted({t for _, t1, _, _, _ in parts for t in t1}, key=_null_first)
    ids2 = sorted({t for _, _, _, t2, _ in parts for t in t2}, key=_null_first)
    rank1, rank2 = ({t: r for r, t in enumerate(ids)} for ids in (ids1, ids2))
    by_name = sorted(range(len(spec.gms)), key=lambda j: (spec.gms[j][0], spec.gms[j][1].name))
    gm_rank = np.argsort(by_name)
    keys = [[], [], []]
    for gi, tids1, ia, tids2, ib in parts:
        keys[0].append(np.full(len(ia), gm_rank[gi]))
        keys[1].append(np.array([rank2[t] for t in tids2], dtype=np.int64)[ib])
        keys[2].append(np.array([rank1[t] for t in tids1], dtype=np.int64)[ia])
    return [np.concatenate(k) for k in keys]


def pair_key_cols(spec: CompareSpec) -> list[str]:
    """Vary columns identifying a pair of trends in the output."""
    return [side_prefix(1) + c for c in spec.t1.vary_cols] + [
        side_prefix(2) + c for c in spec.t2.vary_cols
    ]


def with_fixed_literals(scored: DataFrame, df: DataFrame, spec: CompareSpec) -> DataFrame:
    """Attach (or replace) both sides' fixed constraint terms as ``l_``/``r_``
    literal columns, typed as the base relation ``df``'s column, as in
    :func:`output_schema`."""
    for side, ts in ((1, spec.t1), (2, spec.t2)):
        for t in ts.fixed:
            lit = F.lit(t.value).cast(df.schema[t.col].dataType)
            scored = scored.withColumn(side_prefix(side) + t.col, lit)
    return scored


def py_scalar(v):
    """numpy scalar → python scalar (for driver-built rows)."""
    return v.item() if isinstance(v, np.generic) else v


def output_rows(spec: CompareSpec, rows) -> list[tuple]:
    """``(tid1, tid2, gm_idx, score)`` rows → tuples in :func:`output_cols` order.

    ``tid1``/``tid2`` are vary-column value tuples; fixed constraint
    terms are filled in from the spec.
    """
    cols = output_cols(spec)
    out = []
    for a, b, gi, score in rows:
        g, m = spec.gms[gi]
        rec = {"grouping": g, "measure": m.name, "score": float(score)}
        for side, ts, tid in ((1, spec.t1, a), (2, spec.t2, b)):
            pre = side_prefix(side)
            rec.update({pre + c: py_scalar(v) for c, v in zip(ts.vary_cols, tid)})
            rec.update({pre + t.col: t.value for t in ts.fixed})
        out.append(tuple(rec[c] for c in cols))
    return out


def output_schema(df: DataFrame, spec: CompareSpec) -> T.StructType:
    """The canonical COMPARE output schema, typed from the base relation."""
    by_name = {f.name: f.dataType for f in df.schema.fields}
    fields = []
    for side, ts in ((1, spec.t1), (2, spec.t2)):
        for t in ts.terms:
            fields.append(T.StructField(side_prefix(side) + t.col, by_name[t.col]))
    fields += [
        T.StructField("grouping", T.StringType()),
        T.StructField("measure", T.StringType()),
        T.StructField("score", T.DoubleType()),
    ]
    return T.StructType(fields)


def local_frame(spark: SparkSession, rows: list[tuple], schema: T.StructType) -> DataFrame:
    """Driver-side ``rows`` as a local relation (``LocalTableScan``).

    Built from an Arrow table, so neither creating nor collecting it runs
    a Spark job (a Python list would go through ``parallelize``); an
    empty ``rows`` keeps ``schema``.
    """
    table = pa.Table.from_pylist(
        [dict(zip(schema.names, r)) for r in rows], schema=to_arrow_schema(schema)
    )
    return spark.createDataFrame(table)
