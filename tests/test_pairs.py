"""Driver-side pair enumeration (``pairs.candidate_pairs``) agrees with the
Spark ``pair_condition`` join on every pair semantics: symmetric dedup,
a fixed slice against all trends, and multi-column constraints; and the
local relation that carries driver-built results."""
import pytest
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.aggregates import filtered
from repro.core.pairs import candidate_pairs, local_frame, pair_condition, rename_side

from .spec_catalog import CATALOG, fixture_for


def _trends(df, ts, side):
    """Distinct trend ids of a side, as a renamed Spark frame and as tuples."""
    rel = filtered(df, ts).select(F.lit(1).alias(f"__one{side}"), *ts.vary_cols).distinct()
    tids = sorted(tuple(r[c] for c in ts.vary_cols) for r in rel.collect())
    return rename_side(rel, ts, side, {}), tids


@pytest.mark.parametrize("name", ["q1", "q2", "q2_ordered", "ex1a", "ex2a", "tpcds_q1"])
def test_candidate_pairs_match_pair_condition_join(request, name):
    dataset, spec = CATALOG[name]
    df = request.getfixturevalue(fixture_for(dataset))
    rel1, tids1 = _trends(df, spec.t1, 1)
    rel2, tids2 = _trends(df, spec.t2, 2)
    cond = pair_condition(spec)
    joined = rel1.crossJoin(rel2) if cond is None else rel1.join(rel2, cond)
    l_cols = ["l_" + c for c in spec.t1.vary_cols]
    r_cols = ["r_" + c for c in spec.t2.vary_cols]
    spark_pairs = sorted(
        (tuple(r[c] for c in l_cols), tuple(r[c] for c in r_cols)) for r in joined.collect()
    )
    ia, ib = candidate_pairs(spec, tids1, tids2)
    driver_pairs = sorted((tids1[i], tids2[j]) for i, j in zip(ia, ib))
    assert driver_pairs == spark_pairs
    assert len(spark_pairs) > 0


def test_local_frame_keeps_rows_and_schema(spark):
    schema = T.StructType([
        T.StructField("l_airport", T.StringType()),
        T.StructField("l_day", T.LongType()),
        T.StructField("score", T.DoubleType()),
    ])
    rows = [("A0", 3, 1.5), ("A1", None, 0.25)]
    out = local_frame(spark, rows, schema)
    assert out.schema == schema
    assert [tuple(r) for r in out.collect()] == rows
    empty = local_frame(spark, [], schema)
    assert empty.schema == schema
    assert empty.collect() == []
