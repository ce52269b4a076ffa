"""Verbose SQL generator: dialect validity and cross-dialect agreement."""
import duckdb
import pytest

from repro.core.sql_gen import topk_sql, verbose_sql

from .spec_catalog import CATALOG


class TestGeneration:
    def test_one_subquery_per_gm(self):
        _, spec = CATALOG["ex1b"]
        sql = verbose_sql(spec, "R")
        assert sql.count("UNION ALL") == len(spec.gms) - 1

    def test_fixed_filters_present(self):
        _, spec = CATALOG["ex1a"]
        sql = verbose_sql(spec, "R")
        assert "WHERE region = 'Asia'" in sql

    def test_self_exclusion_predicate(self):
        _, spec = CATALOG["q1"]
        sql = verbose_sql(spec, "R")
        assert "NOT (" in sql and "'A0'" in sql

    def test_symmetric_dedup_predicate(self):
        _, spec = CATALOG["q2"]
        assert "a.airport < b.airport" in verbose_sql(spec, "R")

    def test_quotes_reserved_grouping_alias(self):
        _, spec = CATALOG["q2"]
        assert '"grouping"' in verbose_sql(spec, "R", "duckdb")
        assert "`grouping`" in verbose_sql(spec, "R", "spark")

    def test_string_values_escaped(self):
        from repro.core.spec import CompareSpec, ConstraintTerm, Measure, TrendsetSpec

        spec = CompareSpec(
            TrendsetSpec((ConstraintTerm("city", "O'Fallon"),)),
            TrendsetSpec((ConstraintTerm("city"),)),
            (("week", Measure("AVG", "revenue")),),
        )
        assert "O''Fallon" in verbose_sql(spec, "R")

    def test_unknown_dialect_rejected(self):
        _, spec = CATALOG["q1"]
        with pytest.raises(ValueError):
            verbose_sql(spec, "R", dialect="tsql")

    def test_topk_sql_orders_and_limits(self):
        _, spec = CATALOG["q1"]
        sql = topk_sql(spec, 7, ascending=False, table="R")
        assert "ORDER BY score DESC" in sql and "LIMIT 7" in sql


class TestCrossDialect:
    @pytest.mark.parametrize("name", ["ex1a", "q1", "q2", "q3", "avg_scorer"])
    def test_spark_and_duckdb_agree(self, request, name):
        """The same verbose query through both engines gives equal rows."""
        from .spec_catalog import fixture_for
        from repro.oracle import assert_equivalent

        dataset, spec = CATALOG[name]
        df = request.getfixturevalue(fixture_for(dataset))
        df.createOrReplaceTempView("VR")
        spark_out = df.sparkSession.sql(verbose_sql(spec, "VR", dialect="spark"))
        assert_equivalent(spark_out, verbose_sql(spec, "R", dialect="duckdb"), R=df)

    def test_fixed_values_read_as_in_duckdb(self, spark):
        """A fixed value holding a backslash, or a date, is the same value in
        the Spark SQL text (the verbose query, and the pair predicate of the
        ``merged`` join) and in lazy ``trendwise``'s tasks as in DuckDB's."""
        import datetime

        from repro.core.compare import compare
        from repro.core.spec import CompareSpec, ConstraintTerm, Measure, TrendsetSpec
        from repro.oracle import assert_equivalent

        start = datetime.date(2024, 1, 1)
        rows = [(c, start + datetime.timedelta(days=b), w, float(w * b))
                for c, b in (("x\\y", 1), ("p", 2), ("q", 3)) for w in range(4)]
        df = spark.createDataFrame(rows, "city string, day date, week long, revenue double")
        for col, value in (("city", "x\\y"), ("day", start + datetime.timedelta(days=1))):
            spec = CompareSpec(
                TrendsetSpec((ConstraintTerm(col, value),)),
                TrendsetSpec((ConstraintTerm(col),)),
                (("week", Measure("AVG", "revenue")),),
            )
            # constraint columns compared as text: the oracle reads a DATE back as a timestamp
            keys = {f"{p}_{col}": f"CAST({p}_{col} AS VARCHAR) AS {p}_{col}" for p in "lr"}
            sql = f"SELECT * REPLACE ({', '.join(keys.values())}) FROM ({verbose_sql(spec, 'R')})"
            for strategy in ("basic", "merged", "trendwise"):
                got = compare(df, spec, strategy)
                for c in keys:
                    got = got.withColumn(c, got[c].cast("string"))
                assert_equivalent(got, sql, R=df)
