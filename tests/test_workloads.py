"""Table 4 workload definitions and the bench harness."""
import pytest

from repro.bench.harness import dataset_cache, execute, speedup_row
from repro.bench.workloads import Workload, flight_gms, flight_queries, tpcds_gms, tpcds_queries


class TestWorkloadShapes:
    def test_flight_q1_one_to_many(self):
        wl = flight_queries()["Q1"]
        assert wl.spec.t1.fixed[0].col == "airport"
        assert wl.spec.t2.vary_cols == ("airport",)
        assert len(wl.spec.gms) == 1
        assert wl.spec.exclude_equal

    def test_flight_q2_many_to_many(self):
        wl = flight_queries()["Q2"]
        assert wl.spec.same_trendsets and wl.spec.dedup_symmetric

    def test_flight_q3_varying_attributes(self):
        wl = flight_queries()["Q3"]
        assert len(wl.spec.gms) == 10
        assert not wl.spec.t1.vary_cols and not wl.spec.t2.vary_cols

    def test_flight_q4_many_many_varying(self):
        wl = flight_queries()["Q4"]
        assert len(wl.spec.gms) == 10 and wl.spec.dedup_symmetric

    def test_flight_gms_pool(self):
        gms = flight_gms(10)
        assert len(gms) == 10
        assert {g for g, _ in gms} == {"day", "week"}

    def test_tpcds_queries_shapes(self):
        qs = tpcds_queries()
        assert qs["Q1"].spec.t1.fixed[0].value == 1
        assert len(qs["Q3"].spec.gms) == 5
        assert qs["Q4"].spec.dedup_symmetric

    def test_tpcds_gms_pool(self):
        assert len(tpcds_gms(5)) == 5

    def test_table4_trend_counts_paper_scale(self):
        """Table 4's #trends column at the paper's cardinalities."""
        qs = flight_queries()
        d = {"airport": 384}
        assert qs["Q1"].spec.n_pairs(d) == 383          # 1 × 384 minus self
        assert qs["Q2"].spec.n_pairs(d) == 384 * 383 // 2
        assert qs["Q3"].spec.n_pairs(d) == 10           # 10 (g, m) self-pairs
        assert qs["Q4"].spec.n_pairs(d) == 10 * 384 * 383 // 2
        dq = {"ws_web_page_sk": 2040}
        ts = tpcds_queries()
        assert ts["Q1"].spec.n_pairs(dq) == 2039
        assert ts["Q2"].spec.n_pairs(dq) == 2040 * 2039 // 2

    def test_fds_declared(self):
        assert flight_queries()["Q4"].fds == {"week": "day", "month": "day"}


class TestHarness:
    @pytest.fixture(scope="class")
    def get_dataset(self, spark):
        with dataset_cache(spark) as get:
            yield get

    @pytest.fixture(scope="class")
    def tiny_flight(self, get_dataset):
        return get_dataset("flight", 0.001, n_entities=6)

    def test_get_dataset_cached(self, get_dataset, tiny_flight):
        again = get_dataset("flight", 0.001, n_entities=6)
        assert again is tiny_flight

    def test_dataset_cache_unpersists_on_exit(self, spark):
        with dataset_cache(spark) as get:
            df = get("flight", 0.001, n_entities=5)
            assert df.storageLevel.useMemory
        assert not df.storageLevel.useMemory

    @pytest.mark.parametrize("method", ["naive_sql", "udf", "compare"])
    def test_execute_methods_return_k_rows(self, tiny_flight, method):
        wl = flight_queries()["Q1"]
        assert execute(method, tiny_flight, wl) == min(wl.k, 5)

    def test_execute_middleware(self, tiny_flight):
        wl = flight_queries()["Q1"]
        assert execute("middleware", tiny_flight, wl, bandwidth_mbps=None) == 5

    def test_execute_ablation_strategies(self, tiny_flight):
        wl = flight_queries()["Q2"]
        for m in ("basic", "merged", "trendwise", "pruned"):
            assert execute(m, tiny_flight, wl) == 5

    def test_unknown_dataset_rejected(self, get_dataset):
        with pytest.raises(ValueError):
            get_dataset("nope", 0.001)

    def test_speedup_row(self):
        row = speedup_row("Q1", 10.0, {"compare": 2.5})
        assert row["compare_x"] == 4.0
