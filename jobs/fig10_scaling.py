"""Fig. 10: sensitivity to data characteristics on the flight dataset —
(a) number of trends (Q2), (b) number of (g, m) combinations (Q3-like),
(c) number of trends with total data size fixed."""
import _common

from repro import synth_data as sd
from repro.bench.harness import MIDDLEWARE_MBPS, execute, timed
from repro.bench.workloads import Workload, flight_gms, flight_queries
from repro.core.spec import CompareSpec, ConstraintTerm, Scorer, TrendsetSpec


def _cached(df):
    df = df.cache()
    df.count()
    return df


def run(
    spark,
    sf=0.05,
    trend_counts=(10, 32, 64, 128),
    gm_counts=(1, 4, 10),
    fixed_counts=(8, 32, 128, 512),
    bandwidth_mbps=MIDDLEWARE_MBPS,
):
    rows = []
    # (a) scale the number of trends, trend size held by the generator
    for n_trends in trend_counts:
        df = _cached(sd.flights(spark, sf=sf, n_airports=n_trends))
        wl = flight_queries()["Q2"]
        base = timed(execute, "naive_sql", df, wl)
        for m in ("udf", "middleware", "compare"):
            t = timed(execute, m, df, wl, bandwidth_mbps=bandwidth_mbps)
            rows.append({"sweep": "n_trends", "x": n_trends, "method": m,
                         "seconds": round(t, 3), "speedup_vs_naive": round(base / t, 2)})
        rows.append({"sweep": "n_trends", "x": n_trends, "method": "naive_sql",
                     "seconds": round(base, 3), "speedup_vs_naive": 1.0})
        df.unpersist()
    # (b) scale the number of (grouping, measure) combinations
    for n_gms in gm_counts:
        df = _cached(sd.flights(spark, sf=sf, n_airports=16))
        spec = CompareSpec(
            TrendsetSpec((ConstraintTerm("airport", "A0"),)),
            TrendsetSpec((ConstraintTerm("airport", "A1"),)),
            flight_gms(n_gms), Scorer("SUM", 2),
        )
        wl = Workload(f"gms{n_gms}", "flight", spec, fds={"week": "day", "month": "day"})
        base = timed(execute, "naive_sql", df, wl)
        t = timed(execute, "compare", df, wl)
        rows.append({"sweep": "n_gm", "x": n_gms, "method": "compare",
                     "seconds": round(t, 3), "speedup_vs_naive": round(base / t, 2)})
        rows.append({"sweep": "n_gm", "x": n_gms, "method": "naive_sql",
                     "seconds": round(base, 3), "speedup_vs_naive": 1.0})
        df.unpersist()
    # (c) fixed total size, varying trend count (trend size shrinks)
    for n_trends in fixed_counts:
        df = _cached(sd.flights(spark, sf=sf, n_airports=n_trends, n_days=365))
        wl = flight_queries()["Q2"]
        base = timed(execute, "naive_sql", df, wl)
        t = timed(execute, "compare", df, wl)
        rows.append({"sweep": "fixed_size", "x": n_trends, "method": "compare",
                     "seconds": round(t, 3), "speedup_vs_naive": round(base / t, 2)})
        rows.append({"sweep": "fixed_size", "x": n_trends, "method": "naive_sql",
                     "seconds": round(base, 3), "speedup_vs_naive": 1.0})
        df.unpersist()
    return rows


if __name__ == "__main__":
    _common.main_wrapper("fig10_scaling", run)
