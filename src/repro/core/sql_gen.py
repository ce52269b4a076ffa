"""Verbose SQL generator for comparative queries (paper Fig. 3).

Emits the UNION-ALL-of-subqueries formulation a user would write
without the COMPARE extension — one subquery per (grouping, measure),
each with two group-by aggregates, a trendset-level join on the
grouping column, and scorer aggregation.

Two dialects:

* ``spark``  — executed via ``spark.sql`` as the "unmodified DBMS"
  baseline (what Catalyst does with the un-extended query);
* ``duckdb`` — executed by :mod:`repro.oracle` as the correctness
  oracle for every COMPARE strategy.

Both produce the canonical output schema ``l_*, r_*, grouping,
measure, score`` so results are directly comparable.
"""
from __future__ import annotations

from .spec import CompareSpec, GM, TrendsetSpec, side_prefix


def _lit(v) -> str:
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    return repr(v)


def _constraint_exprs(spec: CompareSpec, side: int, alias: str) -> list[str]:
    ts = spec.t1 if side == 1 else spec.t2
    exprs = []
    for col in sorted(ts.cols):
        term = next(t for t in ts.terms if t.col == col)
        exprs.append(f"{alias}.{col}" if term.varies else _lit(term.value))
    return exprs


def _pair_cond(spec: CompareSpec) -> str | None:
    """Trend-identity condition, expanded to scalar comparisons so both
    dialects apply numeric type coercion to literals."""
    a = _constraint_exprs(spec, 1, "a")
    b = _constraint_exprs(spec, 2, "b")
    if spec.dedup_symmetric:
        cond = f"{a[-1]} < {b[-1]}"
        for x, y in zip(reversed(a[:-1]), reversed(b[:-1])):
            cond = f"({x} < {y} OR ({x} = {y} AND ({cond})))"
        return cond
    if spec.exclude_equal:
        eq = " AND ".join(f"{x} = {y}" for x, y in zip(a, b))
        return f"NOT ({eq})"
    return None


def _side_subquery(table: str, ts: TrendsetSpec, gm: GM) -> str:
    g, m = gm
    where = " AND ".join(f"{t.col} = {_lit(t.value)}" for t in ts.fixed)
    keys = ", ".join(list(ts.vary_cols) + [g])
    sel = (", ".join(ts.vary_cols) + ", ") if ts.vary_cols else ""
    q = (
        f"SELECT {sel}{g} AS __g, {m.agg}({m.col}) AS __v FROM {table}"
        + (f" WHERE {where}" if where else "")
        + f" GROUP BY {keys}"
    )
    return q


def _gm_subquery(spec: CompareSpec, gm: GM, table: str, dialect: str) -> str:
    g, m = gm
    p = spec.scorer.p
    l_sel, out_keys = [], []
    for side, ts, alias in ((1, spec.t1, "a"), (2, spec.t2, "b")):
        pre = side_prefix(side)
        for t in ts.terms:
            if t.varies:
                l_sel.append(f"{alias}.{t.col} AS {pre}{t.col}")
                out_keys.append(pre + t.col)
            else:
                l_sel.append(f"{_lit(t.value)} AS {pre}{t.col}")
    cond = f"a.__g = b.__g"
    pc = _pair_cond(spec)
    if pc:
        cond += f" AND {pc}"
    inner = (
        f"SELECT {', '.join(l_sel)}, POW(ABS(a.__v - b.__v), {p}) AS __diff "
        f"FROM ({_side_subquery(table, spec.t1, gm)}) a "
        f"JOIN ({_side_subquery(table, spec.t2, gm)}) b ON {cond}"
    )
    const_sel = []
    for side, ts in ((1, spec.t1), (2, spec.t2)):
        pre = side_prefix(side)
        for t in ts.terms:
            const_sel.append(pre + t.col)
    # "grouping" is a reserved function name in both dialects: quote it
    gq = '"grouping"' if dialect == "duckdb" else "`grouping`"
    outer_sel = (
        ", ".join(const_sel)
        + f", {_lit(g)} AS {gq}, {_lit(m.name)} AS measure"
        + f", {spec.scorer.agg}(__diff) AS score"
    )
    # group by every constraint output column (fixed ones are constants, but
    # both dialects require all non-aggregated columns in the GROUP BY; with
    # empty input a grouped aggregate correctly emits zero rows)
    q = f"SELECT {outer_sel} FROM ({inner}) t GROUP BY {', '.join(const_sel)}"
    return q


def verbose_sql(spec: CompareSpec, table: str = "R", dialect: str = "duckdb") -> str:
    """The full Fig.-3-style query: UNION ALL over (g, m) subqueries."""
    if dialect not in ("duckdb", "spark"):
        raise ValueError(f"unknown dialect {dialect!r}")
    return "\nUNION ALL\n".join(_gm_subquery(spec, gm, table, dialect) for gm in spec.gms)


def topk_sql(spec: CompareSpec, k: int, ascending: bool, table: str = "R", dialect: str = "duckdb") -> str:
    """Top-k wrapper (§3.2): deterministic order by score then identity."""
    from .spec import output_cols

    direction = "ASC" if ascending else "DESC"
    order = ", ".join(["score " + direction] + [c for c in output_cols(spec) if c != "score"])
    return (
        f"SELECT * FROM (\n{verbose_sql(spec, table, dialect)}\n) u "
        f"ORDER BY {order} LIMIT {k}"
    )
