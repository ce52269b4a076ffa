"""The §6 algebraic equivalence rules for Φ (paper Table 3).

Each rule is a function ``Node -> Node | None`` (None = no match) and is
driven to a fixpoint by :func:`repro.plan.optimizer.optimize_tree`.

R1  Φ(R ⋈ S) ≡ rename(Φ^fk(R)) ⋈-elided      (push Φ below a PK-FK join)
R2  Φ(R) ≡ Φ(dedup(R))                        (MIN/MAX measures only)
R3  σ_C(Φ(R)) ≡ σ_C(Φ(σ_{pruned}(R)))         (partition-pruning pushdown)
R4  Φ2(Φ1(R)) ≡ Φ1(Φ2(R))                     (reorder chained Φ, most selective first)
R5  verbose comparative sub-plan ≡ Φ(R)       (recognize and replace)
"""
from __future__ import annotations

import dataclasses

from repro.core.spec import (
    CompareSpec,
    ConstraintTerm,
    Measure,
    Scorer,
    TrendsetSpec,
)

from .logical import (
    Compare,
    CompareChain,
    Filter,
    GroupAgg,
    Join,
    Node,
    PairJoin,
    Rename,
    Scan,
    ScoreAgg,
    Union,
)


def _replace_col(spec: CompareSpec, old: str, new: str) -> CompareSpec:
    def fix_ts(ts: TrendsetSpec) -> TrendsetSpec:
        return TrendsetSpec(
            tuple(
                ConstraintTerm(new if t.col == old else t.col, t.value) for t in ts.terms
            )
        )

    gms = tuple(
        (new if g == old else g, Measure(m.agg, new if m.col == old else m.col))
        for g, m in spec.gms
    )
    return dataclasses.replace(spec, t1=fix_ts(spec.t1), t2=fix_ts(spec.t2), gms=gms)


def r1_push_compare_below_join(node: Node) -> Node | None:
    """Push Φ below a declared PK-FK join (Table 3, R1).

    Precondition: the only dimension-side column Φ references is the
    dimension's PK, and only in constraint terms (so output *values*
    are unchanged — PK values equal FK values under FK integrity; only
    output column *names* change, repaired by a Rename).
    """
    if not (isinstance(node, Compare) and isinstance(node.child, Join) and node.child.fk_pk):
        return None
    j, spec = node.child, node.spec
    dim_cols = set(j.right.cols)
    used_dim = set(spec.input_cols) & dim_cols
    if used_dim - {j.right_on}:
        return None  # Φ uses non-PK dimension columns
    if j.right_on in [g for g, _ in spec.gms] or j.right_on in [m.col for _, m in spec.gms]:
        return None  # PK used as grouping/measure: labels would change
    if j.right_on not in spec.input_cols:
        return None
    new_spec = _replace_col(spec, j.right_on, j.left_on)
    mapping = []
    for pre in ("l_", "r_"):
        if pre + j.left_on in [pre + t.col for t in (new_spec.t1 if pre == "l_" else new_spec.t2).terms]:
            mapping.append((pre + j.left_on, pre + j.right_on))
    return Rename(Compare(j.left, new_spec), tuple(mapping))


def r2_dedup_below_compare(node: Node) -> Node | None:
    """Push a duplicate-removing aggregate below Φ (Table 3, R2).

    Valid only when every measure aggregate is MIN or MAX (duplicate
    tuples do not change MIN/MAX).
    """
    if not isinstance(node, Compare):
        return None
    if any(m.agg not in ("MIN", "MAX") for _, m in node.spec.gms):
        return None
    child = node.child
    keys = node.spec.input_cols
    if isinstance(child, GroupAgg) and child.aggs == () and child.keys == keys:
        return None  # already deduped
    return Compare(GroupAgg(child, keys, ()), node.spec)


def r3_predicate_pushdown(node: Node) -> Node | None:
    """Partition-pruning pushdown of σ through Φ (Table 3, R3).

    When a filter above Φ pins *both* sides' value of a varying
    constraint column c (``l_c = v AND r_c = w``), only trends v and w
    of c can appear in the output, so ``c IN (v, w)`` is pushed into
    Φ's input. The original σ is kept (the pushed filter prunes
    partitions; it does not subsume the pair predicate).
    """
    if not (isinstance(node, Filter) and isinstance(node.child, Compare)):
        return None
    cmp_node = node.child
    spec = cmp_node.spec
    preds = dict(node.preds)
    pushed = []
    for c in set(spec.t1.vary_cols) & set(spec.t2.vary_cols):
        lv, rv = preds.get("l_" + c), preds.get("r_" + c)
        if lv is not None and rv is not None:
            vals = (lv,) if lv == rv else (lv, rv)
            pushed.append((c, vals))
    if not pushed:
        return None
    child = cmp_node.child
    if isinstance(child, Filter) and all(p in child.preds for p in pushed):
        return None  # already pushed
    inner = Filter(child, tuple(pushed))
    return Filter(Compare(inner, spec), node.preds)


def r4_reorder_chain(node: Node) -> Node | None:
    """Execute the most selective Φ of a chain first (Table 3, R4)."""
    if not isinstance(node, CompareChain) or not node.selectivity:
        return None
    order = sorted(range(len(node.stages)), key=lambda i: node.selectivity[i])
    if order == list(range(len(node.stages))):
        return None
    return dataclasses.replace(
        node,
        stages=tuple(node.stages[i] for i in order),
        selectivity=tuple(node.selectivity[i] for i in order),
    )


# ---------------------------------------------------------------------------
# R5: recognize the verbose comparative sub-plan.
# ---------------------------------------------------------------------------


def _extract_side(n: Node, g: str):
    """GroupAgg(Filter(Scan)|Scan) → (scan, TrendsetSpec, Measure) or None."""
    if not (isinstance(n, GroupAgg) and len(n.aggs) == 1):
        return None
    child = n.child
    fixed: tuple = ()
    if isinstance(child, Filter):
        fixed = child.preds
        child = child.child
    if not isinstance(child, Scan):
        return None
    if g not in n.keys:
        return None
    vary = tuple(c for c in n.keys if c != g and c not in dict(fixed))
    agg_fn, col, _ = n.aggs[0]
    terms = tuple(ConstraintTerm(c, v) for c, v in fixed) + tuple(
        ConstraintTerm(c) for c in vary
    )
    if not terms:
        return None
    return child, TrendsetSpec(terms), Measure(agg_fn, col)


def extract_scoreagg(sa: ScoreAgg):
    """ScoreAgg(PairJoin(side, side)) → (scan, single-gm CompareSpec)."""
    pj = sa.child
    if not isinstance(pj, PairJoin):
        return None
    s1 = _extract_side(pj.left, pj.g)
    s2 = _extract_side(pj.right, pj.g)
    if s1 is None or s2 is None:
        return None
    scan1, ts1, m1 = s1
    scan2, ts2, m2 = s2
    if scan1 != scan2 or m1 != m2:
        return None
    return scan1, CompareSpec(ts1, ts2, ((pj.g, m1),), sa.scorer)


def r5_verbose_to_compare(node: Node) -> Node | None:
    """Replace a verbose comparative sub-plan with Φ (Table 3, R5).

    Two shapes arise because the rule driver rewrites bottom-up: a raw
    ``ScoreAgg`` (one Fig. 3 subquery) becomes a single-(g, m) Φ, and a
    ``Union`` whose inputs were already rewritten to Φs over the same
    trendsets merges into one multi-(g, m) Φ.
    """
    if isinstance(node, Union) and all(isinstance(i, Compare) for i in node.inputs):
        cmp0 = node.inputs[0]
        gms = list(cmp0.spec.gms)
        for c in node.inputs[1:]:
            if c.child != cmp0.child or (c.spec.t1, c.spec.t2, c.spec.scorer) != (
                cmp0.spec.t1,
                cmp0.spec.t2,
                cmp0.spec.scorer,
            ):
                return None
            gms.extend(c.spec.gms)
        return Compare(cmp0.child, dataclasses.replace(cmp0.spec, gms=tuple(gms)))
    parts = None
    if isinstance(node, ScoreAgg):
        parts = [node]
    elif isinstance(node, Union) and all(isinstance(i, ScoreAgg) for i in node.inputs):
        parts = list(node.inputs)
    if not parts:
        return None
    extracted = [extract_scoreagg(sa) for sa in parts]
    if any(e is None for e in extracted):
        return None
    scan0, spec0 = extracted[0]
    gms = list(spec0.gms)
    for scan, spec in extracted[1:]:
        if scan != scan0 or (spec.t1, spec.t2, spec.scorer) != (
            spec0.t1,
            spec0.t2,
            spec0.scorer,
        ):
            return None
        gms.extend(spec.gms)
    merged = dataclasses.replace(spec0, gms=tuple(gms))
    return Compare(scan0, merged)
