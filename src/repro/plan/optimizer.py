"""Algorithm 1 (merge-partition) and the rule driver (paper §4.2, §6).

``merge_partition`` greedily merges sub-plans — one per (grouping,
measure) initially — two at a time, keeping the merge that decreases
the cost-model estimate the most, until no merge helps. This is the
paper's Algorithm 1 at sub-plan granularity.

``optimize_tree`` is the rule driver: it repeatedly applies the §6
transformation rules bottom-up until a fixpoint.
"""
from __future__ import annotations

from repro.core.aggregates import MergeGroup
from repro.core.spec import CompareSpec

from . import rules as R
from .cost import TableStats, compare_plan_cost
from .logical import Node, transform


def merge_partition(spec: CompareSpec, stats: TableStats) -> list[MergeGroup]:
    """Greedy merge of per-(g, m) sub-plans (Algorithm 1)."""
    groups = [MergeGroup((gm,)) for gm in spec.gms]
    cost = compare_plan_cost(spec, groups, stats)
    while len(groups) > 1:
        best = None
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                merged = MergeGroup(groups[i].gms + groups[j].gms)
                cand = [g for idx, g in enumerate(groups) if idx not in (i, j)] + [merged]
                c = compare_plan_cost(spec, cand, stats)
                if c < cost and (best is None or c < best[0]):
                    best = (c, cand)
        if best is None:
            break
        cost, groups = best
    return groups


DEFAULT_RULES = (
    R.r5_verbose_to_compare,
    R.r1_push_compare_below_join,
    R.r2_dedup_below_compare,
    R.r3_predicate_pushdown,
    R.r4_reorder_chain,
)


#: rule passes before the driver gives up on reaching a fixpoint
MAX_PASSES = 10


def optimize_tree(node: Node) -> Node:
    """Apply :data:`DEFAULT_RULES` bottom-up to a fixpoint."""
    for _ in range(MAX_PASSES):
        new = node
        for rule in DEFAULT_RULES:
            new = transform(new, rule)
        if new == node:
            return node
        node = new
    return node
