"""A small logical algebra hosting the COMPARE operator (paper §6).

PySpark cannot inject a Catalyst ``Rule[LogicalPlan]`` without compiling
Scala, so the paper's optimizer extensions are reproduced over this
Python algebra: rules in :mod:`repro.plan.rules` transform node trees,
and :mod:`repro.plan.lower` lowers a tree to DataFrames (Catalyst plans).

Nodes are immutable; ``cols`` exposes the output schema (column names)
so rules can check their preconditions without a catalog.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.spec import CompareSpec, Scorer, output_cols


@dataclass(frozen=True)
class Node:
    @property
    def cols(self) -> tuple[str, ...]:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def children(self) -> tuple["Node", ...]:
        return ()


@dataclass(frozen=True)
class Scan(Node):
    """A named base relation; ``columns`` is its schema."""

    name: str
    columns: tuple[str, ...]

    @property
    def cols(self) -> tuple[str, ...]:
        return self.columns


@dataclass(frozen=True)
class Filter(Node):
    """Conjunctive equality filter ``col = value [AND …]``."""

    child: Node
    preds: tuple[tuple[str, Any], ...]

    @property
    def cols(self) -> tuple[str, ...]:
        return self.child.cols

    @property
    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class Join(Node):
    """Inner equi-join; with ``fk_pk=True`` it is a declared PK-FK join
    (right side is the dimension, ``right_on`` its primary key)."""

    left: Node
    right: Node
    left_on: str
    right_on: str
    fk_pk: bool = False

    @property
    def cols(self) -> tuple[str, ...]:
        return self.left.cols + self.right.cols

    @property
    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class GroupAgg(Node):
    """Group-by aggregate; empty ``aggs`` means DISTINCT over ``keys``."""

    child: Node
    keys: tuple[str, ...]
    aggs: tuple[tuple[str, str, str], ...] = ()  # (agg_fn, col, alias)

    @property
    def cols(self) -> tuple[str, ...]:
        return self.keys + tuple(a[2] for a in self.aggs)

    @property
    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class Compare(Node):
    """The Φ logical operator."""

    child: Node
    spec: CompareSpec

    @property
    def cols(self) -> tuple[str, ...]:
        return tuple(output_cols(self.spec))

    @property
    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class Rename(Node):
    """Column rename on top of a node (used when Φ is pushed below a join)."""

    child: Node
    mapping: tuple[tuple[str, str], ...]  # (old, new)

    @property
    def cols(self) -> tuple[str, ...]:
        m = dict(self.mapping)
        return tuple(m.get(c, c) for c in self.child.cols)

    @property
    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class TopK(Node):
    """ORDER BY score LIMIT k with deterministic tie-breaks (§3.2)."""

    child: Node
    k: int
    ascending: bool = True

    @property
    def cols(self) -> tuple[str, ...]:
        return self.child.cols

    @property
    def children(self):
        return (self.child,)


def chain_stage_name(spec: CompareSpec) -> str:
    """Stable score-column name for a chain stage (survives R4 reorder)."""
    g, m = spec.gms[0]
    return f"score_{g}_{m.agg}_{m.col}".lower()


@dataclass(frozen=True)
class CompareChain(Node):
    """A chain of Φ operations over the same pair structure (§6 R4).

    Each stage scores the same candidate pairs with a different
    (grouping, measure)/scorer and keeps pairs whose score passes
    ``op τ`` (op ∈ {"<=", ">="}). Because a pair's score is independent
    of other pairs, stages commute; executing a more selective stage
    first shrinks the candidate set for the rest. ``selectivity`` is an
    optional optimizer hint per stage.
    """

    child: Node
    stages: tuple[tuple[CompareSpec, str, float], ...]
    selectivity: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        s0 = self.stages[0][0]
        for s, _, _ in self.stages[1:]:
            if (s.t1.terms, s.t2.terms) != (s0.t1.terms, s0.t2.terms):
                raise ValueError("CompareChain stages must share the pair structure")

    @property
    def cols(self) -> tuple[str, ...]:
        from repro.core.pairs import pair_key_cols

        names = sorted(chain_stage_name(s) for s, _, _ in self.stages)
        return tuple(pair_key_cols(self.stages[0][0])) + tuple(names)

    @property
    def children(self):
        return (self.child,)


# ---------------------------------------------------------------------------
# Verbose comparative sub-plan shapes (matched by R5).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairJoin(Node):
    """Trendset-level join between two aggregated sides on the grouping
    column, with the Fig. 3 trend-identity condition."""

    left: Node
    right: Node
    g: str
    spec_hint: Optional[CompareSpec] = field(default=None, compare=False)

    @property
    def cols(self) -> tuple[str, ...]:
        return self.left.cols + self.right.cols

    @property
    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class ScoreAgg(Node):
    """UDA scoring of a PairJoin output (SUM/AVG/MIN/MAX over DIFF(p))."""

    child: PairJoin
    scorer: Scorer
    grouping_label: str
    measure_label: str

    @property
    def cols(self) -> tuple[str, ...]:
        return ("grouping", "measure", "score")

    @property
    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class Union(Node):
    """UNION ALL."""

    inputs: tuple[Node, ...]

    @property
    def cols(self) -> tuple[str, ...]:
        return self.inputs[0].cols

    @property
    def children(self):
        return self.inputs


def transform(node: Node, fn) -> Node:
    """Bottom-up transform: apply ``fn`` to every node, replacing when
    ``fn`` returns a new node (None keeps the original)."""
    import dataclasses

    new_children = tuple(transform(c, fn) for c in node.children)
    if new_children != node.children:
        if isinstance(node, Union):
            node = dataclasses.replace(node, inputs=new_children)
        elif isinstance(node, (Join, PairJoin)):
            node = dataclasses.replace(node, left=new_children[0], right=new_children[1])
        else:
            node = dataclasses.replace(node, child=new_children[0])
    out = fn(node)
    return out if out is not None else node
