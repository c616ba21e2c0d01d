"""Join-order selection for chains of containment joins.

Given a chain ``s_1 // s_2 // ... // s_k`` the planner picks the
parenthesization minimizing the total estimated intermediate result size
(the classic optimizer objective the paper's introduction motivates).

Chain-segment cardinalities come from a pluggable
:class:`~repro.optimizer.generator.CardinalityGenerator`: the enumerator
asks the generator for the size of every segment ``i..j`` and never
assumes how that number is produced.  Wrapping a plain estimator in the
default adapter (:class:`~repro.optimizer.generator.EstimatorGenerator`)
reproduces the historical behavior exactly — adjacent pairs are
estimated, longer segments compose under the independence assumption::

    size(i..j) = size(i..j-1) · size(j-1, j) / |s_{j-1}|

— while the exact-oracle, service-backed and pessimistic upper-bound
generators plug in without touching the enumerator.  Dynamic programming
over segments then mirrors matrix-chain ordering.

:func:`optimize` is the generator-native entry point;
:func:`optimize_chain` is the deprecated estimator-argument shim kept
for backward compatibility.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.errors import PlanError
from repro.core.nodeset import NodeSet
from repro.core.workspace import Workspace
from repro.estimators.base import Estimator, _from_wire_float, _to_wire
from repro.optimizer.generator import PlanningState, as_generator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.catalog.catalog import StatisticsCatalog
    from repro.optimizer.generator import CardinalityGenerator

#: Wire-format version written by :meth:`JoinPlan.to_dict`.
PLAN_SCHEMA_VERSION = 1


@dataclass(frozen=True, slots=True)
class JoinPlan:
    """A parenthesization of the chain segment ``lo..hi`` (inclusive).

    Leaves (``lo == hi``) are base node sets; internal nodes join the
    results of ``left`` and ``right`` (adjacent segments).
    """

    lo: int
    hi: int
    estimated_size: float
    left: "JoinPlan | None" = None
    right: "JoinPlan | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.lo == self.hi

    def describe(self, names: Sequence[str]) -> str:
        """Human-readable plan, e.g. ``(paper ⋈ (appendix ⋈ table))``."""
        if self.is_leaf:
            return names[self.lo]
        assert self.left is not None and self.right is not None
        return (
            f"({self.left.describe(names)} ⋈ {self.right.describe(names)})"
        )

    def to_dict(self) -> dict[str, Any]:
        """Wire form of the plan tree, versioned with
        :data:`PLAN_SCHEMA_VERSION`.

        Strictly JSON-representable, following the same conventions as
        :meth:`repro.estimators.base.Estimate.to_dict`: non-finite sizes
        are encoded as the strings ``"Infinity"`` / ``"-Infinity"`` /
        ``"NaN"``.  Only the root carries ``schema_version``; subtrees
        are plain nodes.
        """

        def node(plan: "JoinPlan") -> dict[str, Any]:
            payload: dict[str, Any] = {
                "lo": plan.lo,
                "hi": plan.hi,
                "estimated_size": _to_wire(plan.estimated_size),
            }
            if not plan.is_leaf:
                assert plan.left is not None and plan.right is not None
                payload["left"] = node(plan.left)
                payload["right"] = node(plan.right)
            return payload

        return {"schema_version": PLAN_SCHEMA_VERSION, **node(self)}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "JoinPlan":
        """Rebuild a :class:`JoinPlan` from its :meth:`to_dict` form.

        Raises :class:`~repro.core.errors.PlanError` for a
        ``schema_version`` other than the int :data:`PLAN_SCHEMA_VERSION`,
        an index that is not an int >= 0 (bools and numeric strings
        included), and structurally invalid nodes (a leaf with children,
        an internal node missing one, or children that do not partition
        the segment).
        """
        if not isinstance(payload, dict):
            raise PlanError(
                f"plan payload must be a dict, got {type(payload).__name__}"
            )
        version = payload.get("schema_version")
        if type(version) is not int or version != PLAN_SCHEMA_VERSION:
            raise PlanError(
                f"unsupported JoinPlan schema_version {version!r} "
                f"(this version reads {PLAN_SCHEMA_VERSION})"
            )

        def node(data: Any) -> "JoinPlan":
            if not isinstance(data, dict):
                raise PlanError(
                    f"plan node must be a dict, got {type(data).__name__}"
                )
            try:
                lo, hi = data["lo"], data["hi"]
                size = _from_wire_float(data["estimated_size"])
            except (KeyError, TypeError, ValueError) as exc:
                raise PlanError(f"malformed plan node: {exc}") from exc
            if not all(type(x) is int and x >= 0 for x in (lo, hi)):
                raise PlanError(
                    f"plan node indices must be ints >= 0, got {lo!r}..{hi!r}"
                )
            if size is None:
                raise PlanError("plan node estimated_size cannot be null")
            if lo > hi:
                raise PlanError(f"plan node has lo {lo} > hi {hi}")
            left_data = data.get("left")
            right_data = data.get("right")
            if lo == hi:
                if left_data is not None or right_data is not None:
                    raise PlanError(
                        f"leaf plan node {lo} must not have children"
                    )
                return cls(lo, hi, size)
            if left_data is None or right_data is None:
                raise PlanError(
                    f"internal plan node {lo}..{hi} needs both children"
                )
            left = node(left_data)
            right = node(right_data)
            if (
                left.lo != lo
                or right.hi != hi
                or left.hi + 1 != right.lo
            ):
                raise PlanError(
                    f"children {left.lo}..{left.hi} and "
                    f"{right.lo}..{right.hi} do not partition {lo}..{hi}"
                )
            return cls(lo, hi, size, left, right)

        return node(payload)


def plan_cost(plan: JoinPlan) -> float:
    """Total estimated size of all *intermediate* results of ``plan``.

    The final (root) result is excluded: it is identical for every
    parenthesization and would only blur the comparison.
    """

    def internal_sizes(node: JoinPlan, is_root: bool) -> float:
        if node.is_leaf:
            return 0.0
        assert node.left is not None and node.right is not None
        own = 0.0 if is_root else node.estimated_size
        return (
            own
            + internal_sizes(node.left, False)
            + internal_sizes(node.right, False)
        )

    return internal_sizes(plan, True)


def optimize(
    node_sets: Sequence[NodeSet],
    generator: "CardinalityGenerator | Estimator | str" = "PL",
    *,
    workspace: Workspace | None = None,
    catalog: "StatisticsCatalog | None" = None,
    **config: Any,
) -> JoinPlan:
    """Pick the cheapest parenthesization of a containment-join chain.

    Args:
        node_sets: the chain ``s_1 // ... // s_k`` (k >= 2), outermost
            ancestor first.
        generator: a :class:`~repro.optimizer.generator
            .CardinalityGenerator`, a bare estimator (auto-wrapped in
            the pairwise adapter), or any name
            :func:`~repro.optimizer.generator.resolve_generator`
            accepts ("PL", "exact", "ubound", "pessimistic", ...).
        workspace: shared position domain (defaults per estimator call,
            matching the historical planner behavior).
        catalog: optional statistics catalog forwarded to the
            generator's ``setup_for_workload`` hook.
        **config: constructor arguments when ``generator`` is a name.

    Returns:
        the optimal :class:`JoinPlan` (ties keep the first split).

    Raises:
        PlanError: for chains shorter than two node sets, a ``pre_check``
            rejection, or a segment whose every split costs NaN or +inf.
    """
    k = len(node_sets)
    if k < 2:
        raise PlanError("chain optimization needs >= 2 node sets")

    gen = as_generator(generator, **config)
    gen.setup_for_workload(workspace, catalog)
    state = PlanningState(tuple(node_sets), workspace=workspace)
    gen.pre_check(state)

    # Flat tables indexed [i * k + j] for the segment s_i // ... // s_j,
    # sizes filled shortest-first so seeded samplers see one RNG stream.
    size = [0.0] * (k * k)
    for length in range(k):
        for i in range(k - length):
            size[i * k + i + length] = gen.estimate_join(i, i + length, state)

    # Matrix-chain DP; split[i * k + j] ends the winning left child.
    cost = [0.0] * (k * k)
    split = [0] * (k * k)
    for length in range(1, k):
        for i in range(k - length):
            j = i + length
            best, best_cost = -1, math.inf
            for s in range(i, j):
                subtotal = (
                    cost[i * k + s]
                    + cost[(s + 1) * k + j]
                    + (0.0 if s == i else size[i * k + s])
                    + (0.0 if s + 1 == j else size[(s + 1) * k + j])
                )
                if subtotal < best_cost:
                    best, best_cost = s, subtotal
            if best < 0:
                raise PlanError(
                    f"every split of segment {i}..{j} costs NaN or +inf"
                )
            cost[i * k + j] = best_cost
            split[i * k + j] = best

    def build(i: int, j: int) -> JoinPlan:
        if i == j:
            return JoinPlan(i, i, size[i * k + i])
        s = split[i * k + j]
        return JoinPlan(i, j, size[i * k + j], build(i, s), build(s + 1, j))

    return build(0, k - 1)


def optimize_chain(
    node_sets: Sequence[NodeSet],
    estimator: Estimator,
    workspace: Workspace | None = None,
) -> JoinPlan:
    """Deprecated estimator-argument planner entry point.

    Auto-wraps ``estimator`` in the pairwise adapter generator and
    delegates to :func:`optimize`; the resulting plan is bit-identical
    to what the pre-generator planner produced.  New code should call
    ``optimize(node_sets, estimator, workspace=workspace)`` (or pass a
    generator / generator name) directly.

    .. deprecated:: 1.6
        Use :func:`optimize` / :func:`repro.api.optimize` instead.
    """
    warnings.warn(
        "optimize_chain(node_sets, estimator) is deprecated; use "
        "optimize(node_sets, generator, workspace=...) which also "
        "accepts estimators and generator names",
        DeprecationWarning,
        stacklevel=2,
    )
    return optimize(node_sets, estimator, workspace=workspace)
