"""Pluggable cardinality generation for the join-order planner.

The planner (:mod:`repro.optimizer.planner`) does not consume a bare
estimator any more — it consumes a :class:`CardinalityGenerator`: a
meta-strategy the enumerator calls for the size of any chain *segment*,
in the shape PostBOUND gives its ``JoinBoundCardinalityEstimator``
(setup / estimate / describe).  That indirection is what lets every
estimation path in the package drive planning through one interface:

* :class:`EstimatorGenerator` — any registered estimator (resolved
  through the alias-aware registry) estimates adjacent pairs, longer
  segments composed under the conventional independence assumption;
* :class:`ServiceGenerator` — pair estimates served by an
  :class:`~repro.service.engine.EstimationService`, deadline-aware:
  under pressure the planner gets the service's degraded answer instead
  of blocking the optimization pass;
* :class:`ExactGenerator` — exact segment sizes
  (:func:`~repro.optimizer.chain.chain_join_size`), the oracle baseline
  every other generator's *plan regret* is scored against;
* :class:`BoundGenerator` — a pessimistic upper-bound generator in the
  UES/AGM style: chain-segment sizes are guaranteed enclosures composed
  from measured per-step fan-out maxima
  (:func:`~repro.estimators.bounds.containment_fanout_bounds`), never
  the independence fan-out — so no plan it costs is ever built on an
  underestimate.

Generators are resolved by name through :func:`resolve_generator`
(case-insensitive, aliased, with the same nearest-match candidate lists
the estimator registry produces); every estimator name is accepted and
wraps itself in an :class:`EstimatorGenerator`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, ClassVar

from repro.core.errors import (
    PlanError,
    UnknownEstimatorError,
    UnknownGeneratorError,
)
from repro.core.nodeset import NodeSet
from repro.core.workspace import Workspace
from repro.estimators.base import Estimator
from repro.estimators.bounds import (
    containment_fanout_bounds,
    refined_join_bound,
)
from repro.estimators.registry import (
    available_estimators,
    canonical_name,
    make_estimator,
    nearest_names,
)
from repro.feedback import runtime as _feedback
from repro.optimizer.chain import chain_join_size
from repro.service.request import EstimateRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.catalog.catalog import StatisticsCatalog
    from repro.service.engine import EstimationService

__all__ = [
    "BoundGenerator",
    "CardinalityGenerator",
    "EstimatorGenerator",
    "ExactGenerator",
    "PairwiseGenerator",
    "PlanningState",
    "ServiceGenerator",
    "as_generator",
    "available_generators",
    "canonical_generator_name",
    "resolve_generator",
]


@dataclass
class PlanningState:
    """Everything one planning pass shares with its generator.

    Attributes:
        node_sets: the chain's leaves, outermost ancestor first.
        workspace: the shared position domain, or None to let each
            underlying estimator default per call (the historical
            planner behavior, preserved so adapter-wrapped estimators
            plan bit-identically to the legacy path).
        names: display names for the leaves (tag predicates).
        scratch: per-pass memo space, keyed by (or by a tuple holding)
            each generator's ``id`` so two generators sharing a state
            never collide: the pairwise generators' pair memo, the
            exact oracle's segment memo, the bound generator's table.
    """

    node_sets: tuple[NodeSet, ...]
    workspace: Workspace | None = None
    names: tuple[str, ...] = ()
    scratch: dict[Any, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.node_sets = tuple(self.node_sets)
        if not self.names:
            # getattr: leaves are not validated here — pre_check owns
            # rejecting non-NodeSet leaves with a typed PlanError.
            self.names = tuple(
                getattr(s, "name", None) or f"s{i}"
                for i, s in enumerate(self.node_sets)
            )

    @property
    def size(self) -> int:
        return len(self.node_sets)


class CardinalityGenerator(abc.ABC):
    """The planner-facing estimation interface (a meta-strategy).

    The join enumerator calls :meth:`estimate_join` for the cardinality
    of the chain segment ``lo..hi`` (inclusive leaf indices) of the
    state's node sets.  How that number is produced — statistics,
    sampling, a service round-trip, an exact join, a provable bound —
    is entirely the generator's business.

    Lifecycle per planning pass: :meth:`setup_for_workload` once (with
    the shared workspace and an optional statistics catalog), then
    :meth:`pre_check` on the concrete state, then
    :meth:`setup_for_query` once on the same state, then any number of
    ``estimate_join`` calls.  All four must be idempotent: the planner
    guarantees nothing about how often, or in which order relative to
    :meth:`describe`, they run, and direct callers of
    ``estimate_join`` (the twig estimator) skip ``setup_for_query``.
    """

    #: Display name used in plans, reports and bench artifacts.
    name: ClassVar[str] = "?"

    def setup_for_workload(
        self,
        workspace: Workspace | None,
        catalog: "StatisticsCatalog | None" = None,
    ) -> None:
        """Prepare internal structures for a workload (optional hook)."""

    def pre_check(self, state: PlanningState) -> None:
        """Validate a concrete planning state (optional hook).

        The default rejects states whose leaves are not node sets;
        subclasses may add stricter contracts.  Raise
        :class:`~repro.core.errors.PlanError` to refuse the workload.
        """
        for index, node_set in enumerate(state.node_sets):
            if not isinstance(node_set, NodeSet):
                raise PlanError(
                    f"planning leaf {index} is not a NodeSet: "
                    f"{type(node_set).__name__}"
                )

    def setup_for_query(self, state: PlanningState) -> None:
        """Prepare for one planning pass over ``state`` (optional hook).

        Runs after :meth:`pre_check`, before the first ``estimate_join``
        of the pass; the default does nothing.  A generator that can
        answer a whole chain at once fetches it here, into
        ``state.scratch``.
        """

    @abc.abstractmethod
    def estimate_join(
        self, lo: int, hi: int, state: PlanningState
    ) -> float:
        """Estimated cardinality of the chain segment ``lo..hi``.

        ``lo == hi`` is a leaf: its cardinality is exact by definition
        and every generator must return ``len(state.node_sets[lo])``.
        """

    def describe(self) -> dict[str, Any]:
        """JSON-safe self-description for reports and plan artifacts."""
        return {"generator": self.name, "kind": type(self).__name__}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class PairwiseGenerator(CardinalityGenerator):
    """Base for generators that natively estimate *adjacent pairs* only.

    Longer segments compose under the independence assumption the
    optimizer literature conventionally makes, multiplied left to right
    exactly as the pre-generator planner did (the adapter plans
    bit-identically)::

        size(i..j) = pair(i) · f(i+1) · ... · f(j-1), f(m) = pair(m) / |s_m|

    where ``f(m)`` is 0.0 for an empty ``s_m``, whose pair is never
    asked for.  Each pair is estimated at most once per planning pass,
    in the order segments first reach it, and memoized in
    ``state.scratch`` under ``id(self)``: the pair table, keyed by the
    pair's left leaf index.
    """

    @abc.abstractmethod
    def estimate_pair(self, index: int, state: PlanningState) -> float:
        """Estimated ``|s_index ⋈ s_index+1|`` (clamped to >= 0)."""

    def estimate_join(
        self, lo: int, hi: int, state: PlanningState
    ) -> float:
        if lo == hi:
            return float(len(state.node_sets[lo]))
        pairs = state.scratch.get(id(self))
        if pairs is None:
            pairs = state.scratch[id(self)] = {}
        size = pairs.get(lo)
        if size is None:
            size = pairs[lo] = max(0.0, self.estimate_pair(lo, state))
        for m in range(lo + 1, hi):
            base = len(state.node_sets[m])
            if base:
                pair = pairs.get(m)
                if pair is None:
                    pair = pairs[m] = max(0.0, self.estimate_pair(m, state))
            size *= pair / base if base else 0.0
        return size


class EstimatorGenerator(PairwiseGenerator):
    """Adapter: any registered estimator drives the planner.

    Args:
        estimator: an :class:`~repro.estimators.base.Estimator`
            instance, or any name/alias the estimator registry resolves
            ("PL", "pl-histogram", "im-da", ...).
        **config: constructor arguments when ``estimator`` is a name
            (``num_buckets=``, ``num_samples=``, ``seed=``, ...);
            rejected when an instance is passed.
    """

    def __init__(self, estimator: Estimator | str, **config: Any) -> None:
        if isinstance(estimator, str):
            self.estimator = make_estimator(estimator, **config)
        else:
            if config:
                raise PlanError(
                    "EstimatorGenerator takes **config only with a "
                    f"method name, got an instance plus {sorted(config)}"
                )
            self.estimator = estimator
        self.name = self.estimator.name
        self._config = dict(config)

    def estimate_pair(self, index: int, state: PlanningState) -> float:
        return self.estimator.estimate(
            state.node_sets[index],
            state.node_sets[index + 1],
            state.workspace,
        ).value

    def describe(self) -> dict[str, Any]:
        return {
            "generator": self.name,
            "kind": type(self).__name__,
            "estimator": self.estimator.name,
            "config": {k: repr(v) for k, v in sorted(self._config.items())},
        }


class ServiceGenerator(PairwiseGenerator):
    """Pair estimates served by an :class:`EstimationService`.

    Every pair estimate is one service request — memoized, micro-batched
    and deadline-guarded by the service.  Under the planner a chain of
    ``k`` sets costs one call: :meth:`setup_for_query` sends its ``k-1``
    pair requests, in index order, as one
    :meth:`~repro.service.engine.EstimationService.map` burst, which
    answers the memo hits in one pass, and fills the pair table the DP
    reads.  A direct ``estimate_join`` caller that skipped the hook asks
    for each pair as it needs it, one request per pair.

    With ``deadline_s`` set the planner never stalls on a slow
    estimator: a request that cannot finish in time returns the
    service's degraded answer (catalog or structural bound) and the
    pass keeps moving.  The pairs of one chain are admitted together,
    so each one's deadline counts from the chain's admission: once the
    chain's early pairs use up the budget, its later pairs degrade.

    Args:
        service: the running service (``workers=0`` caller-runs mode
            works and is the embedded-optimizer shape).
        method: estimator name forwarded to the service.
        deadline_s: per-request deadline, or None for full fidelity.
        **config: estimator configuration forwarded with each request.
    """

    def __init__(
        self,
        service: "EstimationService",
        method: str = "PL",
        *,
        deadline_s: float | None = None,
        **config: Any,
    ) -> None:
        self.service = service
        self.method = canonical_name(method)
        self.deadline_s = deadline_s
        self.config = dict(config)
        self.name = f"SERVICE-{self.method}"
        self.requests = 0
        self.degraded = 0

    def setup_for_query(self, state: PlanningState) -> None:
        pairs = state.scratch.setdefault(id(self), {})
        missing = [i for i in range(state.size - 1) if i not in pairs]
        if missing:
            values = self._request_pairs(missing, state)
            for index, value in zip(missing, values):
                pairs[index] = max(0.0, value)

    def estimate_pair(self, index: int, state: PlanningState) -> float:
        return self._request_pairs([index], state)[0]

    def _request_pairs(
        self, indices: list[int], state: PlanningState
    ) -> list[float]:
        """Estimate the pairs at ``indices`` with one service call."""
        sets = state.node_sets
        responses = self.service.map(
            [
                EstimateRequest(
                    sets[index],
                    sets[index + 1],
                    self.method,
                    state.workspace,
                    self.config,
                    self.deadline_s,
                )
                for index in indices
            ]
        )
        self.requests += len(responses)
        values = []
        for response in responses:
            if response.status != "ok":
                self.degraded += 1
            values.append(response.estimate.value)
        return values

    def describe(self) -> dict[str, Any]:
        return {
            "generator": self.name,
            "kind": type(self).__name__,
            "method": self.method,
            "deadline_s": self.deadline_s,
            "requests": self.requests,
            "degraded": self.degraded,
            "config": {k: repr(v) for k, v in sorted(self.config.items())},
        }


class ExactGenerator(CardinalityGenerator):
    """The oracle: exact chain sizes for every segment.

    Planning with it yields the true-cardinality-optimal plan, so its
    plan regret is 0 by construction — the baseline the regret
    benchmark scores every other generator against.  Costs real joins
    at plan time; a baseline, not a production strategy.
    """

    name = "EXACT"

    def estimate_join(
        self, lo: int, hi: int, state: PlanningState
    ) -> float:
        if lo == hi:
            return float(len(state.node_sets[lo]))
        memo = state.scratch.setdefault(("exact", id(self)), {})
        cached = memo.get((lo, hi))
        if cached is None:
            cached = float(
                chain_join_size(state.node_sets[lo : hi + 1])
            )
            memo[(lo, hi)] = cached
            if hi == lo + 1 and _feedback.enabled():
                # An exact pair size is ground truth: feed it to the
                # ambient feedback store so every estimate recorded for
                # the same operand pair gains its error signal.
                _feedback.observe_truth(
                    state.node_sets[lo], state.node_sets[hi], cached
                )
        return cached


class BoundGenerator(CardinalityGenerator):
    """Pessimistic upper-bound generator (UES/AGM style).

    Composes *per-step* guarantees instead of independence fan-outs.
    With ``out(i)`` / ``in(i)`` the measured fan-out maxima of the
    adjacent pair ``(s_i, s_{i+1})``
    (:func:`~repro.estimators.bounds.containment_fanout_bounds`) the
    segment bound ``U`` is the tightest of the sound compositions::

        U(i,i)   = |s_i|
        U(i,i+1) = refined_join_bound(s_i, s_{i+1})
        U(i,j)   = min( U(i,j-1) · out(j-1),       extend right
                        U(i+1,j) · in(i),          extend left
                        min_k U(i,k) · U(k+1,j) )  AGM-style split

    Every composition bounds a sum of per-element fan-outs by its
    maximum (or a chain set by a cross product it embeds into), so
    ``U(i,j) >= |s_i ⋈ ... ⋈ s_j|`` holds for *any* data — the plans it
    costs can be conservative, never catastrophically underestimated.
    """

    name = "UBOUND"

    def estimate_join(
        self, lo: int, hi: int, state: PlanningState
    ) -> float:
        table = state.scratch.get(("ubound", id(self)))
        if table is None:
            table = self._build_table(state)
            state.scratch[("ubound", id(self))] = table
        return float(table[(lo, hi)])

    def _build_table(self, state: PlanningState) -> dict[tuple[int, int], int]:
        sets = state.node_sets
        k = len(sets)
        fan = [
            containment_fanout_bounds(sets[i], sets[i + 1])
            for i in range(k - 1)
        ]
        table: dict[tuple[int, int], int] = {
            (i, i): len(sets[i]) for i in range(k)
        }
        for i in range(k - 1):
            table[(i, i + 1)] = refined_join_bound(sets[i], sets[i + 1])
        for length in range(3, k + 1):
            for i in range(k - length + 1):
                j = i + length - 1
                best = min(
                    table[(i, j - 1)] * fan[j - 1].max_fanout,
                    table[(i + 1, j)] * fan[i].max_fanin,
                )
                for split in range(i, j):
                    best = min(
                        best, table[(i, split)] * table[(split + 1, j)]
                    )
                table[(i, j)] = best
        return table

    def describe(self) -> dict[str, Any]:
        return {
            "generator": self.name,
            "kind": type(self).__name__,
            "style": "pessimistic-upper-bound",
            "compositions": ["fanout", "fanin", "split"],
        }


# ----------------------------------------------------------------------
# Name resolution
# ----------------------------------------------------------------------

_GENERATORS: dict[str, Callable[..., CardinalityGenerator]] = {
    "EXACT": ExactGenerator,
    "UBOUND": BoundGenerator,
}

#: Longer / paper-style generator names accepted as synonyms (uppercased).
_GENERATOR_ALIASES: dict[str, str] = {
    "ORACLE": "EXACT",
    "EXACT-ORACLE": "EXACT",
    "TRUE": "EXACT",
    "BOUND": "UBOUND",
    "UPPER-BOUND": "UBOUND",
    "PESSIMISTIC": "UBOUND",
    "UES": "UBOUND",
    "AGM": "UBOUND",
}


def available_generators() -> list[str]:
    """Canonical names accepted by :func:`resolve_generator`.

    The native generator names plus every estimator registry name (each
    of which resolves to an :class:`EstimatorGenerator`).
    """
    return sorted({*_GENERATORS, *available_estimators()})


def canonical_generator_name(name: str) -> str:
    """Resolve any accepted spelling to a canonical generator name.

    Estimator names and aliases are accepted and resolve to their
    canonical estimator name.  Unknown names raise
    :class:`~repro.core.errors.UnknownGeneratorError` listing every
    available name plus the closest candidates from *both* pools, the
    same contract :func:`repro.estimators.registry.canonical_name`
    gives for estimators.
    """
    key = name.strip().upper()
    key = _GENERATOR_ALIASES.get(key, key)
    if key in _GENERATORS:
        return key
    try:
        return canonical_name(key)
    except UnknownEstimatorError:
        pass
    candidates = nearest_names(
        name,
        available_generators(),
        {**_GENERATOR_ALIASES},
    )
    if not candidates:
        hint = ""
    elif len(candidates) == 1:
        hint = f"; did you mean {candidates[0]!r}?"
    else:
        listed = ", ".join(repr(c) for c in candidates[:-1])
        hint = f"; did you mean {listed} or {candidates[-1]!r}?"
    raise UnknownGeneratorError(
        name,
        candidates,
        f"unknown cardinality generator {name!r}; available: "
        f"{', '.join(available_generators())}{hint}",
    )


def resolve_generator(name: str, **config: Any) -> CardinalityGenerator:
    """Instantiate a cardinality generator by name or alias (any case).

    >>> resolve_generator("exact").name
    'EXACT'
    >>> resolve_generator("pessimistic").name
    'UBOUND'
    >>> resolve_generator("pl-histogram", num_buckets=20).name
    'PL'
    """
    canonical = canonical_generator_name(name)
    factory = _GENERATORS.get(canonical)
    if factory is not None:
        return factory(**config)
    return EstimatorGenerator(canonical, **config)


def as_generator(
    source: "CardinalityGenerator | Estimator | str", **config: Any
) -> CardinalityGenerator:
    """Coerce any accepted estimation source into a generator.

    Accepts a generator (returned as-is), an estimator instance
    (wrapped in an :class:`EstimatorGenerator`), or a name resolved by
    :func:`resolve_generator`.
    """
    if isinstance(source, CardinalityGenerator):
        if config:
            raise PlanError(
                "generator configuration must be passed to the "
                f"generator's constructor, got extra {sorted(config)}"
            )
        return source
    if isinstance(source, str):
        return resolve_generator(source, **config)
    if isinstance(source, Estimator) or hasattr(source, "estimate"):
        return EstimatorGenerator(source, **config)
    raise PlanError(
        "expected a CardinalityGenerator, an Estimator or a generator "
        f"name, got {type(source).__name__}"
    )
