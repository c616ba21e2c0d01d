"""Bandit method selection over the estimator registry.

The paper's estimators dominate on different workload regions — PL wins
where the position model holds, IM/PM win under skew the histogram
flattens, the closed-form bound is free but loose.  A :class:`Router`
picks, per *query class* (see :func:`repro.feedback.query_class`), which
arm answers each request, learning from the signed relative errors and
latencies the :class:`~repro.feedback.FeedbackStore` accumulated — the
Bao shape: a bandit over a few fixed, well-understood strategies rather
than a learned estimator.

Determinism contract — every router here is a *pure function of (seed,
feedback history)*: decisions read only the store's order-free
aggregates (counts and sums, which arrival order cannot change), ties
break on fixed candidate order, and the Thompson sampler derives its RNG
from ``(seed, query class, pull counts)``.  Serving the same trace
yields the same routes.

Routing is **off by default** (``EstimationService(router=None)``): the
service's bit-identity gates promise that a request for method X is
answered by method X, and a router deliberately breaks that promise —
so the caller must opt in, and the response discloses the choice in
``routed_method``.
"""

from __future__ import annotations

import abc
import math
import zlib
from typing import Any, Mapping, TYPE_CHECKING

import numpy as np

from repro.core.errors import FeedbackError
from repro.estimators.registry import canonical_name
from repro.feedback.store import FeedbackStore, MethodStats, query_class

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.request import EstimateRequest

__all__ = [
    "BOUND_METHOD",
    "DEFAULT_CANDIDATES",
    "Router",
    "StaticRouter",
    "ThompsonRouter",
    "UCB1Router",
]

#: The pseudo-method of the closed-form structural bound (Section 3.1).
#: Not a registry estimator — the service answers it inline from the
#: degradation ladder's bound rung — but a real arm: it costs one cached
#: O(|A|) scan, so a router may prefer it where every estimator is bad.
BOUND_METHOD = "BOUND"

#: The issue's canonical arm set: the paper's two models at a mid-range
#: sampling budget, the PL histogram, and the free bound.
DEFAULT_CANDIDATES: dict[str, dict[str, Any]] = {
    "PL": {"num_buckets": 16},
    "IM": {"num_samples": 64},
    "PM": {"num_samples": 64},
    BOUND_METHOD: {},
}


def _canonical_arm(method: str) -> str:
    if method.strip().upper() == BOUND_METHOD:
        return BOUND_METHOD
    return canonical_name(method)


class Router(abc.ABC):
    """Choose which method answers each request, per query class.

    Args:
        candidates: mapping ``method -> estimator config`` defining the
            arms (insertion order is the deterministic tie-break order).
            Methods resolve through the estimator registry; the special
            arm ``"BOUND"`` is the ladder's closed-form bound.  Defaults
            to :data:`DEFAULT_CANDIDATES`.
        seed: the router's RNG root (Thompson) — part of the purity
            contract even for routers that never sample.
        latency_weight: how many reward units one second of mean latency
            costs.  0.0 (the default) makes the reward pure accuracy,
            and therefore exactly reproducible across machines.
    """

    #: Canonical registry name, set by subclasses.
    name: str = ""

    def __init__(
        self,
        candidates: Mapping[str, Mapping[str, Any]] | None = None,
        *,
        seed: int = 0,
        latency_weight: float = 0.0,
    ) -> None:
        source = (
            candidates if candidates is not None else DEFAULT_CANDIDATES
        )
        if not source:
            raise FeedbackError("router needs at least one candidate arm")
        self.candidates: dict[str, dict[str, Any]] = {}
        for method, config in source.items():
            self.candidates[_canonical_arm(method)] = dict(config)
        self.arms: tuple[str, ...] = tuple(self.candidates)
        self.seed = int(seed)
        if latency_weight < 0:
            raise FeedbackError(
                f"latency_weight must be >= 0, got {latency_weight}"
            )
        self.latency_weight = float(latency_weight)

    # ------------------------------------------------------------------
    # Reward
    # ------------------------------------------------------------------

    def reward(self, stats: MethodStats | None) -> float | None:
        """An arm's observed reward in one class, or None untried.

        ``accuracy − latency_weight · mean latency`` with accuracy
        ``1 / (1 + mean |signed relative error|)`` ∈ (0, 1] — computed
        from the store's order-free sums only, never the EWMA (which
        depends on arrival order and would break the purity contract).
        """
        if stats is None or stats.truth_count == 0:
            return None
        accuracy = 1.0 / (1.0 + stats.abs_error_sum / stats.truth_count)
        return accuracy - self.latency_weight * stats.mean_latency_s

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def choose(
        self, query_class: str, stats: Mapping[str, MethodStats]
    ) -> str:
        """Pick an arm for one request of ``query_class``.

        ``stats`` maps method name to that class's aggregates (absent =
        never tried).  Must be a pure function of
        ``(self.seed, query_class, stats)``.
        """

    def route(
        self,
        request: "EstimateRequest",
        store: FeedbackStore | None,
    ) -> tuple[str, dict[str, Any]]:
        """The ``(method, config)`` that should answer ``request``.

        The chosen arm's config is copied; a stochastic arm inherits the
        request's explicit ``seed`` when the candidate config does not
        pin one, so routed requests stay memoizable and reproducible
        exactly when the originals were.
        """
        qc = query_class(request.ancestors, request.descendants)
        stats = store.method_stats(qc) if store is not None else {}
        method = self.choose(qc, stats)
        if method not in self.candidates:
            raise FeedbackError(
                f"router {self.name or type(self).__name__} chose "
                f"{method!r}, not one of its arms {self.arms}"
            )
        config = dict(self.candidates[method])
        request_seed = request.config.get("seed")
        if (
            method != BOUND_METHOD
            and request_seed is not None
            and "seed" not in config
        ):
            # Deterministic estimators take no seed parameter; only the
            # stochastic arms inherit the caller's RNG pin.
            from repro.service.request import _STOCHASTIC_METHODS

            if method in _STOCHASTIC_METHODS:
                config["seed"] = request_seed
        return method, config

    def describe(self) -> dict[str, Any]:
        """Introspection payload for ``stats()`` and bench reports."""
        return {
            "name": self.name or type(self).__name__,
            "arms": list(self.arms),
            "seed": self.seed,
            "latency_weight": self.latency_weight,
        }

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _pulls(
        self, stats: Mapping[str, MethodStats], arm: str
    ) -> tuple[int, int]:
        """(times chosen, times rewarded) for one arm."""
        cell = stats.get(arm)
        if cell is None:
            return 0, 0
        return cell.count, cell.truth_count

    def _least_tried(
        self, stats: Mapping[str, MethodStats]
    ) -> str | None:
        """The arm to explore next: fewest rewards, then fewest pulls,
        then candidate order — or None when every arm has a reward."""
        best: tuple[int, int, int] | None = None
        choice: str | None = None
        for index, arm in enumerate(self.arms):
            count, rewarded = self._pulls(stats, arm)
            if rewarded > 0:
                continue
            key = (rewarded, count, index)
            if best is None or key < best:
                best = key
                choice = arm
        return choice


class StaticRouter(Router):
    """The no-op baseline: every request goes to one pinned method.

    Useful as the control arm in regret benchmarks and as an explicit
    "routing off, but through the routing plumbing" mode in tests.
    """

    name = "STATIC"

    def __init__(
        self,
        candidates: Mapping[str, Mapping[str, Any]] | None = None,
        *,
        method: str = "PL",
        seed: int = 0,
        latency_weight: float = 0.0,
    ) -> None:
        super().__init__(
            candidates, seed=seed, latency_weight=latency_weight
        )
        self.method = _canonical_arm(method)
        if self.method not in self.candidates:
            raise FeedbackError(
                f"static method {self.method!r} is not a candidate arm "
                f"(have {self.arms})"
            )

    def choose(
        self, query_class: str, stats: Mapping[str, MethodStats]
    ) -> str:
        return self.method

    def describe(self) -> dict[str, Any]:
        return {**super().describe(), "method": self.method}


class UCB1Router(Router):
    """Upper-confidence-bound selection (Auer et al.'s UCB1).

    Per class: arms without any reward observation are explored first
    (fewest pulls, then candidate order); once every arm has a reward,
    the arm maximizing ``mean reward + c · sqrt(2 ln N / n)`` wins, ties
    broken by candidate order.  Fully deterministic given the feedback
    aggregates.

    Args:
        exploration: the ``c`` multiplier on the confidence radius
            (1.0 = textbook UCB1; smaller exploits earlier).
    """

    name = "UCB1"

    def __init__(
        self,
        candidates: Mapping[str, Mapping[str, Any]] | None = None,
        *,
        seed: int = 0,
        latency_weight: float = 0.0,
        exploration: float = 1.0,
    ) -> None:
        super().__init__(
            candidates, seed=seed, latency_weight=latency_weight
        )
        if exploration < 0:
            raise FeedbackError(
                f"exploration must be >= 0, got {exploration}"
            )
        self.exploration = float(exploration)

    def choose(
        self, query_class: str, stats: Mapping[str, MethodStats]
    ) -> str:
        unexplored = self._least_tried(stats)
        if unexplored is not None:
            return unexplored
        total = sum(
            self._pulls(stats, arm)[1] for arm in self.arms
        )
        log_total = math.log(max(total, 2))
        best_arm = self.arms[0]
        best_value = -math.inf
        for arm in self.arms:
            cell = stats.get(arm)
            mean = self.reward(cell)
            assert mean is not None  # _least_tried returned None
            radius = self.exploration * math.sqrt(
                2.0 * log_total / cell.truth_count
            )
            value = mean + radius
            if value > best_value:
                best_value = value
                best_arm = arm
        return best_arm


class ThompsonRouter(Router):
    """Gaussian Thompson sampling over the arm rewards.

    Per decision, each arm's reward is sampled from a Normal posterior
    ``N(mean, scale / sqrt(n + 1))`` (optimistic prior mean
    ``prior_mean`` for unrewarded arms) and the best sample wins.  The
    RNG is *derived*, not stateful: seeded from ``(router seed, query
    class, per-arm pull counts)``, so the draw — and therefore the
    decision — is a pure function of (seed, feedback history),
    independent of the order the feedback arrived in.
    """

    name = "THOMPSON"

    def __init__(
        self,
        candidates: Mapping[str, Mapping[str, Any]] | None = None,
        *,
        seed: int = 0,
        latency_weight: float = 0.0,
        prior_mean: float = 1.0,
        scale: float = 0.5,
    ) -> None:
        super().__init__(
            candidates, seed=seed, latency_weight=latency_weight
        )
        if scale <= 0:
            raise FeedbackError(f"scale must be > 0, got {scale}")
        self.prior_mean = float(prior_mean)
        self.scale = float(scale)

    def choose(
        self, query_class: str, stats: Mapping[str, MethodStats]
    ) -> str:
        pulls = [self._pulls(stats, arm) for arm in self.arms]
        rng = np.random.default_rng(
            [
                self.seed & 0x7FFFFFFF,
                zlib.crc32(query_class.encode("utf-8")),
                *(rewarded for _, rewarded in pulls),
                *(count for count, _ in pulls),
            ]
        )
        draws = rng.standard_normal(len(self.arms))
        best_arm = self.arms[0]
        best_value = -math.inf
        for index, arm in enumerate(self.arms):
            mean = self.reward(stats.get(arm))
            rewarded = pulls[index][1]
            center = self.prior_mean if mean is None else mean
            sigma = self.scale / math.sqrt(rewarded + 1.0)
            value = center + sigma * float(draws[index])
            if value > best_value:
                best_value = value
                best_arm = arm
        return best_arm
