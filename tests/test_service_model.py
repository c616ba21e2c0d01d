"""A stateful model of the service's lifecycle: one caller, one batch.

A :class:`hypothesis.stateful.RuleBasedStateMachine` drives one
:class:`~repro.service.EstimationService` (and a routed twin) through
``map`` bursts, ``estimate``, ``submit``, deadlines, clock advances,
estimator faults and ``close``.  After every step it compares the
service with a plain model that shares no code with the engine: a dict
for the memo, a list per signature group and a three-field breaker.
The model holds the service to this:

* every request gets exactly one response, in order;
* an ok answer equals ``repro.estimate`` bit for bit;
* a key answered ok is a memo hit when it is asked again;
* the requests of one burst that share a key, a deadline and a
  staleness bound run once (``service.inflight_hits`` counts the
  others), so a failing key costs one factory call per burst;
* signature groups run in first-arrival order, in chunks of at most
  ``max_batch``: the factory sees the runnable requests in exactly that
  order;
* a degraded answer names the reason and rung the model predicts;
* the counters, the ``degraded_by`` breakdown and the breaker states
  equal the model's;
* after ``close`` every entry point raises ``ServiceError``.

Time is a fake clock.  Inside a call its first reading, the burst's
admission, returns the call's start, and every later reading returns
the start plus the call's ``lag``: the burst ages by ``lag`` between
admission and its batches, and every estimator run takes no time, so
no answer degrades with reason ``"predicted"``.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import hypothesis
import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

import repro
from repro.core.errors import ServiceError
from repro.datasets import generate_xmark
from repro.estimators.bounds import join_size_bounds
from repro.estimators.registry import make_estimator
from repro.router.base import StaticRouter
from repro.service import EstimateRequest, EstimationService, wire

#: The request pool: seeded IM under two signatures, PL (deterministic)
#: under two, an unseeded IM (never memoized) and an IM seeded from a
#: sequence (valid, but its memo key cannot be hashed).
POOL = (
    ("IM", {"num_samples": 10, "seed": 1}),
    ("IM", {"num_samples": 10, "seed": 2}),
    ("IM", {"num_samples": 20, "seed": 1}),
    ("PL", {"num_buckets": 4}),
    ("PL", {"num_buckets": 8}),
    ("IM", {"num_samples": 10}),
    ("IM", {"num_samples": 10, "seed": [1, 2]}),
)
#: No deadline (twice as likely), one every lag passes, one none does.
DEADLINES = (None, None, 0.002, 5.0)
#: How long a burst ages between its admission and its batches.
LAGS = (0.0, 0.003)
COOLOFF_S = 1.0
#: The routed twin's router sends every request to IM with these
#: samples, keeping the request's seed.
ROUTED_SAMPLES = 10


@functools.lru_cache(maxsize=None)
def _world() -> tuple[Any, Any, Any]:
    """The operands (XMark ``item`` and ``name``) and a catalog that
    holds both tags, so the ladder's catalog rung can answer."""
    dataset = generate_xmark(scale=0.05, seed=101)
    catalog = repro.build_catalog(dataset, 400, tags=["item", "name"])
    return dataset.node_set("item"), dataset.node_set("name"), catalog


_DIRECT: dict[str, float] = {}


def _direct(method: str, config: dict[str, Any]) -> float:
    """``repro.estimate``'s answer for the model's operands."""
    name = repr((method, sorted(config.items())))
    if name not in _DIRECT:
        a, d, __ = _world()
        _DIRECT[name] = repro.estimate(a, d, method, **config).value
    return _DIRECT[name]


@dataclass(frozen=True)
class _Spec:
    """One request as the model sees it."""

    method: str
    config: dict[str, Any]
    deadline_s: float | None
    request_id: str

    @property
    def seeded(self) -> bool:
        return self.method != "IM" or self.config.get("seed") is not None

    @property
    def key(self) -> Any:
        """The memo key: None for fresh randomness or an unhashable seed."""
        if not self.seeded or isinstance(self.config.get("seed"), list):
            return None
        return self.method, tuple(sorted(self.config.items()))

    @property
    def signature(self) -> Any:
        return self.method, tuple(
            sorted(item for item in self.config.items() if item[0] != "seed")
        )

    def request(self) -> EstimateRequest:
        a, d, __ = _world()
        return EstimateRequest(
            a,
            d,
            self.method,
            config=dict(self.config),
            deadline_s=self.deadline_s,
            request_id=self.request_id,
        )


@dataclass(frozen=True)
class _Answer:
    status: str
    reason: str | None
    rung: str
    value: float | None  # None: a fresh random answer
    batch_size: int
    missed: bool


class _Breaker:
    """Consecutive failures, when the breaker opened, and whether its
    half-open probe is out."""

    def __init__(self) -> None:
        self.failures = 0
        self.opened_at: float | None = None
        self.probing = False

    def allow(self, now: float) -> bool:
        if self.opened_at is None:
            return True
        if now - self.opened_at < COOLOFF_S or self.probing:
            return False
        self.probing = True
        return True

    def record(self, ok: bool, now: float, threshold: int) -> None:
        self.probing = False
        if ok:
            self.failures, self.opened_at = 0, None
            return
        self.failures += 1
        if self.failures >= threshold:
            self.opened_at = now

    def state(self, now: float) -> str:
        if self.opened_at is None:
            return "closed"
        return "half-open" if now - self.opened_at >= COOLOFF_S else "open"


class _Model:
    """What one service should have answered, counted and called."""

    def __init__(
        self, max_batch: int, threshold: int, fallback: tuple[str, float]
    ) -> None:
        self.max_batch = max_batch
        self.threshold = threshold
        self.fallback = fallback  # the ladder's rung and value
        self.memo: dict[Any, float] = {}
        self.counts: Counter[str] = Counter()
        self.degraded_by: dict[str, dict[str, int]] = {}
        self.breakers: dict[str, _Breaker] = {}
        self.calls: list[tuple[str, dict[str, Any]]] = []

    def burst(
        self, specs: list[_Spec], start: float, lag: float, failing: bool
    ) -> list[_Answer]:
        later = start + lag
        answers: dict[str, _Answer] = {}
        pending = []
        for spec in specs:
            if spec.key is not None and spec.key in self.memo:
                answers[spec.request_id] = _Answer(
                    "ok", None, "requested", self.memo[spec.key], 1, False
                )
                self.counts["memo_hits"] += 1
            else:
                pending.append(spec)
        riders: dict[str, list[_Spec]] = {}
        firsts: dict[Any, _Spec] = {}
        runs = []
        for spec in pending:
            if spec.key is not None:
                first = firsts.setdefault((spec.key, spec.deadline_s), spec)
                if first is not spec:
                    riders[first.request_id].append(spec)
                    self.counts["inflight_hits"] += 1
                    continue
                riders[spec.request_id] = []
            runs.append(spec)
        groups: dict[Any, list[_Spec]] = {}
        for spec in runs:
            groups.setdefault(spec.signature, []).append(spec)
        for group in groups.values():
            for at in range(0, len(group), self.max_batch):
                batch = group[at:at + self.max_batch]
                self._batch(batch, riders, start, later, failing, answers)
        self.counts["responses"] += len(specs)
        return [answers[spec.request_id] for spec in specs]

    def _batch(
        self,
        batch: list[_Spec],
        riders: dict[str, list[_Spec]],
        start: float,
        later: float,
        failing: bool,
        answers: dict[str, _Answer],
    ) -> None:
        self.counts["batches"] += 1
        breaker = self.breakers.setdefault(batch[0].method, _Breaker())
        runnable = []
        for spec in batch:
            reason = None
            if spec.deadline_s is not None:
                if later >= start + spec.deadline_s:
                    reason = "deadline"
                elif not breaker.allow(later):
                    reason = "breaker"
            if reason is None:
                runnable.append(spec)
                continue
            rung, value = self.fallback
            for done in (spec, *riders.get(spec.request_id, ())):
                by_reason = self.degraded_by.setdefault(done.method, {})
                by_reason[reason] = by_reason.get(reason, 0) + 1
                answers[done.request_id] = _Answer(
                    "degraded",
                    reason,
                    rung,
                    value,
                    len(batch),
                    done.deadline_s is not None
                    and later > start + done.deadline_s,
                )
        if not runnable:
            return
        if failing:
            # The factory raises on the batch's first runnable request.
            self.calls.append((runnable[0].method, runnable[0].config))
            rung, value = self.fallback
            for spec in runnable:
                for done in (spec, *riders.get(spec.request_id, ())):
                    by_reason = self.degraded_by.setdefault(done.method, {})
                    by_reason["error"] = by_reason.get("error", 0) + 1
                    answers[done.request_id] = _Answer(
                        "degraded", "error", rung, value, len(batch), False
                    )
            breaker.record(False, later, self.threshold)
            return
        for spec in runnable:
            self.calls.append((spec.method, spec.config))
            value = _direct(spec.method, spec.config) if spec.seeded else None
            if spec.key is not None:
                self.memo[spec.key] = value
            for done in (spec, *riders.get(spec.request_id, ())):
                answers[done.request_id] = _Answer(
                    "ok", None, "requested", value, len(batch), False
                )
        breaker.record(True, later, self.threshold)


class _LagClock:
    """A fake monotonic clock.  While ``lag`` is set, the next reading
    returns ``now`` and moves the clock ``lag`` ahead."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now
        self.lag = 0.0

    def __call__(self) -> float:
        now = self.now
        if self.lag:
            self.now, self.lag = now + self.lag, 0.0
        return now


class _SwitchFactory:
    """An ``estimator_factory`` that logs every call and raises while
    ``failing`` is set."""

    def __init__(self) -> None:
        self.failing = False
        self.log: list[tuple[str, dict[str, Any]]] = []

    def __call__(self, method: str, **config: Any) -> Any:
        self.log.append((method, config))
        if self.failing:
            raise RuntimeError("injected estimator fault")
        return make_estimator(method, **config)


_picks = st.integers(0, len(POOL) - 1)


class ServiceModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.clock = _LagClock()
        self.factory = _SwitchFactory()
        self.routed_factory = _SwitchFactory()
        self.ids = itertools.count()
        self.closed = False

    @initialize(
        max_batch=st.sampled_from([1, 2, 3, 16]),
        threshold=st.sampled_from([1, 2, 3]),
        catalog=st.booleans(),
    )
    def open(self, max_batch: int, threshold: int, catalog: bool) -> None:
        a, d, catalog_ = _world()
        self.service = EstimationService(
            max_batch=max_batch,
            catalog=catalog_ if catalog else None,
            breaker_threshold=threshold,
            breaker_cooloff_s=COOLOFF_S,
            estimator_factory=self.factory,
            clock=self.clock,
        )
        router = StaticRouter(
            {"IM": {"num_samples": ROUTED_SAMPLES}, "PL": {"num_buckets": 4}},
            method="IM",
        )
        self.routed = EstimationService(
            max_batch=max_batch,
            router=router,
            estimator_factory=self.routed_factory,
            clock=lambda: 0.0,
        )
        fallback = (
            ("catalog", catalog_.estimate_join("item", "name").value)
            if catalog
            else ("bound", float(join_size_bounds(a, d).upper))
        )
        self.model = _Model(max_batch, threshold, fallback)
        self.routed_model = _Model(max_batch, threshold, fallback)

    def teardown(self) -> None:
        for service in (getattr(self, "service", None),
                        getattr(self, "routed", None)):
            if service is not None:
                service.close()

    # -- helpers ------------------------------------------------------

    def _spec(self, pick: int, deadline_s: float | None = None) -> _Spec:
        method, config = POOL[pick]
        return _Spec(method, config, deadline_s, f"r{next(self.ids)}")

    def _call(self, call: Callable[[], Any], lag: float) -> Any:
        """``call()`` aged by ``lag``; None (after checking that it
        raised ServiceError) once the service is closed."""
        self.clock.lag = lag
        try:
            if self.closed:
                with pytest.raises(ServiceError):
                    call()
                return None
            return call()
        finally:
            self.clock.lag = 0.0

    @staticmethod
    def _check(
        responses: list[Any],
        answers: list[_Answer],
        routed_method: str | None = None,
    ) -> None:
        assert len(responses) == len(answers)
        for response, answer in zip(responses, answers):
            got = (
                response.status,
                response.degraded_reason,
                response.ladder_name,
                response.batch_size,
                response.deadline_missed,
                response.routed_method,
            )
            assert got == (
                answer.status,
                answer.reason,
                answer.rung,
                answer.batch_size,
                answer.missed,
                routed_method,
            )
            if answer.value is not None:
                assert response.estimate.value == answer.value

    def _run(
        self, specs: list[_Spec], call: Callable[[], Any], lag: float
    ) -> list[Any] | None:
        start = self.clock.now
        responses = self._call(call, lag)
        if responses is None:
            return None
        answers = self.model.burst(specs, start, lag, self.factory.failing)
        self._check(responses, answers)
        return responses

    # -- rules --------------------------------------------------------

    @rule(
        picks=st.lists(
            st.tuples(_picks, st.sampled_from(DEADLINES)), max_size=8
        ),
        lag=st.sampled_from(LAGS),
    )
    def map_burst(self, picks: list[tuple[int, Any]], lag: float) -> None:
        specs = [self._spec(pick, deadline_s) for pick, deadline_s in picks]
        requests = [spec.request() for spec in specs]
        responses = self._run(specs, lambda: self.service.map(requests), lag)
        if responses is not None:
            assert [r.request_id for r in responses] == [
                spec.request_id for spec in specs
            ]

    @rule(
        pick=_picks,
        deadline_s=st.sampled_from(DEADLINES),
        lag=st.sampled_from(LAGS),
    )
    def estimate_one(self, pick: int, deadline_s: Any, lag: float) -> None:
        spec = self._spec(pick, deadline_s)
        a, d, __ = _world()
        self._run(
            [spec],
            lambda: [
                self.service.estimate(
                    a, d, spec.method, deadline_s=deadline_s, **spec.config
                )
            ],
            lag,
        )

    @rule(
        pick=_picks,
        deadline_s=st.sampled_from(DEADLINES),
        lag=st.sampled_from(LAGS),
    )
    def submit_one(self, pick: int, deadline_s: Any, lag: float) -> None:
        spec = self._spec(pick, deadline_s)

        def submit() -> list[Any]:
            future = self.service.submit(request=spec.request())
            assert future.done()  # answered before submit returns
            return [future.result()]

        responses = self._run([spec], submit, lag)
        if responses is not None:
            assert responses[0].request_id == spec.request_id

    @rule(picks=st.lists(_picks, max_size=6))
    def routed_burst(self, picks: list[int]) -> None:
        """The static router sends each request to IM, keeping its
        seed; the burst admits one request at a time."""
        originals = [self._spec(pick) for pick in picks]
        specs = []
        for spec in originals:
            config = {"num_samples": ROUTED_SAMPLES}
            if spec.config.get("seed") is not None:
                config["seed"] = spec.config["seed"]
            specs.append(_Spec("IM", config, None, spec.request_id))
        requests = [spec.request() for spec in originals]
        responses = self._call(lambda: self.routed.map(requests), 0.0)
        if responses is None:
            return
        self.routed_model.counts["routed"] += len(specs)
        answers = self.routed_model.burst(specs, 0.0, 0.0, False)
        self._check(responses, answers, routed_method="IM")

    @rule(dt=st.sampled_from([0.5, 1.5]))
    def advance(self, dt: float) -> None:
        """Time passes between calls: past cool-offs, never mid-call."""
        self.clock.now += dt

    @rule(on=st.booleans())
    def faults(self, on: bool) -> None:
        self.factory.failing = on

    @rule()
    def close(self) -> None:
        self.service.close()
        self.routed.close()
        self.closed = True
        a, d, __ = _world()
        request = self._spec(0).request()
        for call in (
            lambda: self.service.map([request]),
            lambda: self.service.submit(request=request),
            lambda: self.service.estimate(a, d, "PL", num_buckets=4),
            lambda: self.service.estimate_wire(wire.encode_request(request)),
            lambda: self.routed.map([request]),
        ):
            with pytest.raises(ServiceError):
                call()

    # -- the comparison ----------------------------------------------

    @invariant()
    def agrees_with_model(self) -> None:
        for service, model, factory in (
            (self.service, self.model, self.factory),
            (self.routed, self.routed_model, self.routed_factory),
        ):
            stats = service.stats()
            counters = stats["counters"]
            for name in ("responses", "memo_hits", "inflight_hits", "batches"):
                assert counters.get(f"service.{name}", 0) == model.counts[
                    name
                ], name
            assert stats["degraded_by"] == model.degraded_by
            assert factory.log == model.calls
            assert stats["closed"] == self.closed
        assert self.routed.stats()["counters"].get(
            "service.routed.IM", 0
        ) == self.routed_model.counts["routed"]
        now = self.clock.now
        assert {
            method: breaker["state"]
            for method, breaker in self.service.stats()["breakers"].items()
        } == {
            method: breaker.state(now)
            for method, breaker in self.model.breakers.items()
        }


class TestServiceModel(ServiceModel.TestCase):
    settings = hypothesis.settings(
        max_examples=100, stateful_step_count=30, deadline=None
    )


@pytest.mark.slow
class TestServiceModelNightly(ServiceModel.TestCase):
    """The model with a larger example budget (qa-nightly runs it)."""

    settings = hypothesis.settings(
        max_examples=1000, stateful_step_count=50, deadline=None
    )
