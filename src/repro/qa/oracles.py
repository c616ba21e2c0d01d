"""Differential and metamorphic oracles for the qa runner.

Every oracle takes one generated :class:`~repro.qa.generators.Case` and
raises :class:`OracleFailure` (with a human-readable message) when the
code under test violates its contract.  The runner treats *any*
exception escaping an oracle as a failure, shrinks the case against it,
and records a reproducer.

The oracles cover the layers named in the ROADMAP's production story:

* ``exact-join`` — the three pair-producing join algorithms agree with
  each other and with the count-only size.
* ``estimator-contract`` — every registered estimator returns a finite,
  non-negative estimate that survives the versioned wire round-trip, or
  rejects the input with a *typed* :class:`~repro.core.errors.ReproError`.
* ``batched-vs-sequential`` — ``estimate_trials`` / ``estimate_across``
  are bit-for-bit equal to per-call ``estimate()`` streams.
* ``cached-vs-uncached`` — ambient SummaryCache/IndexCache installation
  never changes a value, and a third identical call hits the cache.
* ``service-vs-direct`` — ``repro.serve()`` answers match direct
  ``repro.api.estimate`` calls bit-for-bit, and degraded answers keep
  the ladder's invariants (always answered, flagged, bound encloses the
  exact size).
* ``fused-vs-reference`` — the fused single-pass kernels
  (:mod:`repro.kernels.fused`) equal the paper's per-call
  index_build→probe composition (:mod:`repro.qa.reference`)
  bit-for-bit, on every probe backend and every cache tier.
* ``wire-roundtrip`` — the binary zero-copy wire format and the JSON
  compatibility form round-trip every request/response exactly, and
  the service answers both formats of one seeded request identically.
* ``feedback-transparency`` — a service with a router and feedback
  store attached (but no correction model) answers every request
  bit-identically to direct ``repro.api.estimate`` with the routed
  arm's configuration — the closed loop observes and redirects, it
  never changes a value — and every recorded outcome carries the
  pre-registered exact size; a second store bounded below the rounds
  routes and aggregates identically, keeps features on every row it
  retains and drops exactly the rounds past its bound.
* ``incremental-vs-rebuild`` — churning the case's merged element pool
  through a seeded :class:`~repro.stream.MutationFeed` into a
  :class:`~repro.stream.LiveWorkspace` and, beside it, into the
  paper's maintained synopses (:mod:`repro.maintenance`) keeps each of
  them (the node set itself, coverage bounds, PL both roles, PH cell
  grid, dynamic T-tree stabbing counts) identical to a from-scratch
  rebuild after *every* batch — integer statistics bit-exact, float
  ``total_length`` to 1e-12 relative — and the reservoir a subset of
  the live population.
* ``planner-invariance`` — the join-order planner's output is a pure
  function of (chain, generator config): calling ``describe()`` or
  repeating ``setup_for_workload`` before/around planning never changes
  the plan, and the plan survives its wire round-trip.  A
  service-backed generator, which sends each chain's pairs as one
  burst, plans bit for bit like one direct estimate per pair.
* ``metamorphic`` — region-code translation/dilation invariance,
  ancestor-union additivity, duplication scaling, A/D disjointness.
* ``parser-fuzz`` / ``validator-fuzz`` — the invalid-input corpus is
  rejected with typed errors; random valid XML round-trips through the
  serializer with identical region codes.
* ``wire-fuzz`` — seeded structural mutations of the case's binary and
  JSON request payloads (truncation, frame dtype/shape/offset lies,
  dropped header keys, out-of-range field indices, non-integer code
  lists, and code-list text JSON forbids: a leading zero or ``+``, an
  empty field, a leading or trailing comma) are rejected with
  :class:`~repro.core.errors.ServiceError`.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Any, Callable, Sequence

import numpy as np

from repro import api
from repro.core.element import Element
from repro.core.errors import ReproError
from repro.core.nodeset import NodeSet
from repro.core.rng import make_rng
from repro.core.workspace import Workspace
from repro.estimators.base import Estimate
from repro.estimators.bounds import join_size_bounds
from repro.estimators.registry import available_estimators, make_estimator
from repro.estimators.sampling_base import SamplingEstimator
from repro.join import (
    containment_join_size,
    merge_join,
    nested_loop_join,
    stack_tree_join,
)
from repro.maintenance import (
    DynamicTTree,
    IncrementalCellHistogram,
    IncrementalPLHistogram,
    ReservoirSample,
)
from repro.optimizer.generator import PairwiseGenerator, PlanningState
from repro.perf import IndexCache, SummaryCache, use_cache, use_index_cache
from repro.qa.generators import (
    Case,
    disjoint_operands,
    invalid_element_corpus,
    invalid_xml_corpus,
    random_xml,
)
from repro.service.engine import EstimationService
from repro.service.request import EstimateRequest
from repro.xmltree.parser import parse_xml
from repro.xmltree.serializer import to_xml

#: Methods whose estimate is a pure function of (operands, config).
DETERMINISTIC_METHODS = frozenset({"PL", "PH", "COV", "WAVELET"})

#: Relative tolerance for metamorphic equalities on deterministic
#: estimators: translation/dilation shift the float bucket boundaries,
#: so the last few ulps may differ even though the computation is the
#: same; anything beyond 1e-6 relative is a real bucket-assignment bug,
#: not rounding.
METAMORPHIC_RTOL = 1e-6


class OracleFailure(AssertionError):
    """An oracle's contract was violated by the case under test."""


def _fail(oracle: str, message: str) -> None:
    raise OracleFailure(f"[{oracle}] {message}")


def method_config(
    method: str, case: Case, seed: int = 11
) -> dict[str, Any] | None:
    """A valid configuration for ``method`` on this case's operand sizes.

    Returns None when the method cannot be configured meaningfully for
    the case (never happens with the current registry, kept for
    forward compatibility).  Sample counts are clamped to the smaller
    operand so without-replacement draws are always legal.
    """
    samples = max(1, min(len(case.ancestors), len(case.descendants)) // 2)
    if method == "PL":
        return {"num_buckets": 8}
    if method == "PH":
        return {"num_cells": 5}
    if method == "COV":
        return {"num_buckets": 8}
    if method == "WAVELET":
        return {"num_coefficients": 8}
    if method == "SKETCH":
        return {"num_counters": 64, "seed": seed}
    if method == "HYBRID":
        return {"num_buckets": 8, "num_samples": samples, "seed": seed}
    # The sampling family shares the num_samples/seed shape.
    return {"num_samples": samples, "seed": seed}


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------


def check_exact_join(case: Case) -> None:
    """The three exact joins and the count-only size must agree."""
    a, d = case.ancestors, case.descendants

    def key(pair):
        ancestor, descendant = pair
        return (ancestor.start, ancestor.end, descendant.start)

    naive = sorted(nested_loop_join(a, d), key=key)
    merge = sorted(merge_join(a, d), key=key)
    stack = sorted(stack_tree_join(a, d), key=key)
    if naive != merge:
        _fail("exact-join", "merge_join disagrees with nested_loop_join")
    if naive != stack:
        _fail("exact-join", "stack_tree_join disagrees with nested_loop_join")
    size = containment_join_size(a, d)
    if size != len(naive):
        _fail(
            "exact-join",
            f"containment_join_size={size} but joins produce "
            f"{len(naive)} pairs",
        )
    bounds = join_size_bounds(a, d)
    if not (bounds.lower <= size <= bounds.upper):
        _fail(
            "exact-join",
            f"exact size {size} outside structural bounds "
            f"[{bounds.lower}, {bounds.upper}]",
        )


def check_estimator_contract(case: Case) -> None:
    """Every registered estimator answers sanely on a valid input."""
    for method in available_estimators():
        config = method_config(method, case)
        if config is None:
            continue
        try:
            result = api.estimate(
                case.ancestors,
                case.descendants,
                method,
                workspace=case.workspace,
                **config,
            )
        except ReproError:
            # A typed rejection is a legal contract outcome.
            continue
        except Exception as error:  # untyped crash = finding
            _fail(
                "estimator-contract",
                f"{method} raised untyped {type(error).__name__}: {error}",
            )
        value = result.value
        if not math.isfinite(value) or value < 0.0:
            _fail(
                "estimator-contract",
                f"{method} returned invalid value {value!r}",
            )
        rebuilt = Estimate.from_dict(result.to_dict())
        if rebuilt.value != value or rebuilt.estimator != result.estimator:
            _fail(
                "estimator-contract",
                f"{method} estimate does not survive the wire "
                f"round-trip: {value!r} -> {rebuilt.value!r}",
            )


def check_summary_geometry(case: Case) -> None:
    """``bucket_of`` and PL's edges agree with the ``buckets()`` tiling.

    The histogram estimators' correctness rests on one geometric fact:
    the ``count`` equal-width buckets tile ``[lo, hi]`` exactly and
    ``bucket_of(p)`` returns the unique tile containing ``p``.  Checking
    the two public APIs against each other catches off-by-one bucket
    boundary bugs that the value-level oracles cannot see (a consistent
    shift hits the cached and uncached paths identically).  A built PL
    histogram computes its edges without ``buckets()``, so its
    ``wss``/``wse`` must equal that tiling exactly, and its descendant
    counts a ``bucket_of`` tally of the descendant starts.
    """
    from repro.estimators.pl_histogram import PLHistogram

    w = case.workspace
    positions = sorted(
        {
            int(p)
            for nodes in (case.ancestors, case.descendants)
            for arr in (nodes.starts, nodes.sorted_ends)
            for p in arr
            if w.contains(int(p))
        }
        | {w.lo, w.hi}
    )
    for count in (1, 2, 3, 7):
        buckets = w.buckets(count)
        if len(buckets) != count:
            _fail(
                "summary-geometry",
                f"buckets({count}) returned {len(buckets)} buckets",
            )
        # The right edge is built incrementally (lo + count * (width /
        # count)), so it may differ from lo + width by float rounding.
        right_edge_ok = math.isclose(
            buckets[-1].wse, w.lo + w.width, rel_tol=METAMORPHIC_RTOL
        )
        if buckets[0].wss != w.lo or not right_edge_ok:
            _fail(
                "summary-geometry",
                f"buckets({count}) do not span the workspace: "
                f"[{buckets[0].wss}, {buckets[-1].wse}) vs "
                f"[{w.lo}, {w.lo + w.width})",
            )
        for left, right in zip(buckets, buckets[1:]):
            if left.wse != right.wss:
                _fail(
                    "summary-geometry",
                    f"buckets({count}) leave a gap between "
                    f"{left.index} and {right.index}",
                )
        for p in positions:
            index = w.bucket_of(p, count)
            bucket = buckets[index]
            inside = bucket.wss <= p < bucket.wse or (
                index == count - 1 and p <= w.hi
            )
            if not inside:
                _fail(
                    "summary-geometry",
                    f"bucket_of({p}, {count}) = {index} but bucket "
                    f"{index} is [{bucket.wss}, {bucket.wse})",
                )
        tiling = ([b.wss for b in buckets], [b.wse for b in buckets])
        tally = [0] * count
        for p in case.descendants.starts.tolist():
            if w.contains(p):
                tally[w.bucket_of(p, count)] += 1
        histograms = (
            PLHistogram.build_ancestor(case.ancestors, w, count),
            PLHistogram.build_descendant(case.descendants, w, count),
        )
        for histogram in histograms:
            if (histogram.wss.tolist(), histogram.wse.tolist()) != tiling:
                _fail(
                    "summary-geometry",
                    f"PL {histogram.role} edges for {count} buckets "
                    f"{histogram.wss.tolist()} / {histogram.wse.tolist()} "
                    f"differ from buckets({count}) {tiling}",
                )
        if histograms[1].n.tolist() != tally:
            _fail(
                "summary-geometry",
                f"PL descendant counts {histograms[1].n.tolist()} for "
                f"{count} buckets differ from the bucket_of tally {tally}",
            )


def check_estimate_vs_exact(case: Case) -> None:
    """Full-sample IM collapses to the exact size on disjoint operands.

    With ``num_samples >= |D|`` and without replacement the IM sample is
    the whole descendant set and the scale factor is 1, so the estimate
    is ``sum_d stab(d.start)`` — which equals the exact join size
    whenever no element sits on both sides (the paper's model; a shared
    element's own start stabs its own interval while the strict join
    excludes the self-pair).  This is a bit-for-bit differential check
    of the entire stab-probe machinery against the join algorithms.
    """
    a, d = disjoint_operands(case)
    if set(a.elements) & set(d.elements):
        # Every descendant is also an ancestor; the identity's
        # precondition cannot be met for this case.
        return
    exact = containment_join_size(a, d)
    for backend in ("rank", "ttree", "xrtree"):
        value = make_estimator(
            "IM", num_samples=len(d), seed=1, backend=backend
        ).estimate(a, d, case.workspace).value
        if value != float(exact):
            _fail(
                "estimate-vs-exact",
                f"full-sample IM[{backend}] gave {value!r}, exact is "
                f"{exact}",
            )


def check_batched_vs_sequential(case: Case, trials: int = 4) -> None:
    """``estimate_trials``/``estimate_across`` ≡ sequential ``estimate``.

    Bit-for-bit: same values in the same order, for every registered
    sampling estimator, both for one instance batched over ``trials``
    and for ``trials`` fresh instances batched across.
    """
    a, d, w = case.ancestors, case.descendants, case.workspace
    for method in available_estimators():
        config = method_config(method, case)
        probe = make_estimator(method, **config)
        if not isinstance(probe, SamplingEstimator):
            continue
        sequential = [
            make_estimator(method, **config).estimate(a, d, w).value
            for __ in range(trials)
        ]
        # estimate_trials shares one generator across trials; the
        # sequential twin must consume the same stream.
        seq_stream_est = make_estimator(method, **config)
        seq_stream = [
            seq_stream_est.estimate(a, d, w).value for __ in range(trials)
        ]
        batched = make_estimator(method, **config).estimate_trials(
            a, d, trials, w
        )
        if [r.value for r in batched] != seq_stream:
            _fail(
                "batched-vs-sequential",
                f"{method}.estimate_trials({trials}) != sequential "
                f"estimate() stream",
            )
        across = SamplingEstimator.estimate_across(
            [make_estimator(method, **config) for __ in range(trials)],
            a,
            d,
            w,
        )
        if [r.value for r in across] != sequential:
            _fail(
                "batched-vs-sequential",
                f"{method}.estimate_across over {trials} fresh instances "
                f"!= their solo estimates",
            )


def check_cached_vs_uncached(case: Case) -> None:
    """Ambient caches must never change a value, only its cost.

    A cache stores an entry on its second miss, so the cached calls
    run three times: the first builds without storing, the second
    stores, and the third must hit for every method that consulted a
    cache at all — the stored histograms and the stab-count table
    gather are then diffed against the uncached value too.
    """
    a, d, w = case.ancestors, case.descendants, case.workspace
    for method in available_estimators():
        config = method_config(method, case)
        try:
            plain = api.estimate(a, d, method, workspace=w, **config)
        except ReproError:
            continue
        caches = (SummaryCache(), IndexCache())
        with use_cache(caches[0]), use_index_cache(caches[1]):
            cold = api.estimate(a, d, method, workspace=w, **config)
            stored = api.estimate(a, d, method, workspace=w, **config)
            consulted = sum(c.hits + c.misses for c in caches)
            hits_before = sum(c.hits for c in caches)
            reheat = api.estimate(a, d, method, workspace=w, **config)
            hits = sum(c.hits for c in caches) - hits_before
        values = (cold.value, stored.value, reheat.value)
        if any(value != plain.value for value in values):
            _fail(
                "cached-vs-uncached",
                f"{method}: uncached {plain.value!r} vs cached "
                f"{cold.value!r} / storing {stored.value!r} / "
                f"cache-hit {reheat.value!r}",
            )
        if consulted and not hits:
            _fail(
                "cached-vs-uncached",
                f"{method}: {consulted} cache lookups over two calls, "
                f"but the third call hit nothing",
            )


def check_service_vs_direct(case: Case) -> None:
    """``repro.serve`` parity and degraded-answer invariants."""
    a, d = case.ancestors, case.descendants
    methods = ["PL", "IM", "PM"]
    requests = [
        EstimateRequest(
            ancestors=a,
            descendants=d,
            method=method,
            workspace=case.workspace,
            config=dict(method_config(method, case)),
        )
        for method in methods
    ]
    expected = [
        api.estimate(
            r.ancestors,
            r.descendants,
            r.method,
            workspace=r.workspace,
            **r.config,
        ).value
        for r in requests
    ]
    with EstimationService(workers=0) as service:
        responses = service.map(requests, timeout=60.0)
        if [r.estimate.value for r in responses] != expected:
            _fail(
                "service-vs-direct",
                "service answers differ from direct api.estimate "
                f"({[r.estimate.value for r in responses]} vs {expected})",
            )
        if any(r.status != "ok" or r.ladder_level != 0 for r in responses):
            _fail(
                "service-vs-direct",
                "undegraded request did not resolve at ladder level 0",
            )
    # Degraded path: an already-expired deadline must still be answered,
    # flagged, and the bound rung must enclose the exact size.
    exact = containment_join_size(a, d)
    with EstimationService(workers=0) as service:
        future = service.submit(
            a, d, "IM", workspace=case.workspace,
            deadline_s=1e-9,
            **method_config("IM", case),
        )
        degraded = future.result(timeout=60.0)
    if degraded.status not in ("degraded", "shed"):
        _fail(
            "service-vs-direct",
            f"expired deadline answered with status {degraded.status!r}",
        )
    if not degraded.degraded or degraded.degraded_reason is None:
        _fail("service-vs-direct", "degraded response not flagged")
    if degraded.ladder_name == "bound":
        details = degraded.estimate.details
        if not (
            details["bound_lower"] <= exact <= details["bound_upper"]
        ):
            _fail(
                "service-vs-direct",
                f"bound rung [{details['bound_lower']}, "
                f"{details['bound_upper']}] does not enclose exact "
                f"size {exact}",
            )
        if degraded.estimate.value != float(details["bound_upper"]):
            _fail(
                "service-vs-direct",
                "bound rung estimate is not the upper bound",
            )


def check_feedback_transparency(case: Case) -> None:
    """The closed loop never changes a value, only who computes it.

    A service with a router and feedback store attached (correction
    *off*) must answer every request bit-identically to a direct
    ``api.estimate`` call with the routed arm's own configuration (the
    BOUND arm is the structural upper bound) — routing redirects, it
    does not perturb.  Every outcome must land in the store carrying
    the pre-registered exact size.

    The same loop against a second store, bounded below the number of
    rounds, must route and answer the same: its aggregates equal the
    unbounded store's, every row it keeps carries the pair's
    :func:`~repro.feedback.featurize` vector, and it drops exactly the
    rounds past its bound.  Both loops read a tick clock, so their
    recorded latencies are equal too.
    """
    from repro.estimators.bounds import join_size_bounds
    from repro.feedback.store import FeedbackStore, featurize, query_class
    from repro.router.base import BOUND_METHOD, UCB1Router

    a, d, w = case.ancestors, case.descendants, case.workspace
    if len(a) == 0 or len(d) == 0:
        return
    samples = max(1, min(len(a), len(d)) // 2)
    # Arms pin their own seeds so a direct call reproduces any routed
    # answer exactly, whatever arm the bandit picks.
    candidates = {
        "PL": {"num_buckets": 8},
        "IM": {"num_samples": samples, "seed": 11},
        "PM": {"num_samples": samples, "seed": 11},
        BOUND_METHOD: {},
    }
    exact = float(containment_join_size(a, d))
    rounds = 2 * len(candidates)

    def serve_rounds(store: FeedbackStore) -> list[tuple[str | None, float]]:
        store.observe_truth(a, d, exact)
        ticks = itertools.count()
        with EstimationService(
            workers=0,
            router=UCB1Router(candidates, seed=case.seed),
            feedback=store,
            memoize=False,
            clock=lambda: next(ticks) * 1e-6,
        ) as service:
            answers = []
            for __ in range(rounds):
                response = service.estimate(
                    a, d, "IM", workspace=w, num_samples=samples, seed=11
                )
                if response.status != "ok":
                    _fail(
                        "feedback-transparency",
                        f"routed request resolved {response.status!r} "
                        f"(reason {response.degraded_reason!r}), not ok",
                    )
                answers.append(
                    (response.routed_method, response.estimate.value)
                )
            return answers

    store = FeedbackStore()
    answers = serve_rounds(store)
    for routed, value in answers:
        if routed not in candidates:
            _fail(
                "feedback-transparency",
                f"response routed to unknown arm {routed!r}",
            )
        if routed == BOUND_METHOD:
            expected = float(join_size_bounds(a, d).upper)
        else:
            expected = api.estimate(
                a, d, routed, workspace=w, **candidates[routed]
            ).value
        if value != expected:
            _fail(
                "feedback-transparency",
                f"routed {routed} answer {value!r} "
                f"!= direct estimate {expected!r}",
            )
    records = list(store)
    if len(records) != rounds:
        _fail(
            "feedback-transparency",
            f"store holds {len(records)} records for {rounds} requests",
        )
    if any(record.exact != exact for record in records):
        _fail(
            "feedback-transparency",
            "a served record is missing the pre-registered exact size",
        )

    bound = rounds // 2
    bounded = FeedbackStore(max_records=bound)
    if serve_rounds(bounded) != answers:
        _fail(
            "feedback-transparency",
            f"a store bounded at {bound} records changed the answers",
        )
    label = query_class(a, d)
    if repr(bounded.method_stats(label)) != repr(store.method_stats(label)):
        _fail(
            "feedback-transparency",
            f"a store bounded at {bound} records aggregates differently "
            f"from an unbounded one",
        )
    features = featurize(a, d)
    if any(record.features != features for record in bounded.records()):
        _fail(
            "feedback-transparency",
            "a retained record lacks its operand pair's features",
        )
    dropped = bounded.stats()["dropped"]
    if dropped != rounds - bound:
        _fail(
            "feedback-transparency",
            f"a store bounded at {bound} records dropped {dropped} of "
            f"{rounds}",
        )


# ----------------------------------------------------------------------
# Metamorphic transforms
# ----------------------------------------------------------------------


def _transform_case(
    case: Case, fn: Callable[[int], int]
) -> tuple[NodeSet, NodeSet, Workspace]:
    def remap(elements: Sequence[Element]) -> list[Element]:
        return [
            Element(e.tag, fn(e.start), fn(e.end), e.level)
            for e in elements
        ]

    a = NodeSet(remap(case.ancestors.elements), name="A")
    d = NodeSet(remap(case.descendants.elements), name="D")
    return a, d, Workspace(fn(case.workspace.lo), fn(case.workspace.hi))


def _deterministic_values(
    a: NodeSet, d: NodeSet, w: Workspace, case: Case
) -> dict[str, float]:
    values = {}
    for method in sorted(DETERMINISTIC_METHODS):
        config = method_config(method, case)
        values[method] = api.estimate(
            a, d, method, workspace=w, **config
        ).value
    return values


def check_metamorphic(case: Case) -> None:
    """Translation/dilation invariance, union additivity, duplication
    scaling, and disjointness."""
    a, d, w = case.ancestors, case.descendants, case.workspace
    rng = make_rng(case.seed ^ 0x5EED)
    exact = containment_join_size(a, d)
    base_values = _deterministic_values(a, d, w, case)

    shift = int(rng.integers(1, 10_000))
    scale = int(rng.integers(2, 7))
    for label, fn in (
        ("translation", lambda p: p + shift),
        ("dilation", lambda p: p * scale),
    ):
        ta, td, tw = _transform_case(case, fn)
        t_exact = containment_join_size(ta, td)
        if t_exact != exact:
            _fail(
                "metamorphic",
                f"exact size changed under {label}: {exact} -> {t_exact}",
            )
        if label != "translation":
            # Dilation preserves nesting (hence the exact size) but not
            # the workspace width `hi - lo + 1`, so bucket boundaries
            # and coverage ratios legitimately move; only translation
            # leaves every integer difference — and therefore every
            # deterministic summary — unchanged.
            continue
        t_values = _deterministic_values(ta, td, tw, case)
        for method, value in base_values.items():
            moved = t_values[method]
            tolerance = METAMORPHIC_RTOL * max(1.0, abs(value))
            if abs(moved - value) > tolerance:
                _fail(
                    "metamorphic",
                    f"{method} not invariant under {label}: "
                    f"{value!r} -> {moved!r}",
                )

    # Ancestor-union additivity: per-descendant counts are additive in
    # the ancestor operand, so splitting A partitions the exact size.
    if len(a) >= 2:
        half = len(a) // 2
        a1 = NodeSet(a.elements[:half], name="A1", validate=False)
        a2 = NodeSet(a.elements[half:], name="A2", validate=False)
        split = containment_join_size(a1, d) + containment_join_size(a2, d)
        if split != exact:
            _fail(
                "metamorphic",
                f"ancestor-union additivity broken: {split} != {exact}",
            )

    # Duplication scaling: a disjoint copy of the whole case doubles
    # the join size (cross pairs are impossible across disjoint spans).
    offset = w.hi - w.lo + 1 + int(rng.integers(1, 100))
    copy_a, copy_d, __ = _transform_case(case, lambda p: p + offset)
    doubled_a = NodeSet(
        [*a.elements, *copy_a.elements], name="A2x"
    )
    doubled_d = NodeSet(
        [*d.elements, *copy_d.elements], name="D2x"
    )
    doubled = containment_join_size(doubled_a, doubled_d)
    if doubled != 2 * exact:
        _fail(
            "metamorphic",
            f"duplication scaling broken: {doubled} != 2*{exact}",
        )

    # Disjointness: the original A against the shifted copy of D can
    # produce no pairs — exact and the paper's sampling methods agree.
    disjoint = containment_join_size(a, copy_d)
    if disjoint != 0:
        _fail(
            "metamorphic",
            f"disjoint operands produced exact size {disjoint}",
        )
    span = Workspace(w.lo, w.hi + offset + 1)
    for method in ("IM", "PM"):
        config = method_config(method, case)
        value = api.estimate(
            a, copy_d, method, workspace=span, **config
        ).value
        if value != 0.0:
            _fail(
                "metamorphic",
                f"{method} estimated {value!r} for disjoint operands",
            )


# ----------------------------------------------------------------------
# Parser / validator fuzzing
# ----------------------------------------------------------------------


def check_parser_fuzz(case: Case) -> None:
    """Invalid XML is rejected typed; valid XML round-trips exactly."""
    from repro.core.errors import ParseError

    rng = make_rng(case.seed ^ 0xF00D)
    for document in invalid_xml_corpus(rng):
        try:
            parse_xml(document)
        except ParseError:
            continue
        except Exception as error:
            _fail(
                "parser-fuzz",
                f"parser raised untyped {type(error).__name__} on "
                f"{document[:40]!r}",
            )
        _fail(
            "parser-fuzz", f"parser accepted invalid input {document[:40]!r}"
        )
    document = random_xml(rng)
    tree = parse_xml(document)
    reparsed = parse_xml(to_xml(tree))
    original = [(e.tag, e.start, e.end) for e in tree.elements]
    round_trip = [(e.tag, e.start, e.end) for e in reparsed.elements]
    if original != round_trip:
        _fail("parser-fuzz", "serializer round-trip changed region codes")


def check_validator_fuzz(case: Case) -> None:
    """Broken region-code inputs are rejected with typed errors."""
    from repro.core.errors import InvalidRegionCodeError

    rng = make_rng(case.seed ^ 0xBAD)
    for rows in invalid_element_corpus(rng):
        elements = [Element(tag, start, end) for tag, start, end in rows]
        try:
            NodeSet(elements, validate=True)
        except InvalidRegionCodeError:
            continue
        except Exception as error:
            _fail(
                "validator-fuzz",
                f"NodeSet raised untyped {type(error).__name__} on "
                f"{rows!r}",
            )
        _fail("validator-fuzz", f"NodeSet accepted invalid codes {rows!r}")
    start = int(rng.integers(1, 100))
    for bad in ((start, start), (start, start - 3)):
        try:
            Element("x", *bad)
        except InvalidRegionCodeError:
            continue
        except Exception as error:
            _fail(
                "validator-fuzz",
                f"Element raised untyped {type(error).__name__} on {bad}",
            )
        _fail("validator-fuzz", f"Element accepted degenerate region {bad}")


# ----------------------------------------------------------------------
# Wire fuzzing
# ----------------------------------------------------------------------


def rewrite_wire_header(
    payload: bytes, mutate: Callable[[dict[str, Any]], None]
) -> bytes:
    """Re-pack a binary wire payload after ``mutate`` edits its header.

    The frame bytes are carried over unchanged: frame offsets are
    relative to the frame base, which moves with the header's length.
    """
    from repro.service import wire

    fixed = wire._HEADER_FIXED
    length = int.from_bytes(payload[fixed - 4 : fixed], "little")
    header = json.loads(payload[fixed : fixed + length])
    frames = payload[wire._align(fixed + length) :]
    mutate(header)
    text = json.dumps(header).encode("utf-8")
    head = bytearray(wire._align(fixed + len(text)))
    head[: fixed - 4] = payload[: fixed - 4]  # magic and version
    head[fixed - 4 : fixed] = len(text).to_bytes(4, "little")
    head[fixed : fixed + len(text)] = text
    return bytes(head) + frames


def _parent(document: Any, path: Sequence[Any]) -> Any:
    for key in path[:-1]:
        document = document[key]
    return document


def _set_key(path: Sequence[Any], value: Any) -> Callable[[Any], None]:
    return lambda document: _parent(document, path).__setitem__(
        path[-1], value
    )


def _drop_key(path: Sequence[Any]) -> Callable[[Any], None]:
    return lambda document: _parent(document, path).pop(path[-1])


_ROLES = ("ancestors", "descendants")

#: Per format, the keys a request cannot do without.
_REQUIRED_KEYS = {
    "binary": [
        ("kind",),
        ("request",),
        ("request", "method"),
        ("operands",),
        ("frames",),
        *(
            ("operands", role, *tail)
            for role in _ROLES
            for tail in (
                (),
                ("fields",),
                ("fields", "starts"),
                ("fields", "ends"),
            )
        ),
    ],
    "json": [
        ("kind",),
        ("request",),
        ("request", "method"),
        ("operands",),
        *(
            ("operands", role, *tail)
            for role in _ROLES
            for tail in ((), ("starts",), ("ends",))
        ),
    ],
}


def _wire_mutations(
    request: EstimateRequest, rng: np.random.Generator
) -> list[tuple[str, bytes]]:
    """One seeded structural mutation of ``request``'s payloads per kind,
    each labelled for the failure message.

    Every mutation breaks the wire format's structure, so a decoder must
    reject all of them.
    """
    from repro.service import wire

    def pick(options: Sequence[Any]) -> Any:
        return options[int(rng.integers(len(options)))]

    binary = wire.encode_request(request, wire.FORMAT_BINARY)
    text = wire.encode_request(request, wire.FORMAT_JSON)
    header, __ = wire._unpack(binary)
    document = json.loads(text)
    frames = header["frames"]

    def binary_with(mutate: Callable[[Any], None]) -> bytes:
        return rewrite_wire_header(binary, mutate)

    def json_with(mutate: Callable[[Any], None]) -> bytes:
        broken = json.loads(text)
        mutate(broken)
        return json.dumps(broken).encode("utf-8")

    out = []
    for name, payload in (("binary", binary), ("json", text)):
        cut = int(rng.integers(len(payload)))
        out.append((f"{name} truncated to {cut} bytes", payload[:cut]))

    index = int(rng.integers(len(frames)))
    count, offset = frames[index]["shape"][0], frames[index]["offset"]
    far = int(rng.integers(1, 1 << 20))
    lies = {
        "dtype": ["<f8", "<i4", ">i8", "<u8", "|O", "int64", 8, None],
        "shape": [
            [count + far],
            [-far],
            [count, 1],
            [],
            [float(count)],
            [str(count)],
            count,
            [2**62],
            *([[count - 1]] if count else []),
        ],
        "offset": [
            -wire._ALIGNMENT * far,
            offset + 8,
            offset + wire._ALIGNMENT,
            float(offset),
            str(offset),
            2**62,
            *(meta["offset"] for meta in frames if meta["offset"] != offset),
        ],
    }
    for key, options in lies.items():
        value = pick(options)
        out.append(
            (
                f"frame {index} {key} {value!r} (was {frames[index][key]!r})",
                binary_with(_set_key(("frames", index, key), value)),
            )
        )

    for name, with_ in (("binary", binary_with), ("json", json_with)):
        path = pick(_REQUIRED_KEYS[name])
        label = f"{name} request without {'.'.join(path)}"
        out.append((label, with_(_drop_key(path))))

    role = pick(_ROLES)
    fields = header["operands"][role]["fields"]
    field = pick(sorted(fields))
    target = pick(
        [
            len(frames) + far,
            -pick(range(1, len(frames) + 1)),
            float(fields[field]),
            None,
        ]
    )
    out.append(
        (
            f"{role}.{field} names frame {target!r} of {len(frames)}",
            binary_with(_set_key(("operands", role, "fields", field), target)),
        )
    )

    role, field = pick(_ROLES), pick(("starts", "ends"))
    codes = document["operands"][role][field] or [0]
    kind, lying = pick(
        [
            ("float", [code + 0.5 for code in codes]),
            ("string", [str(code) for code in codes]),
            ("nested", [[code] for code in codes]),
            ("beyond int64", [code + 2**64 for code in codes]),
        ]
    )
    out.append(
        (
            f"json {role}.{field} as {kind}",
            json_with(_set_key(("operands", role, field), lying)),
        )
    )

    # Text-level lies in one code list of the compact document: number
    # syntax JSON forbids, which a parsed document cannot carry.
    role, field = pick(_ROLES), pick(("starts", "ends"))
    codes = [str(code) for code in document["operands"][role][field] or [0]]
    at = int(rng.integers(len(codes)))
    head, code, tail = codes[:at], codes[at], codes[at + 1 :]
    kind, lying = pick(
        [
            ("a leading zero", [*head, "0" + code, *tail]),
            ("a trailing comma", [*codes, ""]),
            ("a leading +", [*head, "+" + code, *tail]),
            ("an empty field", [*head, code, "", code, *tail]),
            ("a leading comma", ["", *codes]),
        ]
    )
    marker = "wire-fuzz code list"
    spliced = json.loads(text)
    spliced["operands"][role][field] = marker
    out.append(
        (
            f"json {role}.{field} text with {kind} (code {at})",
            json.dumps(spliced, separators=(",", ":"))
            .replace(json.dumps(marker), "[" + ",".join(lying) + "]")
            .encode("utf-8"),
        )
    )
    out.append(("json top-level array", json.dumps([document]).encode()))
    return out


#: Mutation rounds per case: about 30 decodes, a small share of the
#: time the other oracles spend on one case.
_WIRE_FUZZ_ROUNDS = 3


def check_wire_fuzz(case: Case) -> None:
    """Structurally broken request payloads raise ``ServiceError``.

    The case's operands are encoded in both wire formats and mutated
    by :func:`_wire_mutations`, several rounds.  Each mutated payload
    must be rejected with :class:`~repro.core.errors.ServiceError`; an
    accepted payload or any other exception is a finding.  The
    unmutated payloads must still decode.
    """
    from repro.core.errors import ServiceError
    from repro.service import wire

    request = EstimateRequest(
        ancestors=case.ancestors,
        descendants=case.descendants,
        method="IM",
        workspace=case.workspace,
        config={"num_samples": 1, "seed": case.seed},
        request_id="wire-fuzz",
    )
    for wire_format in wire.KNOWN_FORMATS:
        wire.decode_request(wire.encode_request(request, wire_format))
    rng = make_rng(case.seed ^ 0x3A7E)
    for __ in range(_WIRE_FUZZ_ROUNDS):
        for label, payload in _wire_mutations(request, rng):
            try:
                wire.decode_request(payload)
            except ServiceError:
                continue
            except Exception as error:
                _fail(
                    "wire-fuzz",
                    f"{label}: decode raised untyped "
                    f"{type(error).__name__}: {error}",
                )
            _fail("wire-fuzz", f"{label}: decode accepted the payload")


def check_planner_invariance(case: Case) -> None:
    """Planner output is invariant to generator describe()/setup order.

    The :class:`~repro.optimizer.generator.CardinalityGenerator`
    lifecycle hooks promise idempotence: ``describe()`` is read-only
    and ``setup_for_workload`` may run any number of times.  For each
    generator family the oracle plans the same chain twice — once
    plainly, once with ``describe()`` calls and a repeated setup
    interleaved — and requires bit-identical plans, then round-trips
    the plan through its versioned wire form.

    Then, on a fresh service per method, ``a // a // a`` and
    ``a // a // d`` are planned through the service-backed generator
    (one ``map`` burst per chain: an in-flight follower, then a memo hit
    beside a miss) for PL and a seeded IM.  Each plan must equal, bit
    for bit, the plan built from one direct estimate per pair, from two
    requests and no degraded answer.
    """
    from repro.optimizer.generator import resolve_generator
    from repro.optimizer.planner import JoinPlan, optimize

    if len(case.ancestors) == 0 or len(case.descendants) == 0:
        return
    # a // a // d: a valid chain from any case's two operands.
    chain = [case.ancestors, case.ancestors, case.descendants]
    for name, config in (
        ("PL", {"num_buckets": 8}),
        ("UBOUND", {}),
        ("EXACT", {}),
    ):
        plain = resolve_generator(name, **config)
        baseline = optimize(chain, plain, workspace=case.workspace)

        noisy = resolve_generator(name, **config)
        before = noisy.describe()
        noisy.setup_for_workload(case.workspace, None)
        noisy.describe()
        noisy.setup_for_workload(case.workspace, None)
        perturbed = optimize(chain, noisy, workspace=case.workspace)
        after = noisy.describe()

        if perturbed != baseline:
            _fail(
                "planner-invariance",
                f"{name}: plan changed under describe()/setup "
                f"reordering: {perturbed} != {baseline}",
            )
        if before != after:
            _fail(
                "planner-invariance",
                f"{name}: describe() mutated across planning: "
                f"{before} != {after}",
            )
        if JoinPlan.from_dict(baseline.to_dict()) != baseline:
            _fail(
                "planner-invariance",
                f"{name}: plan wire round-trip not identical",
            )

    a, d = case.ancestors, case.descendants
    for name, config in (
        ("PL", {"num_buckets": 8}),
        ("IM", method_config("IM", case, seed=case.seed)),
    ):
        with EstimationService(workers=0) as service:
            for chain in ([a, a, a], [a, a, d]):
                generator = service.cardinality_generator(name, **config)
                served = optimize(chain, generator, workspace=case.workspace)
                direct = optimize(
                    chain,
                    _DirectPairs(name, config),
                    workspace=case.workspace,
                )
                label = "a // a // " + ("a" if chain[2] is a else "d")
                if _plan_bits(served) != _plan_bits(direct):
                    _fail(
                        "planner-invariance",
                        f"SERVICE-{name} on {label}: plan {served} != "
                        f"direct per-pair plan {direct}",
                    )
                if (generator.requests, generator.degraded) != (2, 0):
                    _fail(
                        "planner-invariance",
                        f"SERVICE-{name} on {label}: "
                        f"{generator.requests} requests, "
                        f"{generator.degraded} degraded; expected 2 and 0",
                    )


class _DirectPairs(PairwiseGenerator):
    """One :func:`repro.api.estimate` call per adjacent pair: what a
    service-backed generator with the same configuration computes."""

    def __init__(self, method: str, config: dict[str, Any]) -> None:
        self.method = method
        self.config = config
        self.name = f"DIRECT-{method}"

    def estimate_pair(self, index: int, state: PlanningState) -> float:
        return api.estimate(
            state.node_sets[index],
            state.node_sets[index + 1],
            self.method,
            workspace=state.workspace,
            **self.config,
        ).value


def _plan_bits(plan: Any) -> tuple:
    """A plan tree with every size as its exact float hex."""
    size = plan.estimated_size.hex()
    if plan.is_leaf:
        return (plan.lo, size)
    return (
        plan.lo,
        plan.hi,
        size,
        _plan_bits(plan.left),
        _plan_bits(plan.right),
    )


def check_fused_vs_reference(case: Case) -> None:
    """Fused kernels ≡ the paper's per-call index composition.

    :mod:`repro.kernels.fused` collapses every sampling estimator's
    index_build→probe→scale sequence into single-pass numpy kernels
    (with a table-gather tier from a pair's second probe under an
    :class:`IndexCache`).  The contract is bit-for-bit: for every
    sampling method and every probe backend the method accepts, the
    fused estimate must equal the one produced under
    :func:`repro.qa.reference.reference_probes` — which builds the rank
    identity, T-tree, XR-tree or start-position B+-tree per call and
    probes it one point at a time, from the estimator's own draws — in
    value *and* details, uncached, on a cache's first probe and on its
    second.  Bifocal runs twice: at its default threshold and at
    ``threshold=1``, where every covered position is dense, so a
    position at exactly the threshold must count in the exact part
    only.
    """
    from repro.qa.reference import reference_probes

    a, d, w = case.ancestors, case.descendants, case.workspace
    jobs = [("IM", {"backend": b}) for b in ("rank", "ttree", "xrtree")]
    jobs += [("PM", {"backend": b}) for b in ("rank", "ttree")]
    jobs += [(m, {}) for m in ("CROSS", "SYS", "SEMI-A", "SEMI-D", "BIFOCAL")]
    jobs.append(("BIFOCAL", {"threshold": 1}))
    for method, extra in jobs:
        config = {**method_config(method, case), **extra}
        try:
            with reference_probes():
                want = api.estimate(a, d, method, workspace=w, **config)
        except ReproError:
            continue
        label = "/".join([method, *(f"{k}={v}" for k, v in extra.items())])
        direct = api.estimate(a, d, method, workspace=w, **config)
        with use_index_cache(IndexCache()):
            cold = api.estimate(a, d, method, workspace=w, **config)
            warm = api.estimate(a, d, method, workspace=w, **config)
        for tier, got in (
            ("direct", direct),
            ("cache-cold", cold),
            ("cache-warm", warm),
        ):
            if got.value != want.value or got.details != want.details:
                _fail(
                    "fused-vs-reference",
                    f"{label} ({tier}): fused {got.value!r}/"
                    f"{got.details!r} != reference "
                    f"{want.value!r}/{want.details!r}",
                )


def check_wire_roundtrip(case: Case) -> None:
    """Binary and JSON wire forms are interchangeable and exact.

    Every request must round-trip through both formats with identical
    operand arrays, metadata and config; the service must answer a
    binary payload and a JSON payload of the same seeded request with
    bit-identical estimates (and reply in the arrival format); and a
    response must survive its round-trip equal in every field.
    """
    from repro.service import wire

    a, d, w = case.ancestors, case.descendants, case.workspace
    samples = max(1, min(len(a), len(d)) // 2)
    request = EstimateRequest(
        ancestors=a,
        descendants=d,
        method="IM",
        workspace=w,
        config={"num_samples": samples, "seed": 11},
    )
    decoded = {}
    for wire_format in wire.KNOWN_FORMATS:
        got, detected = wire.decode_request(
            wire.encode_request(request, wire_format)
        )
        if detected != wire_format:
            _fail(
                "wire-roundtrip",
                f"{wire_format} payload sniffed as {detected}",
            )
        for role in ("ancestors", "descendants"):
            mine = getattr(got, role)
            theirs = getattr(request, role)
            if not (
                np.array_equal(mine.starts, theirs.starts)
                and np.array_equal(mine.ends, theirs.ends)
                and mine.fingerprint == theirs.fingerprint
            ):
                _fail(
                    "wire-roundtrip",
                    f"{wire_format} request round-trip changed {role}",
                )
        if (
            got.method != request.method
            or got.workspace != request.workspace
            or got.config != request.config
        ):
            _fail(
                "wire-roundtrip",
                f"{wire_format} request round-trip changed metadata",
            )
        decoded[wire_format] = got

    answers = {}
    with EstimationService(workers=0) as service:
        for wire_format in wire.KNOWN_FORMATS:
            reply = service.estimate_wire(
                wire.encode_request(request, wire_format)
            )
            if wire.sniff_format(reply) != wire_format:
                _fail(
                    "wire-roundtrip",
                    f"service answered a {wire_format} request in "
                    f"{wire.sniff_format(reply)}",
                )
            response = wire.decode_response(reply)
            if wire.decode_response(
                wire.encode_response(response, wire_format)
            ) != response:
                _fail(
                    "wire-roundtrip",
                    f"{wire_format} response round-trip not identical",
                )
            answers[wire_format] = (
                response.estimate.value,
                response.estimate.details,
            )
    if answers["binary"] != answers["json"]:
        _fail(
            "wire-roundtrip",
            f"binary vs JSON service answers differ: "
            f"{answers['binary']!r} != {answers['json']!r}",
        )


class _TagSynopses:
    """The paper's four maintained synopses of one tag."""

    def __init__(self, workspace: Workspace, seed: int) -> None:
        self.pl = IncrementalPLHistogram(workspace, 8)
        self.cells = IncrementalCellHistogram(workspace, 25)
        self.ttree = DynamicTTree()
        self.reservoir = ReservoirSample(16, seed=seed)

    def insert(self, element: Element) -> None:
        self.pl.insert(element)
        self.cells.insert(element)
        self.ttree.insert(element)
        self.reservoir.add(element)

    def remove(self, element: Element) -> None:
        self.pl.remove(element)
        self.cells.remove(element)
        self.ttree.delete(element)
        self.reservoir.remove(element)


def check_incremental_vs_rebuild(case: Case) -> None:
    """Incrementally maintained synopses ≡ from-scratch rebuilds.

    The case's operands are merged into one element pool (dedup by
    region code — operands drawn from one document may share elements)
    and churned through a seeded :class:`~repro.stream.MutationFeed`.
    Each batch is applied to a :class:`~repro.stream.LiveWorkspace` and
    to the four :mod:`repro.maintenance` synopses of every tag, which
    are built from the bootstrap before the first batch, so the batches
    exercise incremental upkeep.  After *every* applied batch, each
    live tag's maintained structures must equal a from-scratch rebuild
    over the current population:

    * the zero-copy node set equals the validated rebuild exactly;
    * coverage bounds (merged intervals) exactly;
    * the PL statistics in both roles — integer counts bit-exact,
      ancestor ``total_length`` within 1e-12 relative (float
      reassociation only);
    * the PH cell grid, integer-identical as a dict;
    * the dynamic T-tree's stabbing count at every turning point and
      every element endpoint equals the rebuilt node set's rank
      identity (:meth:`NodeSet.stab_count`);
    * the reservoir is a subset of the live population at the right
      size.
    """
    from repro.estimators.coverage_histogram import merged_interval_bounds
    from repro.estimators.ph_histogram import cell_histogram
    from repro.estimators.pl_histogram import PLHistogram
    from repro.stream import LiveWorkspace, MutationFeed

    pool: dict[tuple[int, int], Element] = {}
    for element in (*case.ancestors.elements, *case.descendants.elements):
        pool.setdefault((element.start, element.end), element)
    feed = MutationFeed(pool.values(), seed=case.seed)
    bootstrap = feed.bootstrap()
    live = LiveWorkspace(case.workspace, elements=bootstrap)
    synopses: dict[str, _TagSynopses] = {}

    def maintained_synopses(tag: str) -> _TagSynopses:
        kept = synopses.get(tag)
        if kept is None:
            kept = synopses[tag] = _TagSynopses(case.workspace, case.seed)
        return kept

    for element in bootstrap:
        maintained_synopses(element.tag).insert(element)
    batch_size = max(1, len(pool) // 4)
    for batch in feed.batches(5, batch_size):
        live.apply(batch)
        for mutation in batch.mutations:
            element = mutation.element
            if mutation.op == "insert":
                maintained_synopses(element.tag).insert(element)
                continue
            maintained_synopses(element.tag).remove(element)
            if mutation.replacement is not None:
                replacement = mutation.replacement
                maintained_synopses(replacement.tag).insert(replacement)
        for tag in live.tags():
            kept = maintained_synopses(tag)
            maintained = live.node_set(tag)
            rebuilt = live.rebuild_node_set(tag)
            where = f"tag {tag!r} after batch {batch.index}"
            if not (
                np.array_equal(maintained.starts, rebuilt.starts)
                and np.array_equal(maintained.ends, rebuilt.ends)
            ):
                _fail(
                    "incremental-vs-rebuild",
                    f"{where}: maintained arrays != rebuilt node set",
                )
            if not np.array_equal(
                merged_interval_bounds(maintained),
                merged_interval_bounds(rebuilt),
            ):
                _fail(
                    "incremental-vs-rebuild",
                    f"{where}: coverage bounds diverged from rebuild",
                )
            pl = kept.pl
            want_anc = PLHistogram.build_ancestor(
                rebuilt, case.workspace, pl.num_buckets
            )
            for got, want in zip(
                pl.ancestor_histogram().buckets, want_anc.buckets
            ):
                if got.n != want.n:
                    _fail(
                        "incremental-vs-rebuild",
                        f"{where}: ancestor PL bucket {want.index} count "
                        f"{got.n} != rebuilt {want.n}",
                    )
                tolerance = 1e-12 * max(1.0, abs(want.total_length))
                if abs(got.total_length - want.total_length) > tolerance:
                    _fail(
                        "incremental-vs-rebuild",
                        f"{where}: ancestor PL bucket {want.index} "
                        f"total_length {got.total_length!r} != rebuilt "
                        f"{want.total_length!r}",
                    )
            want_desc = PLHistogram.build_descendant(
                rebuilt, case.workspace, pl.num_buckets
            )
            for got, want in zip(
                pl.descendant_histogram().buckets, want_desc.buckets
            ):
                if got.n != want.n:
                    _fail(
                        "incremental-vs-rebuild",
                        f"{where}: descendant PL bucket {want.index} "
                        f"count {got.n} != rebuilt {want.n}",
                    )
            cells = kept.cells
            want_cells = cell_histogram(
                rebuilt, case.workspace, cells.side
            )
            if dict(cells.cell_histogram()) != dict(want_cells):
                _fail(
                    "incremental-vs-rebuild",
                    f"{where}: PH cell grid diverged from rebuild",
                )
            ttree = kept.ttree
            positions = {p for p, _ in ttree.turning_points()}
            positions.update(int(s) for s in rebuilt.starts)
            positions.update(int(e) for e in rebuilt.ends)
            for position in sorted(positions):
                if ttree.count(position) != rebuilt.stab_count(position):
                    _fail(
                        "incremental-vs-rebuild",
                        f"{where}: T-tree stab count at {position} is "
                        f"{ttree.count(position)} != "
                        f"{rebuilt.stab_count(position)}",
                    )
            reservoir = kept.reservoir
            population = {(e.start, e.end) for e in rebuilt.elements}
            drawn = [(e.start, e.end) for e in reservoir.sample]
            # Random pairing may run under capacity while holes are
            # uncompensated, never over it — and never over the
            # population.
            if len(drawn) > min(reservoir.capacity, len(population)):
                _fail(
                    "incremental-vs-rebuild",
                    f"{where}: reservoir holds {len(drawn)} of "
                    f"{len(population)} live (capacity "
                    f"{reservoir.capacity})",
                )
            if reservoir.live != len(population):
                _fail(
                    "incremental-vs-rebuild",
                    f"{where}: reservoir live count {reservoir.live} != "
                    f"population {len(population)}",
                )
            if not population.issuperset(drawn):
                _fail(
                    "incremental-vs-rebuild",
                    f"{where}: reservoir contains non-live elements",
                )


#: The registry the runner iterates: name -> per-case oracle.
ORACLES: dict[str, Callable[[Case], None]] = {
    "exact-join": check_exact_join,
    "summary-geometry": check_summary_geometry,
    "estimate-vs-exact": check_estimate_vs_exact,
    "estimator-contract": check_estimator_contract,
    "batched-vs-sequential": check_batched_vs_sequential,
    "cached-vs-uncached": check_cached_vs_uncached,
    "service-vs-direct": check_service_vs_direct,
    "fused-vs-reference": check_fused_vs_reference,
    "wire-roundtrip": check_wire_roundtrip,
    "feedback-transparency": check_feedback_transparency,
    "incremental-vs-rebuild": check_incremental_vs_rebuild,
    "planner-invariance": check_planner_invariance,
    "metamorphic": check_metamorphic,
    "parser-fuzz": check_parser_fuzz,
    "validator-fuzz": check_validator_fuzz,
    "wire-fuzz": check_wire_fuzz,
}
