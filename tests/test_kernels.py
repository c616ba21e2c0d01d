"""The repro.kernels layer: arenas and fused kernels.

Three contracts pinned here:

* **fused-vs-reference parity** — every sampling estimator produces
  bit-for-bit identical estimates under the fused single-pass kernels
  and under :func:`repro.qa.reference.reference_probes` (which builds
  the paper's index structures per call and probes them one point at a
  time, from the estimator's own draws), on every probe backend, with
  and without an ambient :class:`~repro.perf.IndexCache` (the
  table-gather tier);
* **phase attribution** — the lazy sort of a fresh ancestor operand's
  end codes happens inside ``index_build``, never inside ``probe``;
* **arena semantics** — operand arenas are views (no copies), fresh
  wrappers without a cache (no reference cycle pins an operand) and
  content-keyed through the cache with one; the stab-count table equals
  the rank identity :meth:`NodeSet.stab_counts` over every descendant
  start, is built on a pair's second probe and gathered from on the
  third; reference mode bypasses the turning-point cache on the node
  set.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.element import Element
from repro.core.nodeset import NodeSet
from repro.core.workspace import Workspace
from repro.estimators.bifocal import BifocalEstimator
from repro.estimators.cross_sampling import (
    CrossSamplingEstimator,
    SystematicSamplingEstimator,
)
from repro.estimators.im_sampling import IMSamplingEstimator
from repro.estimators.pm_sampling import PMSamplingEstimator
from repro.estimators.semijoin_sampling import (
    SemijoinAncestorsEstimator,
    SemijoinDescendantsEstimator,
)
from repro.kernels import (
    OPERAND_FIELDS,
    OperandArena,
    fused,
    operand_arena,
    stab_count_table,
)
from repro.perf import IndexCache, reference_kernels, use_index_cache
from repro.qa.reference import reference_probes


@pytest.fixture
def operands(xmark_small):
    tree = xmark_small.tree
    return tree.node_set("desp"), tree.node_set("text")


@pytest.fixture
def operand_pairs(xmark_small, operands):
    """The parity suites' pairs: ``desp // text`` and the self-join
    ``listitem // listitem``, where a descendant often starts right
    after an ancestor ends — the boundary the rank identity's
    ``end < v`` and the T-tree's floor lookup must get right."""
    listitems = xmark_small.tree.node_set("listitem")
    return [operands, (listitems, listitems)]


ESTIMATOR_CASES = [
    ("IM-rank", lambda s: IMSamplingEstimator(num_samples=9, seed=s)),
    (
        "IM-ttree",
        lambda s: IMSamplingEstimator(num_samples=9, seed=s, backend="ttree"),
    ),
    (
        "IM-xrtree",
        lambda s: IMSamplingEstimator(
            num_samples=9, seed=s, backend="xrtree"
        ),
    ),
    (
        "IM-replace",
        lambda s: IMSamplingEstimator(num_samples=9, seed=s, replace=True),
    ),
    ("PM-rank", lambda s: PMSamplingEstimator(num_samples=9, seed=s)),
    (
        "PM-ttree",
        lambda s: PMSamplingEstimator(num_samples=9, seed=s, backend="ttree"),
    ),
    ("CROSS", lambda s: CrossSamplingEstimator(num_samples=9, seed=s)),
    ("SYS", lambda s: SystematicSamplingEstimator(num_samples=4, seed=s)),
    ("SEMI-D", lambda s: SemijoinDescendantsEstimator(num_samples=7, seed=s)),
    ("SEMI-A", lambda s: SemijoinAncestorsEstimator(num_samples=7, seed=s)),
    ("BIFOCAL", lambda s: BifocalEstimator(num_samples=6, seed=s)),
    (
        "BIFOCAL-t3",
        lambda s: BifocalEstimator(num_samples=6, seed=s, threshold=3),
    ),
]


def _estimate(make, seed, a, d, cache):
    if cache is None:
        return make(seed).estimate(a, d)
    with use_index_cache(cache):
        return make(seed).estimate(a, d)


@pytest.mark.parametrize(
    "name,make", ESTIMATOR_CASES, ids=[c[0] for c in ESTIMATOR_CASES]
)
@pytest.mark.parametrize("cached", [False, True], ids=["direct", "cached"])
class TestFusedVsReference:
    def test_bit_for_bit(self, name, make, cached, operand_pairs):
        """Fused kernels == the paper's index composition, exactly."""
        for a, d in operand_pairs:
            for seed in (0, 7):
                with reference_probes():
                    want = _estimate(make, seed, a, d, None)
                cache = IndexCache() if cached else None
                got = _estimate(make, seed, a, d, cache)
                assert got.value == want.value, (name, a.name, seed)
                assert got.details == want.details, (name, a.name, seed)


class TestFusedEdgeCases:
    def test_empty_descendants_short_circuit(self, figure1_tree):
        # An empty descendant operand clamps the sample count to zero:
        # the fused m == 0 guard must reproduce the reference's empty
        # answer, not divide by zero.
        a, __ = figure1_tree
        est = IMSamplingEstimator(num_samples=4, seed=0).estimate(
            a, NodeSet([])
        )
        with reference_probes():
            want = IMSamplingEstimator(num_samples=4, seed=0).estimate(
                a, NodeSet([])
            )
        assert est.value == want.value == 0.0
        assert est.details == want.details

    def test_single_element_operands(self):
        a = NodeSet([Element("a", 1, 4, 0)])
        d = NodeSet([Element("d", 2, 3, 1)])
        for __, make in ESTIMATOR_CASES:
            with reference_probes():
                want = make(1).estimate(a, d)
            got = make(1).estimate(a, d)
            assert got.value == want.value
            assert got.details == want.details

    def test_bifocal_threshold_position_counts_once(self):
        """A position covered exactly τ times is dense: it counts in the
        exact dense part and never again in the sampled sparse part."""
        a = NodeSet(
            [
                Element("a", 1, 20, 0),
                Element("a", 2, 19, 1),
                Element("a", 3, 18, 2),
            ]
        )
        d = NodeSet(
            [
                Element("d", 4, 5, 3),
                Element("d", 6, 7, 3),
                Element("d", 8, 9, 3),
            ]
        )
        workspace = Workspace(0, 21)

        def run():
            return BifocalEstimator(
                num_samples=50, seed=1, threshold=3
            ).estimate(a, d, workspace)

        with reference_probes():
            want = run()
        got = run()
        for result in (got, want):
            assert result.value == 9.0  # the exact join size
            assert result.details["dense_exact"] == 9
            assert result.details["sparse_estimate"] == 0.0
        assert got.details == want.details


PHASE_CASES = [
    case
    for case in ESTIMATOR_CASES
    if case[0] in ("IM-rank", "IM-xrtree", "SEMI-D", "SYS")
]


@pytest.mark.parametrize(
    "name,make", PHASE_CASES, ids=[c[0] for c in PHASE_CASES]
)
def test_end_sort_charged_to_index_build(name, make, operands, monkeypatch):
    """A fresh ancestor operand sorts its end codes lazily; the direct
    path reads them inside ``index_build``, so the sort is never
    charged to ``probe``."""
    a, d = operands
    fresh = NodeSet.from_arrays(a.starts.copy(), a.ends.copy(), name="a")
    real = fused._obs.phase_timer
    sorted_at_close = []

    @contextmanager
    def recorder(estimator, stage):
        with real(estimator, stage):
            yield
        if stage == "index_build":
            sorted_at_close.append("sorted_ends" in fresh.__dict__)

    monkeypatch.setattr(fused._obs, "phase_timer", recorder)
    make(0).estimate(fresh, d)
    assert sorted_at_close == [True], name


class TestOperandArena:
    def test_fields_are_views(self, operands):
        a, __ = operands
        arena = operand_arena(a)
        assert arena.starts is a.starts
        assert arena.ends is a.ends
        assert arena.sorted_ends is a.sorted_ends
        assert arena.fingerprint == a.fingerprint
        assert len(arena) == len(a)
        assert tuple(arena.wire_fields()) == OPERAND_FIELDS

    def test_content_keyed_through_cache(self, operands):
        a, __ = operands
        clone = NodeSet(list(a.elements), name=a.name)
        cache = IndexCache()
        # The clone's miss is the content key's second: it stores.
        built = operand_arena(a, cache)
        first = operand_arena(clone, cache)
        assert first is not built
        assert operand_arena(a, cache) is first
        assert operand_arena(clone, cache) is first
        stats = cache.stats()
        assert stats["misses"] == 2
        assert stats["hits"] == 2

    def test_turning_points_padded(self, operands):
        a, __ = operands
        keys, padded = operand_arena(a).turning_points()
        ref_keys, ref_values = a.turning_points_arrays
        assert np.array_equal(keys, ref_keys)
        assert padded[0] == 0
        assert np.array_equal(padded[1:], ref_values)
        assert not padded.flags.writeable
        # cached on the node set, so every fresh arena shares it
        assert operand_arena(a).turning_points()[1] is padded

    def test_probes_leave_no_reference_cycles(self, operands):
        """Estimates, wire round trips and live reads free everything
        by reference counting: the cyclic collector finds nothing."""
        import gc

        import repro
        from repro.core.workspace import Workspace
        from repro.service import wire
        from repro.service.request import EstimateRequest
        from repro.stream import LiveWorkspace, Mutation

        a, d = operands
        workspace = Workspace(0, 4000)
        pool = []
        for i in range(20):
            pool.append(Element("a", 20 * i + 1, 20 * i + 9))
            pool.append(Element("d", 20 * i + 2, 20 * i + 4))
        live = LiveWorkspace(workspace, elements=pool, seed=0)
        service = repro.serve(workers=0)
        live_service = repro.serve(workers=0, live=live)

        def fresh(node_set):
            return NodeSet.from_arrays(
                node_set.starts.copy(), node_set.ends.copy(), name="x"
            )

        makers = (
            lambda s: IMSamplingEstimator(num_samples=9, seed=s),
            lambda s: PMSamplingEstimator(num_samples=9, seed=s),
            lambda s: SystematicSamplingEstimator(num_samples=4, seed=s),
        )
        def exercise(seed):
            for cache in (None, IndexCache()):
                for make in makers:
                    _estimate(make, seed, fresh(a), fresh(d), cache)
            for wire_format in ("binary", "json"):
                request = EstimateRequest(
                    ancestors=fresh(a),
                    descendants=fresh(d),
                    method="IM",
                    config={"num_samples": 9, "seed": seed},
                    request_id=f"r{seed}",
                )
                reply = service.estimate_wire(
                    wire.encode_request(request, wire_format=wire_format)
                )
                assert wire.decode_response(reply).status == "ok"
            base = 3000 + 20 * seed
            live.apply([Mutation("insert", Element("a", base + 1, base + 9))])
            response = live_service.estimate(
                "a", "d", "IM", num_samples=9, seed=seed
            )
            assert response.status == "ok"

        # A first round outside the measured one: lazy imports leave
        # garbage of their own.
        exercise(0)
        gc.collect()
        gc.disable()
        try:
            for seed in range(1, 4):
                exercise(seed)
            found = gc.collect()
        finally:
            gc.enable()
            service.close()
            live_service.close()
        assert found == 0

    def test_turning_points_bypass_under_reference_mode(self, operands):
        a, __ = operands
        cached_keys, __ = a.turning_points_arrays
        with reference_kernels():
            ref_keys, __ = a.turning_points_arrays
        assert np.array_equal(cached_keys, ref_keys)
        # reference mode recomputes: same values, distinct array object
        assert ref_keys is not cached_keys

    def test_wire_roundtrip(self, operands):
        a, __ = operands
        arena = operand_arena(a)
        rebuilt = OperandArena.from_wire_views(
            arena.wire_fields(), name=a.name, fingerprint=a.fingerprint
        )
        assert np.array_equal(rebuilt.starts, a.starts)
        assert np.array_equal(rebuilt.sorted_ends, a.sorted_ends)
        assert rebuilt.fingerprint == a.fingerprint
        # the seeded sorted_ends view is adopted, not re-derived
        assert rebuilt.sorted_ends is arena.sorted_ends


class TestStabCountTable:
    def test_equals_stabbing_counter(self, operands):
        a, d = operands
        cache = IndexCache()
        assert stab_count_table(a, d, cache) is None  # first probe
        table = stab_count_table(a, d, cache)
        want = a.stab_counts(d.starts)
        assert np.array_equal(table, want)
        assert table.dtype == np.int64
        assert not table.flags.writeable

    def test_cached_by_both_fingerprints(self, operands):
        a, d = operands
        cache = IndexCache()
        stab_count_table(a, d, cache)
        first = stab_count_table(a, d, cache)
        assert stab_count_table(a, d, cache) is first
        # swapping operands is a different table, not a cache hit: its
        # first probe builds nothing
        assert stab_count_table(d, a, cache) is None
        swapped = stab_count_table(d, a, cache)
        assert swapped is not first
        assert len(swapped) == len(a)


TABLE_CASES = [
    case
    for case in ESTIMATOR_CASES
    if case[0].startswith(("IM", "SYS", "SEMI-D"))
]


@pytest.mark.parametrize(
    "name,make", TABLE_CASES, ids=[c[0] for c in TABLE_CASES]
)
class TestProbeTiers:
    """Under an ambient cache a pair's first probe goes direct, its
    second builds the stab-count table and its third gathers from it:
    every value and ``details`` field equals the reference on each."""

    def test_first_second_third_probe(self, name, make, operand_pairs):
        for a, d in operand_pairs:
            key = ("stab_table", a.fingerprint, d.fingerprint)
            with reference_probes():
                want = make(5).estimate(a, d)
            cache = IndexCache()
            with use_index_cache(cache):
                for probe in (1, 2, 3):
                    got = make(5).estimate(a, d)
                    assert got.value == want.value, (name, a.name, probe)
                    assert got.details == want.details, (name, a.name, probe)
                    assert (key in cache) == (probe >= 2), (name, probe)
            # probe 1: the table misses; probe 2: the table misses again
            # and is built, fetching the ancestor arena (its first miss);
            # probe 3: the table hits, and the arena is not fetched.
            assert (cache.hits, cache.misses) == (1, 3), (name, a.name)
