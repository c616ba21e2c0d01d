"""The repro.kernels layer: arenas, fused kernels, backend registry.

Three contracts pinned here:

* **backend registry** — numpy is always available; selecting numba on
  a numpy-only install falls back silently and reports the fallback;
  unknown names raise; ``use_kernel_backend`` restores the previous
  backend on exit (including on error).
* **fused-vs-reference parity** — every sampling estimator produces
  bit-for-bit identical estimates under the fused single-pass kernels
  and under :func:`repro.perf.reference_kernels` (which rebuilds the
  paper's per-call index composition), on every probe backend and every
  available kernel backend, with and without an ambient
  :class:`~repro.perf.IndexCache` (the table-gather tier).
* **arena semantics** — operand arenas are views (no copies), fresh
  wrappers without a cache (no reference cycle pins an operand) and
  content-keyed through the cache with one; the stab-count table equals
  the stabbing counter evaluated over every descendant start, is built
  on a pair's second probe and gathered from on the third; reference
  mode bypasses the turning-point cache on the node set.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.element import Element
from repro.core.errors import ReproError
from repro.core.nodeset import NodeSet
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
from repro.index.stab import StabbingCounter
from repro.kernels import (
    KNOWN_BACKENDS,
    OPERAND_FIELDS,
    OperandArena,
    available_backends,
    kernel_backend,
    operand_arena,
    set_kernel_backend,
    stab_count_table,
    use_kernel_backend,
)
from repro.perf import IndexCache, reference_kernels, use_index_cache

NUMBA_INSTALLED = "numba" in available_backends()


@pytest.fixture
def operands(xmark_small):
    tree = xmark_small.tree
    return tree.node_set("desp"), tree.node_set("text")


class TestBackendRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()
        assert set(available_backends()) <= set(KNOWN_BACKENDS)

    def test_default_backend_is_numpy(self):
        assert kernel_backend() == "numpy"

    def test_unknown_backend_raises(self):
        with pytest.raises(ReproError, match="unknown kernel backend"):
            set_kernel_backend("cython")
        # the failed call must not have changed the active backend
        assert kernel_backend() == "numpy"

    def test_numba_selection_reports_actual_backend(self):
        # The soft-dependency contract: selecting numba either activates
        # it (installed) or falls back to numpy silently (absent) — the
        # return value always names what is actually running.
        try:
            active = set_kernel_backend("numba")
            expected = "numba" if NUMBA_INSTALLED else "numpy"
            assert active == expected
            assert kernel_backend() == expected
        finally:
            set_kernel_backend("numpy")

    def test_use_kernel_backend_restores(self):
        before = kernel_backend()
        with use_kernel_backend("numba") as active:
            assert active == kernel_backend()
            assert active in available_backends()
        assert kernel_backend() == before

    def test_use_kernel_backend_restores_on_error(self):
        before = kernel_backend()
        with pytest.raises(RuntimeError):
            with use_kernel_backend("numba"):
                raise RuntimeError("boom")
        assert kernel_backend() == before


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
    def test_bit_for_bit(self, name, make, cached, operands):
        """Fused kernels == the paper's index composition, exactly."""
        a, d = operands
        for seed in (0, 7):
            with reference_kernels():
                want = _estimate(make, seed, a, d, None)
            cache = IndexCache() if cached else None
            got = _estimate(make, seed, a, d, cache)
            assert got.value == want.value, name
            assert got.details == want.details, name

    def test_backends_agree(self, name, make, cached, operands):
        """Every available kernel backend produces identical results."""
        a, d = operands
        cache = IndexCache() if cached else None
        results = []
        for backend in available_backends():
            with use_kernel_backend(backend):
                results.append(_estimate(make, 3, a, d, cache))
        first = results[0]
        for other in results[1:]:
            assert other.value == first.value, name
            assert other.details == first.details, name


class TestFusedEdgeCases:
    def test_empty_descendants_short_circuit(self, figure1_tree):
        # An empty descendant operand clamps the sample count to zero:
        # the fused m == 0 guard must reproduce the reference's empty
        # answer, not divide by zero.
        a, __ = figure1_tree
        est = IMSamplingEstimator(num_samples=4, seed=0).estimate(
            a, NodeSet([])
        )
        with reference_kernels():
            want = IMSamplingEstimator(num_samples=4, seed=0).estimate(
                a, NodeSet([])
            )
        assert est.value == want.value == 0.0
        assert est.details == want.details

    def test_single_element_operands(self):
        a = NodeSet([Element("a", 1, 4, 0)])
        d = NodeSet([Element("d", 2, 3, 1)])
        for __, make in ESTIMATOR_CASES:
            with reference_kernels():
                want = make(1).estimate(a, d)
            got = make(1).estimate(a, d)
            assert got.value == want.value
            assert got.details == want.details


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

        # A first round outside the measured one: lazy imports and a
        # compiled backend's first-call compilation leave garbage of
        # their own.
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
        want = StabbingCounter(a).count_many(d.starts)
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

    def test_first_second_third_probe(self, name, make, operands):
        a, d = operands
        key = ("stab_table", a.fingerprint, d.fingerprint)
        with reference_kernels():
            want = make(5).estimate(a, d)
        for backend in available_backends():
            cache = IndexCache()
            with use_kernel_backend(backend), use_index_cache(cache):
                for probe in (1, 2, 3):
                    got = make(5).estimate(a, d)
                    assert got.value == want.value, (name, backend, probe)
                    assert got.details == want.details, (name, backend, probe)
                    assert (key in cache) == (probe >= 2), (name, probe)
            # probe 1: the table misses; probe 2: the table misses again
            # and is built, fetching the ancestor arena (its first miss);
            # probe 3: the table hits, and the arena is not fetched.
            assert (cache.hits, cache.misses) == (1, 3), (name, backend)
