"""Tests for repro.maintenance: incremental statistics under updates."""

import statistics
from collections import Counter

import numpy as np
import pytest

from repro.core.element import Element
from repro.core.errors import EstimationError, ReproError
from repro.core.rng import make_rng
from repro.core.nodeset import NodeSet
from repro.core.workspace import Workspace
from repro.estimators.pl_histogram import PLHistogram, PLHistogramEstimator
from repro.join import containment_join_size
from repro.maintenance import (
    DynamicTTree,
    IncrementalCellHistogram,
    IncrementalPLHistogram,
    ReservoirSample,
)
from repro.models.position import turning_points


@pytest.fixture(scope="module")
def xmark_sets():
    from repro.datasets import generate_xmark

    dataset = generate_xmark(scale=0.05, seed=101)
    return (
        dataset.node_set("desp"),
        dataset.node_set("text"),
        dataset.tree.workspace(),
    )


class TestIncrementalPLHistogram:
    def test_matches_batch_build_after_inserts(self, xmark_sets):
        ancestors, __, workspace = xmark_sets
        incremental = IncrementalPLHistogram(workspace, 12)
        for element in ancestors:
            incremental.insert(element)
        batch = PLHistogram.build_ancestor(ancestors, workspace, 12)
        live = incremental.ancestor_histogram()
        for built, maintained in zip(batch.buckets, live.buckets):
            assert built.n == maintained.n
            assert built.total_length == pytest.approx(
                maintained.total_length
            )

    def test_descendant_counts_match(self, xmark_sets):
        __, descendants, workspace = xmark_sets
        incremental = IncrementalPLHistogram(workspace, 12)
        for element in descendants:
            incremental.insert(element)
        batch = PLHistogram.build_descendant(descendants, workspace, 12)
        live = incremental.descendant_histogram()
        assert [b.n for b in batch.buckets] == [b.n for b in live.buckets]

    def test_insert_then_remove_is_identity(self, xmark_sets):
        ancestors, __, workspace = xmark_sets
        incremental = IncrementalPLHistogram(workspace, 8)
        subset = ancestors.elements[:50]
        for element in subset:
            incremental.insert(element)
        extra = ancestors.elements[50:80]
        for element in extra:
            incremental.insert(element)
        for element in extra:
            incremental.remove(element)
        assert len(incremental) == 50
        reference = IncrementalPLHistogram(workspace, 8)
        for element in subset:
            reference.insert(element)
        assert [
            (b.n, b.total_length)
            for b in incremental.ancestor_histogram().buckets
        ] == [
            (b.n, b.total_length)
            for b in reference.ancestor_histogram().buckets
        ]

    def test_estimation_through_maintained_histograms(self, xmark_sets):
        ancestors, descendants, workspace = xmark_sets
        anc = IncrementalPLHistogram(workspace, 20)
        desc = IncrementalPLHistogram(workspace, 20)
        for element in ancestors:
            anc.insert(element)
        for element in descendants:
            desc.insert(element)
        estimator = PLHistogramEstimator(num_buckets=20)
        live = estimator.estimate_from_histograms(
            anc.ancestor_histogram(), desc.descendant_histogram()
        )
        batch = estimator.estimate(ancestors, descendants, workspace)
        assert live.value == pytest.approx(batch.value)

    def test_out_of_workspace_rejected(self):
        incremental = IncrementalPLHistogram(Workspace(1, 10), 2)
        with pytest.raises(EstimationError):
            incremental.insert(Element("a", 5, 20))

    def test_over_removal_rejected(self):
        incremental = IncrementalPLHistogram(Workspace(1, 10), 2)
        with pytest.raises(EstimationError):
            incremental.remove(Element("a", 2, 3))

    def test_invalid_configuration(self):
        with pytest.raises(EstimationError):
            IncrementalPLHistogram(Workspace(1, 10), 0)
        with pytest.raises(EstimationError):
            IncrementalPLHistogram(Workspace(1, 10), 2, length_mode="nope")


class TestDynamicTTree:
    def test_matches_static_turning_points(self, xmark_sets):
        ancestors, __, __ws = xmark_sets
        dynamic = DynamicTTree.from_node_set(ancestors)
        assert dynamic.turning_points() == turning_points(ancestors)

    def test_counts_match_node_set(self, xmark_sets):
        ancestors, __, workspace = xmark_sets
        dynamic = DynamicTTree.from_node_set(ancestors)
        rng = np.random.default_rng(0)
        for position in rng.integers(workspace.lo, workspace.hi, size=200):
            assert dynamic.count(int(position)) == ancestors.stab_count(
                int(position)
            )

    def test_insert_then_delete_restores(self, figure1_tree):
        a, __ = figure1_tree
        dynamic = DynamicTTree.from_node_set(a)
        before = dynamic.turning_points()
        extra = Element("a", 5, 6, 2)
        dynamic.insert(extra)
        assert dynamic.count(5) == a.stab_count(5) + 1
        dynamic.delete(extra)
        assert dynamic.turning_points() == before
        assert len(dynamic) == len(a)

    def test_adjacent_intervals_cancel_events(self):
        dynamic = DynamicTTree()
        dynamic.insert(Element("a", 1, 4))
        dynamic.insert(Element("a", 5, 8))
        # The -1 at 5 from (1,4) cancels the +1 at 5 from (5,8).
        assert dynamic.turning_points() == [(1, 1), (9, 0)]

    def test_delete_never_inserted_detected(self):
        """Detection fires when a prefix sum goes negative (best effort:
        a phantom deletion nested strictly inside live coverage cannot be
        distinguished from a legal one)."""
        dynamic = DynamicTTree()
        dynamic.insert(Element("a", 1, 4))
        dynamic.delete(Element("a", 2, 8))  # never inserted
        with pytest.raises(ReproError):
            dynamic.count(2)

    def test_delete_from_empty(self):
        with pytest.raises(ReproError):
            DynamicTTree().delete(Element("a", 1, 2))

    def test_empty_counts_zero(self):
        assert DynamicTTree().count(100) == 0

    def test_lazy_recompile_amortizes(self, xmark_sets):
        ancestors, __, __ws = xmark_sets
        dynamic = DynamicTTree()
        for element in ancestors.elements[:100]:
            dynamic.insert(element)
        dynamic.count(1)  # compiles
        assert not dynamic._dirty
        dynamic.insert(ancestors.elements[100])
        assert dynamic._dirty


class TestReservoirSample:
    def test_fills_to_capacity(self):
        reservoir = ReservoirSample(capacity=5, seed=0)
        elements = [Element("d", 2 * i + 1, 2 * i + 2) for i in range(3)]
        reservoir.extend(elements)
        assert len(reservoir) == 3
        assert reservoir.seen == 3
        assert reservoir.sample == elements

    def test_capacity_respected(self):
        reservoir = ReservoirSample(capacity=10, seed=1)
        reservoir.extend(
            Element("d", 2 * i + 1, 2 * i + 2) for i in range(500)
        )
        assert len(reservoir) == 10
        assert reservoir.seen == 500

    def test_invalid_capacity(self):
        with pytest.raises(EstimationError):
            ReservoirSample(capacity=0)

    def test_uniformity(self):
        """Every stream element must be retained with probability k/n."""
        stream = [Element("d", 2 * i + 1, 2 * i + 2) for i in range(50)]
        hits = {element.start: 0 for element in stream}
        trials = 400
        for seed in range(trials):
            reservoir = ReservoirSample(capacity=10, seed=seed)
            reservoir.extend(stream)
            for kept in reservoir.sample:
                hits[kept.start] += 1
        expected = trials * 10 / 50
        for count in hits.values():
            assert abs(count - expected) < expected * 0.5

    def test_im_estimate_unbiased(self, xmark_sets):
        ancestors, descendants, __ = xmark_sets
        true = containment_join_size(ancestors, descendants)
        estimates = []
        for seed in range(100):
            reservoir = ReservoirSample(capacity=60, seed=seed)
            reservoir.extend(descendants)
            estimates.append(reservoir.im_estimate(ancestors))
        assert abs(statistics.fmean(estimates) - true) / true < 0.07

    def test_im_estimate_exact_when_capacity_exceeds_stream(
        self, xmark_sets
    ):
        ancestors, descendants, __ = xmark_sets
        reservoir = ReservoirSample(capacity=10**6, seed=0)
        reservoir.extend(descendants)
        assert reservoir.im_estimate(ancestors) == containment_join_size(
            ancestors, descendants
        )

    def test_im_estimate_empty(self):
        reservoir = ReservoirSample(capacity=5, seed=0)
        assert reservoir.im_estimate(NodeSet([])) == 0.0


class TestDynamicTTreeChurn:
    """Delete-heavy paths: emptying, reinsertion, mixed churn."""

    def test_delete_to_empty_then_reinsert(self):
        elements = [Element("a", 4 * i + 1, 4 * i + 3) for i in range(8)]
        dynamic = DynamicTTree(elements)
        for element in elements:
            dynamic.delete(element)
        assert len(dynamic) == 0
        assert dynamic.turning_points() == []
        assert dynamic.count(5) == 0
        dynamic.insert(elements[3])
        assert len(dynamic) == 1
        assert dynamic.count(elements[3].start) == 1

    def test_delete_marks_dirty_and_recompiles(self, xmark_sets):
        ancestors, __, __ws = xmark_sets
        dynamic = DynamicTTree.from_node_set(ancestors)
        victim = ancestors.elements[7]
        dynamic.count(1)  # compiles
        assert not dynamic._dirty
        dynamic.delete(victim)
        assert dynamic._dirty
        expected = ancestors.stab_count(int(victim.start)) - 1
        assert dynamic.count(int(victim.start)) == expected
        assert not dynamic._dirty

    def test_random_churn_matches_stabbing_counter(self, xmark_sets):
        ancestors, __, __ws = xmark_sets
        rng = np.random.default_rng(5)
        live = list(ancestors.elements[:120])
        dynamic = DynamicTTree(live)
        free = list(ancestors.elements[120:240])
        for __round in range(200):
            if free and (not live or rng.random() < 0.4):
                element = free.pop(int(rng.integers(0, len(free))))
                dynamic.insert(element)
                live.append(element)
            else:
                element = live.pop(int(rng.integers(0, len(live))))
                dynamic.delete(element)
                free.append(element)
        reference = NodeSet(tuple(live))
        probes = {e.start for e in live} | {e.end for e in live}
        for position in sorted(probes):
            assert dynamic.count(int(position)) == reference.stab_count(
                int(position)
            )
        assert len(dynamic) == len(live)


class TestReservoirUnderDeletes:
    """Random pairing keeps the sample uniform under delete-heavy feeds."""

    #: chi-square critical values at alpha = 0.001 for the df used below
    #: (no scipy in the image; values from the standard table).
    CHI2_999 = {29: 58.301}

    def test_delete_heavy_feed_stays_uniform(self):
        """Chi-square gate on inclusion counts over a fixed churn script.

        The op sequence is identical across trials (only the reservoir
        seed varies): load 40 elements, delete 25, insert the remaining
        20, delete 5 more — a delete-heavy feed ending at a fixed
        30-element population.  Uniformity means every survivor is
        sampled equally often across trials.
        """
        pool = [Element("d", 4 * i + 1, 4 * i + 3) for i in range(60)]
        trials = 500
        capacity = 12
        inclusion: dict[int, int] = {}
        total_sampled = 0
        survivors = None
        for seed in range(trials):
            reservoir = ReservoirSample(capacity, seed=seed)
            live = []
            for element in pool[:40]:
                reservoir.add(element)
                live.append(element)
            for element in pool[5:30]:
                reservoir.remove(element)
                live.remove(element)
            for element in pool[40:]:
                reservoir.add(element)
                live.append(element)
            for element in pool[:5]:
                reservoir.remove(element)
                live.remove(element)
            if survivors is None:
                survivors = [e.start for e in live]
                inclusion = {start: 0 for start in survivors}
            assert len(live) == 30
            sample = reservoir.sample
            assert len(sample) <= capacity
            starts = {e.start for e in live}
            for kept in sample:
                assert kept.start in starts
                inclusion[kept.start] += 1
            total_sampled += len(sample)
        expected = total_sampled / 30
        chi2 = sum(
            (count - expected) ** 2 / expected
            for count in inclusion.values()
        )
        assert chi2 < self.CHI2_999[29], (
            f"chi-square {chi2:.1f} over df=29 rejects uniformity "
            f"(inclusion counts {sorted(inclusion.values())})"
        )

    def test_live_tracks_population(self):
        reservoir = ReservoirSample(4, seed=3)
        elements = [Element("d", 4 * i + 1, 4 * i + 3) for i in range(10)]
        for element in elements:
            reservoir.add(element)
        assert reservoir.live == 10
        for element in elements[:9]:
            reservoir.remove(element)
        assert reservoir.live == 1
        assert reservoir.seen == 10
        with pytest.raises(EstimationError):
            for __ in range(2):
                reservoir.remove(elements[9])

    def test_add_only_path_matches_classic_algorithm_r(self):
        """No deletion ever issued -> bit-identical to the old reservoir."""
        stream = [Element("d", 2 * i + 1, 2 * i + 2) for i in range(200)]
        classic = ReservoirSample(8, seed=42)
        classic.extend(stream)
        replay = ReservoirSample(8, seed=42)
        replay.extend(stream)
        assert classic.sample == replay.sample
        assert classic.live == classic.seen == 200


class TestLiveWorkspaceDeltaEdgeCases:
    """Incremental-delta edge cases: the stream layer and the four
    maintained synopses, fed the same mutations."""

    def _workspace(self):
        from repro.stream import LiveWorkspace

        elements = [Element("a", 4 * i + 1, 4 * i + 3) for i in range(6)]
        live = LiveWorkspace(Workspace(0, 40), elements=elements)
        return live, elements

    def test_empty_batch_is_a_noop_but_advances_seq(self):
        from repro.core.errors import StreamError  # noqa: F401

        live, elements = self._workspace()
        before_fp = live.fingerprint("a")
        seq = live.apply([])
        assert seq == 1
        assert live.applied_seq == 1
        assert live.applied_batches == 1
        assert live.applied_mutations == 0
        assert live.size("a") == len(elements)
        assert live.fingerprint("a") == before_fp

    def test_delete_all_then_reinsert(self):
        from repro.stream import Mutation

        live, elements = self._workspace()
        pl = IncrementalPLHistogram(live.workspace, 4)
        cells = IncrementalCellHistogram(live.workspace)
        ttree = DynamicTTree()
        reservoir = ReservoirSample(64, seed=1)
        synopses = (pl, cells, ttree, reservoir)
        for element in elements:
            pl.insert(element)
            cells.insert(element)
            ttree.insert(element)
            reservoir.add(element)
        assert len(reservoir) == len(elements)
        live.apply([Mutation("delete", e) for e in elements])
        for element in elements:
            pl.remove(element)
            cells.remove(element)
            ttree.delete(element)
            reservoir.remove(element)
        assert live.size("a") == 0
        assert all(len(synopsis) == 0 for synopsis in synopses)
        assert reservoir.live == 0
        assert len(live.node_set("a")) == 0
        assert ttree.turning_points() == []
        assert all(
            bucket.n == 0 for bucket in pl.ancestor_histogram().buckets
        )
        assert dict(cells.cell_histogram()) == {}
        live.apply([Mutation("insert", elements[2])])
        pl.insert(elements[2])
        cells.insert(elements[2])
        ttree.insert(elements[2])
        reservoir.add(elements[2])
        assert live.size("a") == 1
        assert live.rebuild_node_set("a").elements == (elements[2],)
        assert ttree.turning_points() == [
            (elements[2].start, 1),
            (elements[2].end + 1, 0),
        ]
        assert reservoir.sample == [elements[2]]

    def test_duplicate_insert_rejected(self):
        from repro.core.errors import StreamError
        from repro.stream import Mutation

        live, elements = self._workspace()
        with pytest.raises(StreamError, match="duplicate insert"):
            live.apply([Mutation("insert", elements[0])])

    def test_delete_of_non_live_element_rejected(self):
        from repro.core.errors import StreamError
        from repro.stream import Mutation

        live, __ = self._workspace()
        with pytest.raises(StreamError, match="non-live"):
            live.apply([Mutation("delete", Element("a", 2, 3))])


class _ListScanReservoir:
    """Reference: random pairing that finds deletes by scanning the
    sample list, the algorithm ReservoirSample must reproduce."""

    def __init__(self, capacity, seed):
        self.capacity = capacity
        self.rng = make_rng(seed)
        self.items = []
        self.live = 0
        self.holes_in = 0
        self.holes_out = 0

    def add(self, element):
        self.live += 1
        holes = self.holes_in + self.holes_out
        if holes:
            if int(self.rng.integers(0, holes)) < self.holes_in:
                self.items.append(element)
                self.holes_in -= 1
            else:
                self.holes_out -= 1
            return
        if len(self.items) < self.capacity:
            self.items.append(element)
            return
        slot = int(self.rng.integers(0, self.live))
        if slot < self.capacity:
            self.items[slot] = element

    def remove(self, element):
        self.live -= 1
        try:
            self.items.remove(element)
        except ValueError:
            self.holes_out += 1
        else:
            self.holes_in += 1


class TestReservoirMatchesListScan:
    """The multiplicity map decides deletes exactly as a list scan."""

    def _check(self, reservoir, reference):
        assert reservoir.sample == reference.items  # same order
        assert [id(e) for e in reservoir.sample] == [
            id(e) for e in reference.items
        ]
        assert reservoir._holes_in == reference.holes_in
        assert reservoir._holes_out == reference.holes_out
        assert reservoir.live == reference.live
        assert (
            reservoir._rng.bit_generator.state
            == reference.rng.bit_generator.state
        )
        assert reservoir._counts == Counter(reference.items)

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_insert_delete_script(self, seed):
        """Random churn over a pool with equal-by-value duplicates.

        Each pool value exists as two distinct Element objects, so
        deletes hit by value, not identity; the script deletes unsampled
        and sampled elements alike and drains to empty more than once.
        """
        rng = np.random.default_rng(seed)
        values = [(4 * i + 1, 4 * i + 3) for i in range(40)]
        copies = [
            [Element("d", s, e) for s, e in values] for __ in range(2)
        ]
        capacity = int(rng.integers(1, 12))
        reservoir = ReservoirSample(capacity, seed=seed)
        reference = _ListScanReservoir(capacity, seed=seed)
        live = []  # multiset of live values, as pool indexes
        for __ in range(600):
            drain = rng.random() < 0.01
            if drain:
                while live:
                    index = live.pop()
                    element = copies[int(rng.integers(0, 2))][index]
                    reservoir.remove(element)
                    reference.remove(element)
                    self._check(reservoir, reference)
                assert reservoir.live == 0 and len(reservoir) == 0
                continue
            if live and rng.random() < 0.45:
                index = live.pop(int(rng.integers(0, len(live))))
                element = copies[int(rng.integers(0, 2))][index]
                reservoir.remove(element)
                reference.remove(element)
            else:
                index = int(rng.integers(0, len(values)))
                live.append(index)
                element = copies[int(rng.integers(0, 2))][index]
                reservoir.add(element)
                reference.add(element)
            self._check(reservoir, reference)

    def test_delete_to_empty_and_refill(self):
        elements = [Element("d", 4 * i + 1, 4 * i + 3) for i in range(12)]
        reservoir = ReservoirSample(5, seed=2)
        reference = _ListScanReservoir(5, seed=2)
        for round_ in range(3):
            for element in elements:
                reservoir.add(element)
                reference.add(element)
                self._check(reservoir, reference)
            for element in reversed(elements):
                reservoir.remove(Element("d", element.start, element.end))
                reference.remove(Element("d", element.start, element.end))
                self._check(reservoir, reference)
            assert reservoir.live == 0 and len(reservoir) == 0
