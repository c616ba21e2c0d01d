"""Tests for repro.optimizer: chain sizes and join-order planning."""

import math
import random
import re
import struct

import pytest

from repro.core.element import Element
from repro.core.errors import EstimationError, PlanError
from repro.core.nodeset import NodeSet
from repro.estimators.im_sampling import IMSamplingEstimator
from repro.join import containment_join_size
from repro.optimizer import chain_join_size, optimize, optimize_chain, plan_cost
from repro.optimizer.generator import (
    CardinalityGenerator,
    PairwiseGenerator,
    PlanningState,
    as_generator,
)
from repro.optimizer.planner import JoinPlan
from repro.xmltree import parse_xml


class _ExactEstimator:
    """Test double: an 'estimator' that returns the exact join size."""

    name = "EXACT"

    def estimate(self, ancestors, descendants, workspace=None):
        from repro.estimators.base import Estimate

        return Estimate(
            float(containment_join_size(ancestors, descendants)), self.name
        )


class _TableGenerator(CardinalityGenerator):
    """Segment sizes read from a table; leaves exact."""

    name = "TABLE"

    def __init__(self, sizes):
        self.sizes = sizes

    def estimate_join(self, lo, hi, state):
        if lo == hi:
            return float(len(state.node_sets[lo]))
        return self.sizes[(lo, hi)]


class _RecordingPairs(PairwiseGenerator):
    """Pair estimates read from a list; records each index asked for."""

    name = "RECORDING"

    def __init__(self, pairs):
        self.pairs = pairs
        self.asked = []

    def estimate_pair(self, index, state):
        self.asked.append(index)
        return self.pairs[index]


def _chain(sizes):
    """Disjoint leaf elements: one node set of each size."""
    return [
        NodeSet([Element(f"t{i}", 2 * n + 1, 2 * n + 2) for n in range(size)])
        for i, size in enumerate(sizes)
    ]


def brute_force_chain(node_sets):
    """O(prod |s_i|) chain count for validation."""

    def extend(prefix_element, depth):
        if depth == len(node_sets):
            return 1
        total = 0
        for element in node_sets[depth]:
            if prefix_element is None or prefix_element.is_ancestor_of(
                element
            ):
                total += extend(element, depth + 1)
        return total

    return extend(None, 0)


@pytest.fixture(scope="module")
def paper_doc():
    return parse_xml(
        "<lib>"
        "<paper><appendix><table/><table/></appendix></paper>"
        "<paper><appendix/></paper>"
        "<paper><section><table/></section></paper>"
        "<table/>"
        "</lib>"
    )


class TestChainJoinSize:
    def test_two_sets_equals_containment_join(self, figure1_tree):
        a, d = figure1_tree
        assert chain_join_size([a, d]) == containment_join_size(a, d)

    def test_single_set(self, figure1_tree):
        a, __ = figure1_tree
        assert chain_join_size([a]) == len(a)

    def test_paper_intro_example(self, paper_doc):
        """//paper//appendix//table has exactly 2 matches."""
        sets = [
            paper_doc.node_set(tag) for tag in ("paper", "appendix", "table")
        ]
        assert chain_join_size(sets) == 2
        assert chain_join_size(sets) == brute_force_chain(sets)

    def test_empty_link_breaks_chain(self, paper_doc):
        sets = [
            paper_doc.node_set("paper"),
            paper_doc.node_set("nothing"),
            paper_doc.node_set("table"),
        ]
        assert chain_join_size(sets) == 0

    def test_multiplicities(self):
        # Two nested a's over one d: chain a//a//d counts once per pair.
        a = NodeSet([Element("a", 1, 10), Element("a", 2, 9)])
        d = NodeSet([Element("d", 3, 4)])
        assert chain_join_size([a, a, d]) == 1  # outer->inner->d only
        assert chain_join_size([a, d]) == 2

    def test_against_brute_force_on_dataset(self, xmark_small):
        sets = [
            xmark_small.node_set(tag)
            for tag in ("open_auction", "annotation", "desp")
        ]
        # DP result must match the per-descendant accumulation definition:
        expected = 0
        annotations = sets[1]
        desps = sets[2]
        auctions = sets[0]
        for desp in desps:
            for ann in annotations:
                if not ann.is_ancestor_of(desp):
                    continue
                for auc in auctions:
                    if auc.is_ancestor_of(ann):
                        expected += 1
        assert chain_join_size(sets) == expected

    def test_empty_chain_rejected(self):
        with pytest.raises(EstimationError):
            chain_join_size([])


class TestOptimizeChain:
    def test_picks_smaller_intermediate(self, paper_doc):
        """The intro scenario: join the cheaper pair first."""
        names = ["paper", "appendix", "table"]
        sets = [paper_doc.node_set(tag) for tag in names]
        plan = optimize(sets, _ExactEstimator())
        # |paper ⋈ appendix| = 2, |appendix ⋈ table| = 2: tie; both plans
        # cost the same, so we only require a valid two-join plan.
        assert plan.lo == 0 and plan.hi == 2
        assert not plan.is_leaf

    def test_asymmetric_choice(self, xmark_small):
        """On real data the pair sizes differ; exact costs must justify
        the plan: its cost is minimal among both 3-chain options."""
        sets = [
            xmark_small.node_set(tag)
            for tag in ("open_auction", "annotation", "text")
        ]
        plan = optimize(sets, _ExactEstimator())
        left_first = containment_join_size(sets[0], sets[1])
        right_first = containment_join_size(sets[1], sets[2])
        chosen_first = (
            left_first if plan.left.hi == 1 else right_first
        )
        assert chosen_first == min(left_first, right_first)

    def test_plan_cost_matches_structure(self, xmark_small):
        sets = [
            xmark_small.node_set(tag)
            for tag in ("desp", "parlist", "listitem", "text")
        ]
        plan = optimize(sets, _ExactEstimator())
        # plan_cost sums intermediate sizes excluding the root.
        def collect(node, is_root=True):
            if node.is_leaf:
                return []
            sizes = [] if is_root else [node.estimated_size]
            return (
                sizes + collect(node.left, False) + collect(node.right, False)
            )

        assert plan_cost(plan) == pytest.approx(sum(collect(plan)))

    def test_describe(self):
        leaf_a = JoinPlan(0, 0, 10)
        leaf_b = JoinPlan(1, 1, 20)
        parent = JoinPlan(0, 1, 5, leaf_a, leaf_b)
        assert parent.describe(["x", "y"]) == "(x ⋈ y)"

    def test_too_short_chain_rejected(self, figure1_tree):
        a, __ = figure1_tree
        with pytest.raises(EstimationError):
            optimize([a], _ExactEstimator())

    def test_unplannable_segment_raises_plan_error(self):
        """Every split of 0..2 costs NaN (or +inf, from a pairwise
        inf·0 past an empty interior set): a typed error naming the
        segment, not an assert that ``python -O`` strips."""
        nan = math.nan
        sizes = {(0, 1): nan, (1, 2): nan, (0, 2): 1.0}
        with pytest.raises(PlanError, match=r"segment 0\.\.2"):
            optimize(_chain([1, 2, 3]), _TableGenerator(sizes))
        pairwise = _RecordingPairs([math.inf, math.inf])
        with pytest.raises(PlanError, match=r"segment 0\.\.2"):
            optimize(_chain([1, 0, 1]), pairwise)

    def test_works_with_sampling_estimator(self, xmark_small):
        sets = [
            xmark_small.node_set(tag)
            for tag in ("open_auction", "bidder", "increase")
        ]
        estimator = IMSamplingEstimator(num_samples=50, seed=3)
        plan = optimize(
            sets, estimator, workspace=xmark_small.tree.workspace()
        )
        assert plan_cost(plan) >= 0.0

    def test_optimize_chain_shim_warns_and_matches(self, xmark_small):
        """The deprecated estimator-argument entry point still works,
        warns, and plans identically to the generator-native path."""
        sets = [
            xmark_small.node_set(tag)
            for tag in ("open_auction", "annotation", "text")
        ]
        workspace = xmark_small.tree.workspace()
        with pytest.warns(DeprecationWarning, match="optimize_chain"):
            legacy = optimize_chain(
                sets, IMSamplingEstimator(num_samples=50, seed=3), workspace
            )
        direct = optimize(
            sets,
            IMSamplingEstimator(num_samples=50, seed=3),
            workspace=workspace,
        )
        assert legacy == direct


# ----------------------------------------------------------------------
# Differential oracle: the flat-table DP and the iterative pairwise
# composition against the dict-based DP and the closure-recursive
# composition they replaced, kept here as the reference.
# ----------------------------------------------------------------------


class _Unplannable(Exception):
    """Where the reference DP tripped its bare ``assert``."""


def reference_optimize(node_sets, generator):
    """The matrix-chain DP over ``(cost, plan)`` dicts that builds a
    :class:`JoinPlan` for every improving split."""
    gen = as_generator(generator)
    gen.setup_for_workload(None, None)
    state = PlanningState(tuple(node_sets))
    gen.pre_check(state)
    k = len(node_sets)
    segment_size = [[0.0] * k for __ in range(k)]
    for length in range(1, k + 1):
        for i in range(k - length + 1):
            j = i + length - 1
            segment_size[i][j] = gen.estimate_join(i, j, state)
    best = {}
    cost = {}
    for i in range(k):
        best[(i, i)] = JoinPlan(i, i, segment_size[i][i])
        cost[(i, i)] = 0.0
    for length in range(2, k + 1):
        for i in range(k - length + 1):
            j = i + length - 1
            champion = None
            champion_cost = float("inf")
            for split in range(i, j):
                left = best[(i, split)]
                right = best[(split + 1, j)]
                subtotal = (
                    cost[(i, split)]
                    + cost[(split + 1, j)]
                    + (0.0 if split == i else segment_size[i][split])
                    + (0.0 if split + 1 == j else segment_size[split + 1][j])
                )
                if subtotal < champion_cost:
                    champion_cost = subtotal
                    champion = JoinPlan(
                        i, j, segment_size[i][j], left, right
                    )
            if champion is None:
                raise _Unplannable(f"{i}..{j}")
            best[(i, j)] = champion
            cost[(i, j)] = champion_cost
    return best[(0, k - 1)]


def reference_estimate_join(self, lo, hi, state):
    """Pairwise composition by two closures and a segment memo,
    recursing on ``segment(i, j - 1)``."""
    if lo == hi:
        return float(len(state.node_sets[lo]))
    pairs = state.scratch.setdefault(("pairs", id(self)), {})
    segments = state.scratch.setdefault(("segments", id(self)), {})

    def pair(index):
        cached = pairs.get(index)
        if cached is None:
            cached = max(0.0, self.estimate_pair(index, state))
            pairs[index] = cached
        return cached

    def segment(i, j):
        if i == j:
            return float(len(state.node_sets[i]))
        if j == i + 1:
            return pair(i)
        cached = segments.get((i, j))
        if cached is None:
            previous = segment(i, j - 1)
            base = len(state.node_sets[j - 1])
            fanout = pair(j - 1) / base if base else 0.0
            cached = previous * fanout
            segments[(i, j)] = cached
        return cached

    return segment(lo, hi)


class _ReferenceRecordingPairs(_RecordingPairs):
    estimate_join = reference_estimate_join


#: Pair estimates: zeros, exact ties, a clamped negative, +inf and NaN.
PAIR_VALUES = (0.0, 1.0, 1.0, 2.5, 7.0, -3.0, 1e300, math.inf, math.nan)


def _bits(value):
    return struct.pack("<d", value)


def _plan_bits(plan):
    """``plan`` with every size as its IEEE-754 bits (NaN compares)."""
    if plan.is_leaf:
        return (plan.lo, _bits(plan.estimated_size))
    return (
        plan.lo,
        plan.hi,
        _bits(plan.estimated_size),
        _plan_bits(plan.left),
        _plan_bits(plan.right),
    )


def _outcome(plan_fn, node_sets, generator):
    try:
        return _plan_bits(plan_fn(node_sets, generator))
    except (PlanError, _Unplannable) as exc:
        return re.search(r"\d+\.\.\d+", str(exc)).group()


class TestPlannerDifferential:
    """Same plans, same ``estimate_pair`` order, same bits."""

    @pytest.mark.parametrize("k", range(2, 9))
    def test_table_driven_plans_match_reference(self, k):
        rng = random.Random(1500 + k)
        palette = (0.0, 0.0, 1.0, 2.0, 2.0, 3.0, 5.0, math.inf)
        planned = 0
        for __ in range(80):
            node_sets = _chain([rng.randrange(4) for __ in range(k)])
            generator = _TableGenerator(
                {
                    (i, j): rng.choice(palette)
                    for i in range(k)
                    for j in range(i + 1, k)
                }
            )
            try:
                expected = reference_optimize(node_sets, generator)
            except _Unplannable as exc:
                with pytest.raises(PlanError, match=re.escape(f" {exc} ")):
                    optimize(node_sets, generator)
                continue
            plan = optimize(node_sets, generator)
            assert plan == expected
            assert hash(plan) == hash(expected)
            planned += 1
        assert planned >= 20

    @pytest.mark.parametrize("k", range(2, 9))
    def test_pair_requests_match_reference_under_planner(self, k):
        rng = random.Random(2500 + k)
        for __ in range(60):
            node_sets = _chain([rng.randrange(4) for __ in range(k)])
            pairs = [rng.choice(PAIR_VALUES) for __ in range(k - 1)]
            new = _RecordingPairs(pairs)
            old = _ReferenceRecordingPairs(pairs)
            assert _outcome(optimize, node_sets, new) == _outcome(
                reference_optimize, node_sets, old
            )
            assert new.asked == old.asked

    def test_direct_calls_bit_equal_in_any_order(self):
        rng = random.Random(3500)
        for trial in range(300):
            k = rng.randint(2, 8)
            sizes = [rng.randrange(1, 4) for __ in range(k)]
            if k > 2 and trial % 2:
                sizes[rng.randrange(1, k - 1)] = 0  # empty interior set
            node_sets = _chain(sizes)
            pairs = [rng.choice(PAIR_VALUES) for __ in range(k - 1)]
            new = _RecordingPairs(pairs)
            old = _ReferenceRecordingPairs(pairs)
            new_state = PlanningState(tuple(node_sets))
            old_state = PlanningState(tuple(node_sets))
            for __ in range(3 * k):
                lo = rng.randrange(k)
                hi = rng.randrange(lo, k)
                assert _bits(new.estimate_join(lo, hi, new_state)) == _bits(
                    old.estimate_join(lo, hi, old_state)
                )
            assert new.asked == old.asked

    def test_empty_interior_pair_never_asked(self):
        generator = _RecordingPairs([4.0, 6.0, 8.0])
        state = PlanningState(tuple(_chain([2, 0, 3, 4])))
        assert generator.estimate_join(0, 3, state) == 0.0
        assert generator.asked == [0, 2]
        assert generator.estimate_join(1, 2, state) == 6.0
        assert generator.estimate_join(0, 3, state) == 0.0
        assert generator.asked == [0, 2, 1]
