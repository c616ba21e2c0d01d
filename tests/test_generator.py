"""Tests for the pluggable CardinalityGenerator optimizer API."""

import json
import math

import pytest

from repro.core.errors import (
    EstimationError,
    PlanError,
    UnknownEstimatorError,
    UnknownGeneratorError,
)
from repro.estimators.bounds import (
    containment_fanout_bounds,
    refined_join_bound,
)
from repro.estimators.im_sampling import IMSamplingEstimator
from repro.estimators.pl_histogram import PLHistogramEstimator
from repro.join import containment_join_size
from repro.optimizer import (
    BoundGenerator,
    EstimatorGenerator,
    ExactGenerator,
    JoinPlan,
    PlanningState,
    ServiceGenerator,
    as_generator,
    available_generators,
    chain_join_size,
    optimize,
    plan_cost,
    resolve_generator,
)
from repro.optimizer.regret import regret_report
from repro.service.engine import EstimationService


@pytest.fixture()
def chain_sets(xmark_small):
    return [
        xmark_small.node_set(tag)
        for tag in ("desp", "parlist", "listitem", "text")
    ]


@pytest.fixture()
def workspace(xmark_small):
    return xmark_small.tree.workspace()


class TestResolution:
    def test_native_generators_resolve(self):
        assert resolve_generator("exact").name == "EXACT"
        assert resolve_generator("EXACT").name == "EXACT"
        assert resolve_generator("ubound").name == "UBOUND"

    def test_aliases_resolve(self):
        assert resolve_generator("oracle").name == "EXACT"
        assert resolve_generator("pessimistic").name == "UBOUND"
        assert resolve_generator("ues").name == "UBOUND"
        assert resolve_generator("agm").name == "UBOUND"
        assert resolve_generator("upper-bound").name == "UBOUND"

    def test_estimator_names_resolve_to_adapter(self):
        generator = resolve_generator("pl-histogram", num_buckets=8)
        assert isinstance(generator, EstimatorGenerator)
        assert generator.name == "PL"

    def test_available_generators_superset_of_estimators(self):
        names = available_generators()
        assert "EXACT" in names and "UBOUND" in names
        assert "PL" in names and "IM" in names

    def test_unknown_name_raises_with_candidates(self):
        with pytest.raises(UnknownGeneratorError) as excinfo:
            resolve_generator("exat")
        assert "EXACT" in excinfo.value.candidates
        assert excinfo.value.name == "exat"

    def test_unknown_generator_error_is_unknown_estimator_error(self):
        """Handler compatibility: the new error slots into the taxonomy."""
        with pytest.raises(UnknownEstimatorError):
            resolve_generator("no-such-thing-at-all")

    def test_as_generator_passthrough_and_wrap(self):
        bound = BoundGenerator()
        assert as_generator(bound) is bound
        wrapped = as_generator(PLHistogramEstimator(num_buckets=8))
        assert isinstance(wrapped, EstimatorGenerator)
        with pytest.raises(PlanError):
            as_generator(bound, num_buckets=8)
        with pytest.raises(PlanError):
            as_generator(42)

    def test_instance_plus_config_rejected(self):
        with pytest.raises(PlanError):
            EstimatorGenerator(
                PLHistogramEstimator(num_buckets=8), num_buckets=16
            )


class TestAdapterBitIdentical:
    def test_adapter_vs_direct_identical_plans(self, chain_sets, workspace):
        """Wrapping the estimator explicitly, passing it bare, and
        passing its registry name must produce the identical plan —
        same structure AND bit-identical estimated sizes."""
        direct = optimize(
            chain_sets,
            PLHistogramEstimator(num_buckets=8),
            workspace=workspace,
        )
        wrapped = optimize(
            chain_sets,
            EstimatorGenerator(PLHistogramEstimator(num_buckets=8)),
            workspace=workspace,
        )
        named = optimize(
            chain_sets, "PL", workspace=workspace, num_buckets=8
        )
        assert direct == wrapped == named

    def test_seeded_sampling_adapter_deterministic(
        self, chain_sets, workspace
    ):
        plans = [
            optimize(
                chain_sets,
                IMSamplingEstimator(num_samples=50, seed=7),
                workspace=workspace,
            )
            for __ in range(2)
        ]
        assert plans[0] == plans[1]


class TestBoundGenerator:
    def test_pair_bound_never_underestimates(self, xmark_small):
        for a_tag, d_tag in [
            ("desp", "parlist"),
            ("parlist", "listitem"),
            ("open_auction", "text"),
            ("item", "keyword"),
        ]:
            a = xmark_small.node_set(a_tag)
            d = xmark_small.node_set(d_tag)
            true_size = containment_join_size(a, d)
            assert refined_join_bound(a, d) >= true_size

    def test_fanout_bounds_cover_true_fanouts(self, xmark_small):
        a = xmark_small.node_set("desp")
        d = xmark_small.node_set("listitem")
        fan = containment_fanout_bounds(a, d)
        per_ancestor = [
            sum(1 for e in d if anc.is_ancestor_of(e)) for anc in a
        ]
        per_descendant = [
            sum(1 for anc in a if anc.is_ancestor_of(e)) for e in d
        ]
        assert fan.max_fanout >= max(per_ancestor)
        assert fan.max_fanin >= max(per_descendant)

    def test_empty_operands(self, xmark_small):
        empty = xmark_small.node_set("no_such_tag")
        d = xmark_small.node_set("text")
        fan = containment_fanout_bounds(empty, d)
        assert (fan.max_fanout, fan.max_fanin) == (0, 0)
        assert refined_join_bound(empty, d) == 0

    def test_segment_bounds_never_underestimate(
        self, chain_sets, workspace
    ):
        """Every chain segment's bound encloses the exact chain size."""
        state = PlanningState(tuple(chain_sets), workspace=workspace)
        bound = BoundGenerator()
        k = len(chain_sets)
        for i in range(k):
            for j in range(i, k):
                estimate = bound.estimate_join(i, j, state)
                true_size = (
                    len(chain_sets[i])
                    if i == j
                    else chain_join_size(chain_sets[i : j + 1])
                )
                assert estimate >= true_size, (i, j)

    def test_bound_plan_segments_never_underestimate(
        self, chain_sets, workspace
    ):
        """The acceptance criterion: no node of a UBOUND plan carries
        an estimated size below the segment's true size."""
        plan = optimize(chain_sets, "ubound", workspace=workspace)

        def check(node):
            if node.is_leaf:
                return
            true_size = chain_join_size(
                chain_sets[node.lo : node.hi + 1]
            )
            assert node.estimated_size >= true_size
            check(node.left)
            check(node.right)

        check(plan)


class TestExactGenerator:
    def test_segments_match_chain_join_size(self, chain_sets, workspace):
        state = PlanningState(tuple(chain_sets), workspace=workspace)
        exact = ExactGenerator()
        assert exact.estimate_join(0, 0, state) == len(chain_sets[0])
        assert exact.estimate_join(0, 2, state) == chain_join_size(
            chain_sets[0:3]
        )

    def test_oracle_plans_are_optimal(self, chain_sets, workspace):
        from repro.optimizer.regret import (
            optimal_true_cost,
            true_plan_cost,
        )

        plan = optimize(chain_sets, "exact", workspace=workspace)
        assert true_plan_cost(plan, chain_sets) == optimal_true_cost(
            chain_sets
        )


class TestServiceGenerator:
    def test_parity_with_direct_estimator(self, chain_sets, workspace):
        with EstimationService(workers=0) as service:
            generator = service.cardinality_generator(
                "PL", num_buckets=8
            )
            assert isinstance(generator, ServiceGenerator)
            service_plan = optimize(
                chain_sets, generator, workspace=workspace
            )
        direct_plan = optimize(
            chain_sets,
            PLHistogramEstimator(num_buckets=8),
            workspace=workspace,
        )
        assert service_plan == direct_plan

    def test_describe_reports_traffic(self, chain_sets, workspace):
        with EstimationService(workers=0) as service:
            generator = service.cardinality_generator(
                "PL", num_buckets=8
            )
            optimize(chain_sets, generator, workspace=workspace)
            described = generator.describe()
        assert described["generator"] == "SERVICE-PL"
        assert described["requests"] == len(chain_sets) - 1
        assert described["degraded"] == 0


class TestPlanWireSchema:
    def test_round_trip(self, chain_sets, workspace):
        plan = optimize(chain_sets, "exact", workspace=workspace)
        payload = json.loads(json.dumps(plan.to_dict()))
        assert JoinPlan.from_dict(payload) == plan

    def test_non_finite_sizes_survive(self):
        plan = JoinPlan(
            0,
            1,
            math.inf,
            JoinPlan(0, 0, 3.0),
            JoinPlan(1, 1, math.nan),
        )
        payload = json.loads(json.dumps(plan.to_dict()))
        assert payload["estimated_size"] == "Infinity"
        rebuilt = JoinPlan.from_dict(payload)
        assert math.isinf(rebuilt.estimated_size)
        assert math.isnan(rebuilt.right.estimated_size)

    def test_schema_version_checked(self):
        with pytest.raises(PlanError, match="schema_version"):
            JoinPlan.from_dict({"lo": 0, "hi": 0, "estimated_size": 1.0})
        with pytest.raises(PlanError):
            JoinPlan.from_dict(
                {
                    "schema_version": 99,
                    "lo": 0,
                    "hi": 0,
                    "estimated_size": 1.0,
                }
            )

    def test_malformed_payloads_rejected(self):
        with pytest.raises(PlanError):
            JoinPlan.from_dict("not a dict")
        with pytest.raises(PlanError, match="children"):
            JoinPlan.from_dict(
                {"schema_version": 1, "lo": 0, "hi": 1,
                 "estimated_size": 1.0}
            )
        with pytest.raises(PlanError, match="partition"):
            JoinPlan.from_dict(
                {
                    "schema_version": 1,
                    "lo": 0,
                    "hi": 2,
                    "estimated_size": 1.0,
                    "left": {"lo": 0, "hi": 0, "estimated_size": 1.0},
                    "right": {"lo": 2, "hi": 2, "estimated_size": 1.0},
                }
            )

    @pytest.mark.parametrize(
        "lie, match",
        [
            ({"lo": 0.9}, "indices"),
            ({"lo": 1, "hi": "1"}, "indices"),
            ({"lo": False}, "indices"),
            ({"lo": -3, "hi": -3}, "indices"),
            ({"schema_version": True}, "schema_version"),
        ],
        ids=["float-lo", "string-hi", "bool-lo", "negative", "bool-version"],
    )
    def test_lying_fields_rejected(self, lie, match):
        """Each payload parsed as a valid leaf when indices went through
        ``int()`` and the version through ``==``."""
        leaf = {"schema_version": 1, "lo": 0, "hi": 0, "estimated_size": 1.0}
        with pytest.raises(PlanError, match=match):
            JoinPlan.from_dict({**leaf, **lie})

    def test_plan_error_is_estimation_error(self):
        assert issubclass(PlanError, EstimationError)


class TestPlannerContracts:
    def test_short_chain_raises_plan_error(self, xmark_small):
        with pytest.raises(PlanError):
            optimize([xmark_small.node_set("item")], "exact")

    def test_pre_check_rejects_non_nodesets(self):
        with pytest.raises(PlanError, match="NodeSet"):
            optimize(["not", "node", "sets"], "exact")

    def test_twig_accepts_generators(self, xmark_small):
        from repro.optimizer import estimate_twig_size, twig

        pattern = twig("open_auction", twig("annotation", "text"))
        via_estimator = estimate_twig_size(
            xmark_small.node_set,
            pattern,
            PLHistogramEstimator(num_buckets=8),
            xmark_small.tree.workspace(),
        )
        via_name = estimate_twig_size(
            xmark_small.node_set,
            pattern,
            EstimatorGenerator("PL", num_buckets=8),
            xmark_small.tree.workspace(),
        )
        assert via_estimator == via_name
        bound = estimate_twig_size(
            xmark_small.node_set,
            pattern,
            "ubound",
            xmark_small.tree.workspace(),
        )
        assert bound >= 0.0


class TestFacade:
    def test_top_level_reexports(self):
        import repro

        assert repro.resolve_generator("exact").name == "EXACT"
        assert "UBOUND" in repro.available_generators()
        assert repro.optimize is not None
        assert repro.JoinPlan is JoinPlan

    def test_api_optimize_matches_planner(self, chain_sets, workspace):
        import repro

        assert repro.optimize(
            chain_sets, "exact", workspace=workspace
        ) == optimize(chain_sets, "exact", workspace=workspace)


class TestRegretHarness:
    def test_deterministic_under_fixed_seed(self):
        specs = {
            "IM": {"num_samples": 40, "seed": 17},
            "UBOUND": {},
            "EXACT": {},
        }
        chains = {"xmark": [("desp", "parlist", "listitem")]}
        first = regret_report(
            specs, scale=0.02, seed=5, datasets=["xmark"], chains=chains
        )
        second = regret_report(
            specs, scale=0.02, seed=5, datasets=["xmark"], chains=chains
        )
        assert first == second

    def test_exact_regret_zero_and_bound_sound(self):
        chains = {"xmark": [("desp", "parlist", "listitem")]}
        report = regret_report(
            {"UBOUND": {}, "EXACT": {}},
            scale=0.02,
            seed=5,
            datasets=["xmark"],
            chains=chains,
        )
        assert report["generators"]["EXACT"]["max_regret"] == 0.0
        assert (
            report["generators"]["UBOUND"]["underestimated_segments"]
            == 0
        )
