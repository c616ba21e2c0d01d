"""The qa subsystem: generators, shrinker, runner, gates, replay."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.errors import (
    EstimationError,
    InvalidRegionCodeError,
    ParseError,
)
from repro.core.nodeset import NodeSet
from repro.core.rng import make_rng
from repro.feedback import FeedbackStore
from repro.join import containment_join_size
from repro.maintenance import (
    DynamicTTree,
    IncrementalCellHistogram,
    ReservoirSample,
)
from repro.qa import ORACLES, Case, replay, run_qa, shrink_case
from repro.qa.generators import (
    disjoint_operands,
    invalid_element_corpus,
    invalid_xml_corpus,
    random_case,
    random_document,
    random_xml,
)
from repro.qa.oracles import (
    OracleFailure,
    check_cached_vs_uncached,
    check_feedback_transparency,
    check_incremental_vs_rebuild,
    check_summary_geometry,
    check_wire_fuzz,
)
from repro.qa.stats import run_statistical_gates
from repro.xmltree.parser import parse_xml


class TestGenerators:
    def test_same_seed_same_case(self):
        one, two = random_case(99), random_case(99)
        assert one.ancestors.elements == two.ancestors.elements
        assert one.descendants.elements == two.descendants.elements
        assert one.workspace == two.workspace

    def test_different_seeds_differ(self):
        assert (
            random_case(1).elements != random_case(2).elements
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_generated_documents_are_valid(self, seed):
        elements = random_document(make_rng(seed))
        # Strict nesting and distinct codes: the validator accepts the
        # whole document and any operand subset of it.
        NodeSet(elements, validate=True)
        case = random_case(seed)
        NodeSet(case.ancestors.elements, validate=True)
        NodeSet(case.descendants.elements, validate=True)
        assert len(case.ancestors) >= 1
        assert len(case.descendants) >= 1
        assert case.workspace.lo <= min(
            int(case.ancestors.starts[0]), int(case.descendants.starts[0])
        )

    def test_case_round_trips_through_json(self):
        case = random_case(7)
        payload = json.loads(json.dumps(case.to_dict()))
        rebuilt = Case.from_dict(payload)
        assert rebuilt.ancestors.elements == case.ancestors.elements
        assert rebuilt.descendants.elements == case.descendants.elements
        assert rebuilt.workspace == case.workspace

    def test_random_xml_parses(self):
        tree = parse_xml(random_xml(make_rng(5)))
        assert len(tree.elements) >= 1

    def test_invalid_xml_corpus_rejected(self):
        for document in invalid_xml_corpus(make_rng(5)):
            with pytest.raises(ParseError):
                parse_xml(document)

    def test_invalid_element_corpus_rejected(self):
        from repro.core.element import Element

        for rows in invalid_element_corpus(make_rng(5)):
            with pytest.raises(InvalidRegionCodeError):
                NodeSet(
                    [Element(tag, s, e) for tag, s, e in rows],
                    validate=True,
                )

    def test_disjoint_operands_share_nothing(self):
        for seed in range(30):
            case = random_case(seed)
            a, d = disjoint_operands(case)
            shared = set(a.elements) & set(d.elements)
            # Either fully disjoint or the fallback (every descendant
            # was shared) returned the original operands.
            if shared:
                assert d is case.descendants


class TestShrinker:
    def test_converges_on_planted_bug(self):
        # Plant: "fails whenever the join has >= 2 pairs".  The minimal
        # witness needs only a handful of elements, so the shrinker must
        # strip nearly everything while keeping the failure alive.
        def still_fails(case):
            return (
                containment_join_size(case.ancestors, case.descendants)
                >= 2
            )

        seed = next(
            s for s in range(100)
            if still_fails(random_case(s, max_nodes=80))
            and len(random_case(s, max_nodes=80).ancestors) >= 10
        )
        case = random_case(seed, max_nodes=80)
        shrunk, checks = shrink_case(case, still_fails)
        assert still_fails(shrunk)
        assert checks > 0
        assert (
            len(shrunk.ancestors) + len(shrunk.descendants)
            <= 6
            < len(case.ancestors) + len(case.descendants)
        )

    def test_predicate_exception_treated_as_not_failing(self):
        case = random_case(11)

        def explodes(candidate):
            if candidate is not case:
                raise RuntimeError("boom")
            return True

        shrunk, __ = shrink_case(case, explodes)
        assert shrunk.ancestors.elements == case.ancestors.elements


class TestRunner:
    def test_clean_run_on_seed_corpus(self):
        report = run_qa(budget_s=1.5, seed=20030609)
        assert report["schema_version"] == 1
        assert report["cases_run"] >= 1
        assert report["confirmed_findings"] == 0
        assert report["findings"] == []
        assert report["gates"] and all(
            g["passed"] for g in report["gates"]
        )
        # Every oracle actually ran.
        assert set(report["oracle_runs"]) == set(ORACLES)
        assert all(n >= 1 for n in report["oracle_runs"].values())
        json.dumps(report)  # JSON-serializable end to end

    def test_planted_bug_yields_minimized_replayable_reproducer(
        self, monkeypatch
    ):
        # Off-by-one planted into the exact-join reference the oracle
        # compares against: every join of size >= 1 now "disagrees".
        import repro.qa.oracles as oracles_module

        real = containment_join_size

        def off_by_one(a, d):
            size = real(a, d)
            return size + 1 if size else size

        monkeypatch.setattr(
            oracles_module, "containment_join_size", off_by_one
        )
        oracle = {"exact-join": oracles_module.check_exact_join}
        report = run_qa(
            budget_s=5.0, seed=3, oracles=oracle, run_gates=False
        )
        assert report["confirmed_findings"] == 1
        [finding] = report["findings"]
        assert finding["confirmed"]
        original = sum(finding["original_sizes"])
        shrunk = sum(finding["shrunk_sizes"])
        assert shrunk <= 4 < original
        # The reproducer survives a JSON round-trip and replays to the
        # same failure while the bug is in place...
        block = json.loads(json.dumps(finding["reproducer"]))
        message = replay(block, oracles=oracle)
        assert message is not None and "exact-join" in message
        # ...and replays clean once the bug is fixed.
        monkeypatch.setattr(
            oracles_module, "containment_join_size", real
        )
        assert replay(block, oracles=oracle) is None

    def test_bucket_boundary_off_by_one_is_caught(self, monkeypatch):
        # The acceptance-criteria plant: a histogram bucket boundary
        # off-by-one.  It is translation-invariant and hits both sides
        # of every value-level differential, so only the geometry
        # oracle can see it.
        from repro.core.workspace import Workspace

        real = Workspace.bucket_of

        def shifted(self, position, count):
            return min(real(self, position, count) + 1, count - 1)

        monkeypatch.setattr(Workspace, "bucket_of", shifted)
        oracle = {"summary-geometry": check_summary_geometry}
        report = run_qa(
            budget_s=5.0, seed=20030609, oracles=oracle, run_gates=False
        )
        assert report["confirmed_findings"] == 1
        [finding] = report["findings"]
        assert "bucket_of" in finding["message"]
        block = json.loads(json.dumps(finding["reproducer"]))
        assert replay(block, oracles=oracle) is not None
        monkeypatch.setattr(Workspace, "bucket_of", real)
        assert replay(block, oracles=oracle) is None

    def test_runner_budget_respected(self):
        report = run_qa(budget_s=0.0, seed=1, run_gates=False)
        assert report["cases_run"] == 1  # min_cases floor


class TestStatisticalGates:
    def test_im_pm_gates_pass_at_documented_confidence(self):
        gates = run_statistical_gates()
        assert {g.method for g in gates} == {"IM", "PM"}
        assert {g.gate for g in gates} == {
            "unbiasedness",
            "concentration",
        }
        for gate in gates:
            assert gate.passed, gate.to_dict()
            assert gate.detail["trials"] >= 200

    def test_gates_are_deterministic(self):
        one = [g.statistic for g in run_statistical_gates()]
        two = [g.statistic for g in run_statistical_gates()]
        assert one == two


def _cell_remove_keeps_count(self, element):
    """A PH cell ``remove`` that never decrements the element's cell."""
    if self._cells.get(self._cell_of(element), 0) <= 0:
        raise EstimationError("removal of an element that was never inserted")
    self._size -= 1


def _ttree_delete_shifts_end(self, element):
    """A T-tree ``delete`` that shifts ``end`` instead of ``end + 1``."""
    self._shift(element.start, -1)
    self._shift(element.end, +1)
    self._size -= 1


_REAL_RESERVOIR_REMOVE = ReservoirSample.remove


def _reservoir_remove_keeps_live(self, element):
    """A reservoir ``remove`` that leaves the live count as it was."""
    _REAL_RESERVOIR_REMOVE(self, element)
    self._live += 1


#: ``repro.maintenance`` mutants the ``incremental-vs-rebuild`` oracle
#: must catch: (class, method, replacement).
_MAINTENANCE_MUTANTS = [
    pytest.param(
        IncrementalCellHistogram,
        "remove",
        _cell_remove_keeps_count,
        id="cell-remove-keeps-count",
    ),
    pytest.param(
        DynamicTTree,
        "delete",
        _ttree_delete_shifts_end,
        id="ttree-delete-shifts-end",
    ),
    pytest.param(
        ReservoirSample,
        "remove",
        _reservoir_remove_keeps_live,
        id="reservoir-remove-keeps-live",
    ),
]


_REAL_FOLD = FeedbackStore._fold
_REAL_ADD_NEW = FeedbackStore._add_new


def _fold_skips_dropped_rows(self, record):
    """A fold whose aggregates stop at the retained-record bound."""
    if self._full():
        self._dropped += 1
        return
    _REAL_FOLD(self, record)


def _add_new_strips_features(self, record):
    """A ``record_feedback`` append that drops every row's features."""
    record.features = ()
    return _REAL_ADD_NEW(self, record)


def _full_one_row_late(self):
    """A bound check that keeps one row past ``max_records``."""
    return len(self._records) > self.max_records


#: ``FeedbackStore`` mutants the ``feedback-transparency`` oracle must
#: catch: (method, replacement, message).
_FEEDBACK_MUTANTS = [
    pytest.param(
        "_fold",
        _fold_skips_dropped_rows,
        "changed the answers",
        id="fold-skips-dropped-rows",
    ),
    pytest.param(
        "_add_new",
        _add_new_strips_features,
        "lacks its operand pair's features",
        id="add-new-strips-features",
    ),
    pytest.param(
        "_full",
        _full_one_row_late,
        "dropped 3 of 8",
        id="full-one-row-late",
    ),
]


class TestOracleSubset:
    def test_every_oracle_clean_on_fixed_seeds(self):
        for seed in (20030609, 42, 7):
            case = random_case(seed)
            for oracle in ORACLES.values():
                oracle(case)

    def test_oracle_failure_is_assertion(self):
        assert issubclass(OracleFailure, AssertionError)

    def test_cache_that_never_stores_is_caught(self, monkeypatch):
        """cached-vs-uncached fails when the third call cannot hit."""
        from repro.perf.cache import SummaryCache

        monkeypatch.setattr(SummaryCache, "_admit", lambda *args: None)
        with pytest.raises(OracleFailure, match="third call hit nothing"):
            check_cached_vs_uncached(random_case(42))

    @pytest.mark.parametrize(("cls", "name", "mutant"), _MAINTENANCE_MUTANTS)
    def test_broken_maintenance_is_caught(
        self, monkeypatch, cls, name, mutant
    ):
        """incremental-vs-rebuild fails on a wrong maintenance update."""
        check_incremental_vs_rebuild(random_case(42))
        monkeypatch.setattr(cls, name, mutant)
        with pytest.raises(OracleFailure, match="incremental-vs-rebuild"):
            check_incremental_vs_rebuild(random_case(42))

    @pytest.mark.parametrize(("name", "mutant", "message"), _FEEDBACK_MUTANTS)
    def test_broken_feedback_store_is_caught(
        self, monkeypatch, name, mutant, message
    ):
        """feedback-transparency fails when a bounded store aggregates,
        retains or featurizes differently."""
        check_feedback_transparency(random_case(42))
        monkeypatch.setattr(FeedbackStore, name, mutant)
        with pytest.raises(OracleFailure, match=message):
            check_feedback_transparency(random_case(42))


class TestWireFuzz:
    def test_clean_on_seeded_cases(self):
        for seed in range(40):
            check_wire_fuzz(random_case(seed))

    def test_survives_empty_operands(self):
        case = random_case(3)
        empty = NodeSet([], name="D")
        check_wire_fuzz(
            Case(case.seed, case.ancestors, empty, case.workspace)
        )

    @staticmethod
    def _campaign():
        oracle = {"wire-fuzz": check_wire_fuzz}
        report = run_qa(
            budget_s=5.0, seed=20030609, oracles=oracle, run_gates=False
        )
        assert report["confirmed_findings"] == 1
        return report["findings"][0]

    def test_planted_truncating_json_decode_is_caught(self, monkeypatch):
        # A typed numpy conversion: float codes truncate, strings parse.
        from repro.service import wire

        monkeypatch.setattr(
            wire,
            "_json_codes",
            lambda values, field: np.asarray(values, dtype=np.int64),
        )
        assert "accepted the payload" in self._campaign()["message"]

    def test_planted_untyped_errors_are_caught(self, monkeypatch):
        from repro.service import wire

        monkeypatch.setattr(wire, "_STRUCTURAL_ERRORS", ())
        assert "untyped" in self._campaign()["message"]
