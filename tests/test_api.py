"""Tests for the stable public facade (repro.api / top-level repro).

The facade contract: ``repro.estimate(..., method=NAME)`` returns
exactly what direct registry construction would, for every registered
name; aliases and case variants resolve; errors carry a nearest-match
hint; ``build_catalog`` accepts datasets and plain-int budgets.
"""

import ast
import re
from pathlib import Path

import pytest

import repro
from repro import api
from repro.core.errors import (
    EstimationError,
    InvalidNodeSetError,
    UnknownEstimatorError,
)
from repro.core.workspace import Workspace
from repro.estimators.base import Estimate
from repro.estimators.registry import canonical_name
from repro.perf.cache import SummaryCache

#: Constructor arguments that make every registry method cheap and
#: deterministic for a facade round-trip.
METHOD_KWARGS = {
    "PL": {"num_buckets": 10},
    "PH": {"num_cells": 25},
    "IM": {"num_samples": 10, "seed": 3},
    "PM": {"num_samples": 10, "seed": 3},
    "COV": {"num_buckets": 10},
    "CROSS": {"num_samples": 10, "seed": 3},
    "SYS": {"num_samples": 10, "seed": 3},
    "BIFOCAL": {"num_samples": 10, "seed": 3},
    "SKETCH": {"num_counters": 10, "depth": 2, "seed": 3},
    "WAVELET": {"num_coefficients": 10},
    "SEMI-D": {"num_samples": 5, "seed": 3},
    "SEMI-A": {"num_samples": 5, "seed": 3},
    "2SAMPLE": {"num_samples": 5, "seed": 3},
    "HYBRID": {"num_buckets": 10, "num_samples": 10, "seed": 3},
}


class TestEstimateFacade:
    @pytest.mark.parametrize("name", sorted(repro.available_estimators()))
    def test_round_trips_every_registry_name(self, name, figure1_tree):
        a, d = figure1_tree
        kwargs = METHOD_KWARGS.get(name, {})
        workspace = Workspace(1, 22)
        direct = repro.make_estimator(name, **kwargs).estimate(
            a, d, workspace
        )
        via_facade = repro.estimate(
            a, d, method=name, workspace=workspace, **kwargs
        )
        assert via_facade.value == direct.value
        assert via_facade.estimator == direct.estimator
        assert via_facade.details == direct.details

    def test_alias_and_case_insensitive(self, figure1_tree):
        a, d = figure1_tree
        for method in ("pl", "PL-Histogram", "point-line"):
            result = repro.estimate(a, d, method=method, num_buckets=5)
            assert result.estimator == "PL"

    def test_default_method_is_pl(self, figure1_tree):
        a, d = figure1_tree
        assert repro.estimate(a, d, num_buckets=5).estimator == "PL"

    def test_nearest_match_hint(self):
        with pytest.raises(EstimationError, match="did you mean 'PL'"):
            repro.make_estimator("PLH")

    def test_unknown_name_lists_available(self):
        with pytest.raises(EstimationError, match="unknown estimator"):
            repro.make_estimator("ZZZZZZ")

    def test_ambiguous_fragment_lists_every_candidate(self):
        """An ambiguous prefix must not silently pick one variant."""
        with pytest.raises(UnknownEstimatorError) as excinfo:
            canonical_name("SEMI")
        error = excinfo.value
        assert error.name == "SEMI"
        assert "SEMI-A" in error.candidates
        assert "SEMI-D" in error.candidates

    def test_unknown_estimator_error_is_estimation_error(self):
        with pytest.raises(EstimationError):
            canonical_name("PLH")

    def test_canonical_name(self):
        assert canonical_name("im-da") == "IM"
        assert canonical_name(" pl ") == "PL"
        assert canonical_name("COVERAGE") == "COV"

    def test_cache_round_trip(self, figure1_tree):
        a, d = figure1_tree
        cache = SummaryCache()
        bare = repro.estimate(a, d, method="PL", num_buckets=5)
        first = repro.estimate(
            a, d, method="PL", num_buckets=5, cache=cache
        )
        second = repro.estimate(
            a, d, method="PL", num_buckets=5, cache=cache
        )
        assert cache.stats()["hits"] == 0  # the second call stores
        third = repro.estimate(
            a, d, method="PL", num_buckets=5, cache=cache
        )
        assert first.value == second.value == third.value == bare.value
        assert cache.stats()["hits"] > 0


NOT_A_NODE_SET = "operand must be a NodeSet"
NOT_A_WORKSPACE = "workspace must be a Workspace"

#: Calls with a type-confused argument: the typed error each must raise
#: and a fragment of its message.
TYPE_CONFUSED_CALLS = {
    "list-ancestors": (
        InvalidNodeSetError,
        NOT_A_NODE_SET,
        lambda a, d: repro.estimate([1, 2], d, "IM", num_samples=2),
    ),
    "none-descendants": (
        InvalidNodeSetError,
        NOT_A_NODE_SET,
        lambda a, d: repro.estimate(a, None, "IM", num_samples=2),
    ),
    "tuple-workspace": (
        EstimationError,
        NOT_A_WORKSPACE,
        lambda a, d: repro.estimate(
            a, d, "PM", num_samples=2, workspace=(0, 10)
        ),
    ),
    "string-workspace": (
        EstimationError,
        NOT_A_WORKSPACE,
        lambda a, d: repro.estimate(
            a, d, "IM", num_samples=2, workspace="x"
        ),
    ),
    "unknown-keyword": (
        EstimationError,
        "invalid configuration for IM",
        lambda a, d: repro.estimate(a, d, "IM", num_samples=2, bogus=1),
    ),
    "string-samples": (
        EstimationError,
        "invalid configuration for IM",
        lambda a, d: repro.estimate(a, d, "IM", num_samples="3"),
    ),
    "string-seed": (
        EstimationError,
        "invalid configuration for IM",
        lambda a, d: repro.estimate(a, d, "IM", num_samples=2, seed="x"),
    ),
    "string-buckets": (
        EstimationError,
        "invalid configuration for PL",
        lambda a, d: repro.estimate(a, d, "PL", num_buckets="4"),
    ),
    "string-threshold": (
        EstimationError,
        "invalid configuration for BIFOCAL",
        lambda a, d: repro.estimate(
            a, d, "BIFOCAL", num_samples=2, threshold="x"
        ),
    ),
    "make-estimator-keyword": (
        EstimationError,
        "invalid configuration for IM",
        lambda a, d: repro.make_estimator("IM", num_samples=2, bogus=1),
    ),
    "optimize-keyword": (
        EstimationError,
        "invalid configuration for PL",
        lambda a, d: repro.optimize([a, d], "PL", bogus=1),
    ),
}


@pytest.mark.parametrize("case", sorted(TYPE_CONFUSED_CALLS))
def test_type_confused_arguments_raise_typed_errors(case, figure1_tree):
    """Malformed operands, workspaces and configurations raise the
    package's typed errors, never a bare AttributeError or TypeError; a
    configuration the constructor rejects names its method and chains
    the constructor's TypeError."""
    error_type, fragment, call = TYPE_CONFUSED_CALLS[case]
    a, d = figure1_tree
    with pytest.raises(error_type, match=fragment) as excinfo:
        call(a, d)
    if fragment.startswith("invalid configuration"):
        assert isinstance(excinfo.value.__cause__, TypeError)


class TestBuildCatalog:
    def test_accepts_dataset_and_int_budget(self, xmark_small):
        catalog = repro.build_catalog(
            xmark_small, 400, tags=["item", "name"]
        )
        estimate = catalog.estimate_join("item", "name")
        assert estimate.value >= 0.0

    def test_accepts_tree(self, xmark_small):
        catalog = repro.build_catalog(
            xmark_small.tree, 400, tags=["item", "name"]
        )
        assert catalog.estimate_join("item", "name").value >= 0.0


class TestWireSchema:
    def test_round_trip(self, figure1_tree):
        a, d = figure1_tree
        original = repro.estimate(a, d, method="PL", num_buckets=5)
        rebuilt = Estimate.from_dict(original.to_dict())
        assert rebuilt.value == original.value
        assert rebuilt.estimator == original.estimator
        assert rebuilt.mre == original.mre

    def test_non_finite_floats_survive(self):
        original = Estimate(float("inf"), "PL", mre=float("inf"))
        payload = original.to_dict()
        assert payload["value"] == "Infinity"  # strict-JSON encoding
        rebuilt = Estimate.from_dict(payload)
        assert rebuilt.value == float("inf")
        assert rebuilt.mre == float("inf")

    def test_payload_is_strict_json(self, figure1_tree):
        import json

        a, d = figure1_tree
        payload = repro.estimate(
            a, d, method="IM", num_samples=10, seed=3
        ).to_dict()
        round_tripped = json.loads(
            json.dumps(payload, allow_nan=False)
        )
        assert round_tripped == payload

    def test_unsupported_version_rejected(self):
        payload = Estimate(1.0, "PL").to_dict()
        payload["schema_version"] = 99
        with pytest.raises(EstimationError, match="schema_version"):
            Estimate.from_dict(payload)
        del payload["schema_version"]
        with pytest.raises(EstimationError, match="schema_version"):
            Estimate.from_dict(payload)


class TestPublicSurface:
    def test_top_level_reexports(self):
        for name in ("Estimate", "Estimator", "NodeSet", "Workspace",
                     "estimate", "build_catalog", "make_estimator",
                     "available_estimators", "serve", "EstimationService",
                     "EstimateRequest", "EstimateResponse"):
            assert hasattr(repro, name), name
            assert name in repro.__all__, name

    def test_api_module_all_resolves(self):
        for name in api.__all__:
            assert hasattr(api, name), name

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)
        # pyproject.toml is what `pip install` reports; read it with a
        # regex because Python 3.10 has no tomllib.
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        match = re.search(
            r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE
        )
        assert match is not None
        assert match.group(1) == repro.__version__


def _package_nodes():
    """Every AST node of every module under src/repro, with the module's
    path relative to the package."""
    package = Path(repro.__file__).resolve().parent
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield module, node


def _imported_names(node):
    """The dotted names an import statement names (empty otherwise)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return [module] + [f"{module}.{alias.name}" for alias in node.names]
    return []


class TestOneProcess:
    def test_no_module_imports_multiprocessing(self):
        """The package runs in one process: no module under src/repro
        imports multiprocessing (shared memory, pools, forks)."""
        importers = [
            module
            for module, node in _package_nodes()
            if any(
                name.split(".")[0] == "multiprocessing"
                for name in _imported_names(node)
            )
        ]
        assert importers == []

    def test_no_module_starts_a_thread(self):
        """The package runs in its callers' threads: no module under
        src/repro uses threading.Thread, threading.Timer or
        concurrent.futures."""
        starters = {"threading.Thread", "threading.Timer"}
        found = []
        for module, node in _package_nodes():
            names = _imported_names(node)
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
            ):
                names = [f"{node.value.id}.{node.attr}"]
            if any(
                name in starters or name.split(".")[0] == "concurrent"
                for name in names
            ):
                found.append(module)
        assert found == []

    def test_one_runtime_probe_path(self):
        """The sampling probes have one runtime path, the fused numpy
        kernels: no module imports numba, only repro/qa imports the
        reference probes, and neither the kernels nor the index
        structures branch on reference mode."""
        found = []
        for module, node in _package_nodes():
            for name in _imported_names(node):
                if name.split(".")[0] == "numba":
                    found.append((module, name))
                if name.startswith("repro.qa.reference") and not (
                    module.startswith("qa/")
                ):
                    found.append((module, name))
            if (
                module.startswith(("kernels/", "index/"))
                and isinstance(node, ast.Call)
                and "reference_kernels_enabled" in ast.unparse(node.func)
            ):
                found.append((module, "reference_kernels_enabled()"))
        assert found == []


class TestModuleResolution:
    def test_canonical_names_resolve(self):
        import types

        for name in ("maintenance", "storage", "stream", "qa"):
            module = repro.resolve_module(name)
            assert isinstance(module, types.ModuleType)
            assert module.__name__ == f"repro.{name}"

    def test_case_insensitive(self):
        assert (
            repro.resolve_module("STREAM")
            is repro.resolve_module("stream")
        )

    def test_aliases(self):
        pairs = {
            "incremental": "repro.maintenance",
            "reservoir": "repro.maintenance",
            "ttree": "repro.maintenance",
            "pager": "repro.storage",
            "disk": "repro.storage",
            "live": "repro.stream",
            "churn": "repro.stream",
            "streaming": "repro.stream",
            "bandit": "repro.router",
            "cache": "repro.perf",
        }
        for alias, target in pairs.items():
            assert repro.resolve_module(alias).__name__ == target, alias

    def test_available_modules_lists_subsystems(self):
        names = repro.available_modules()
        assert names == sorted(names)
        for expected in ("maintenance", "storage", "stream", "service"):
            assert expected in names

    def test_every_listed_module_imports(self):
        for name in repro.available_modules():
            repro.resolve_module(name)

    def test_unknown_module_nearest_match(self):
        from repro.core.errors import UnknownModuleError

        with pytest.raises(UnknownModuleError, match="did you mean"):
            repro.resolve_module("strem")
        try:
            repro.resolve_module("strem")
        except UnknownModuleError as error:
            assert error.name == "strem"
            assert "stream" in error.candidates

    def test_new_streaming_reexports(self):
        for name in ("CatalogStore", "LiveWorkspace", "Mutation",
                     "MutationBatch", "MutationFeed",
                     "available_modules", "resolve_module"):
            assert hasattr(repro, name), name
            assert name in repro.__all__, name
            assert name in api.__all__, name
        for name in ("DynamicTTree", "IncrementalPLHistogram",
                     "IncrementalCellHistogram", "ReservoirSample",
                     "DiskNodeSet", "write_node_set"):
            assert hasattr(api, name), name
            assert name in api.__all__, name
