"""Tests for repro.catalog and the two-sample estimator."""

import statistics

import pytest

from repro.catalog import StatisticsCatalog
from repro.core.budget import SpaceBudget
from repro.core.errors import EstimationError
from repro.core.nodeset import NodeSet
from repro.estimators.two_sample import TwoSampleEstimator
from repro.join import containment_join_size


@pytest.fixture(scope="module")
def dataset():
    from repro.datasets import generate_xmark

    return generate_xmark(scale=0.05, seed=101)


class TestTwoSampleEstimator:
    def test_requires_size(self):
        with pytest.raises(EstimationError):
            TwoSampleEstimator()
        with pytest.raises(EstimationError):
            TwoSampleEstimator(num_samples=0)

    def test_budget_split(self):
        assert TwoSampleEstimator(budget=SpaceBudget(800)).num_samples == 50

    def test_full_samples_exact(self, dataset):
        a = dataset.node_set("desp")
        d = dataset.node_set("text")
        estimator = TwoSampleEstimator(num_samples=10**9, seed=0)
        assert estimator.estimate(a, d).value == containment_join_size(a, d)

    def test_unbiased(self, dataset):
        a = dataset.node_set("desp")
        d = dataset.node_set("text")
        true = containment_join_size(a, d)
        estimates = [
            TwoSampleEstimator(num_samples=80, seed=s).estimate(a, d).value
            for s in range(200)
        ]
        assert abs(statistics.fmean(estimates) - true) / true < 0.10

    def test_higher_variance_than_im(self, dataset):
        """Synopsis-only probing costs accuracy vs full-data probing."""
        from repro.estimators.im_sampling import IMSamplingEstimator

        a = dataset.node_set("desp")
        d = dataset.node_set("text")
        two_sample = [
            TwoSampleEstimator(num_samples=60, seed=s).estimate(a, d).value
            for s in range(40)
        ]
        im = [
            IMSamplingEstimator(num_samples=60, seed=s)
            .estimate(a, d)
            .value
            for s in range(40)
        ]
        assert statistics.pstdev(two_sample) > statistics.pstdev(im)

    def test_empty(self):
        estimator = TwoSampleEstimator(num_samples=5, seed=0)
        assert estimator.estimate(NodeSet([]), NodeSet([])).value == 0.0


class TestStatisticsCatalog:
    def test_histogram_catalog_build(self, dataset):
        catalog = StatisticsCatalog(dataset.tree, SpaceBudget(400))
        assert "item" in catalog
        assert catalog.cardinality("item") == len(dataset.node_set("item"))
        assert len(catalog) == len(dataset.tree.tags())

    def test_unknown_tag(self, dataset):
        catalog = StatisticsCatalog(
            dataset.tree, SpaceBudget(400), tags=["item"]
        )
        with pytest.raises(EstimationError):
            catalog.entry("unknown")

    def test_restricted_tags(self, dataset):
        catalog = StatisticsCatalog(
            dataset.tree, SpaceBudget(400), tags=["item", "name"]
        )
        assert catalog.tags == ["item", "name"]

    def test_invalid_method(self, dataset):
        with pytest.raises(EstimationError):
            StatisticsCatalog(
                dataset.tree, SpaceBudget(400), method="oracle"
            )

    def test_histogram_estimates_match_direct_pl(self, dataset):
        """Catalog estimation == running PL directly, same bucket count."""
        from repro.estimators.pl_histogram import PLHistogramEstimator

        budget = SpaceBudget(400)
        catalog = StatisticsCatalog(dataset.tree, budget)
        buckets = max(1, budget.pl_buckets // 2)
        direct = PLHistogramEstimator(num_buckets=buckets)
        for anc, desc in [("item", "name"), ("desp", "text")]:
            via_catalog = catalog.estimate_join(anc, desc).value
            directly = direct.estimate(
                dataset.node_set(anc),
                dataset.node_set(desc),
                dataset.tree.workspace(),
            ).value
            assert via_catalog == pytest.approx(directly)

    def test_sample_catalog_unbiased(self, dataset):
        a = dataset.node_set("desp")
        d = dataset.node_set("text")
        true = containment_join_size(a, d)
        estimates = []
        for seed in range(120):
            catalog = StatisticsCatalog(
                dataset.tree,
                SpaceBudget(800),
                method="sample",
                seed=seed,
                tags=["desp", "text"],
            )
            estimates.append(catalog.estimate_join("desp", "text").value)
        assert abs(statistics.fmean(estimates) - true) / true < 0.15

    def test_size_accounting(self, dataset):
        budget = SpaceBudget(400)
        catalog = StatisticsCatalog(
            dataset.tree, budget, tags=["item", "name", "desp"]
        )
        total = catalog.nbytes()
        assert total > 0
        # Within a small factor of tags * per-tag budget (the +8 counters
        # and rounding keep it near, never wildly above).
        assert total <= 3 * (budget.nbytes + 16)

    def test_sample_entry_size_bounded(self, dataset):
        budget = SpaceBudget(200)
        catalog = StatisticsCatalog(
            dataset.tree, budget, method="sample", seed=0, tags=["text"]
        )
        entry = catalog.entry("text")
        assert len(entry.sample) <= budget.samples // 2
        assert entry.nbytes() <= budget.nbytes + 8

    def test_estimates_usable_for_optimization(self, dataset):
        """End-to-end: catalog feeds the chain optimizer."""
        from repro.optimizer import optimize

        catalog = StatisticsCatalog(dataset.tree, SpaceBudget(800))

        class CatalogEstimator:
            name = "CATALOG"

            def estimate(self, a, d, workspace=None):
                return catalog.estimate_join(a.name, d.name)

        sets = [
            dataset.node_set(tag)
            for tag in ("open_auction", "annotation", "text")
        ]
        plan = optimize(sets, CatalogEstimator())
        assert not plan.is_leaf


class TestCatalogPersistence:
    def test_histogram_catalog_round_trip(self, dataset, tmp_path):
        from repro.catalog import load_catalog, save_catalog

        original = StatisticsCatalog(
            dataset.tree, SpaceBudget(400), tags=["item", "name", "desp"]
        )
        save_catalog(original, tmp_path / "catalog.json")
        restored = load_catalog(tmp_path / "catalog.json")
        assert restored.tags == original.tags
        assert restored.method == original.method
        for anc, desc in [("item", "name"), ("desp", "name")]:
            assert restored.estimate_join(anc, desc).value == (
                original.estimate_join(anc, desc).value
            )

    def test_sample_catalog_round_trip(self, dataset, tmp_path):
        from repro.catalog import load_catalog, save_catalog

        original = StatisticsCatalog(
            dataset.tree,
            SpaceBudget(800),
            method="sample",
            seed=3,
            tags=["desp", "text"],
        )
        save_catalog(original, tmp_path / "catalog.json")
        restored = load_catalog(tmp_path / "catalog.json")
        assert restored.estimate_join("desp", "text").value == (
            original.estimate_join("desp", "text").value
        )
        assert restored.nbytes() == original.nbytes()

    def test_missing_file(self, tmp_path):
        from repro.catalog import load_catalog
        from repro.core.errors import ReproError

        with pytest.raises(ReproError):
            load_catalog(tmp_path / "absent.json")

    def test_version_check(self, dataset, tmp_path):
        import json

        from repro.catalog import load_catalog, save_catalog
        from repro.core.errors import ReproError

        original = StatisticsCatalog(
            dataset.tree, SpaceBudget(400), tags=["item"]
        )
        path = save_catalog(original, tmp_path / "catalog.json")
        payload = json.loads(path.read_text())
        payload["format_version"] = 42
        path.write_text(json.dumps(payload))
        with pytest.raises(ReproError):
            load_catalog(path)
