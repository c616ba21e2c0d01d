"""Per-tag statistics catalog with budgeted synopses.

For every tag of a document the catalog stores, under a per-tag byte
budget:

* ``method="histogram"`` — the tag's PL statistics in both join roles
  (Table 1), over the document workspace;
* ``method="sample"`` — a uniform element sample (intervals retain both
  endpoints, so the one sample serves both the ancestor and the
  descendant role).

Plan-time estimation then needs *no* access to base data:

* histogram mode runs PL-Hist-Est (Algorithm 1) over the stored bucket
  statistics;
* sample mode runs the two-sample estimator
  (:mod:`repro.estimators.two_sample`) over the stored samples — unbiased,
  with the extra variance that synopsis-only probing costs.

The catalog also reports its total size in bytes under the paper's
accounting (Section 6.2), so budget comparisons stay honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.core.budget import (
    BYTES_PER_SAMPLE,
    PL_BYTES_PER_BUCKET,
    SpaceBudget,
)
from repro.core.errors import EstimationError
from repro.core.nodeset import NodeSet
from repro.core.rng import SeedLike, make_rng
from repro.core.workspace import Workspace
from repro.estimators.base import Estimate
from repro.estimators.pl_histogram import (
    PLHistogram,
    PLHistogramEstimator,
    build_ancestor_cached,
    build_descendant_cached,
)
from repro.estimators.two_sample import two_sample_estimate
from repro.perf.cache import SummaryCache, resolve_cache
from repro.xmltree.tree import DataTree

CatalogMethod = Literal["histogram", "sample"]


@dataclass
class CatalogEntry:
    """The stored synopsis for one tag."""

    tag: str
    cardinality: int
    ancestor_histogram: PLHistogram | None = None
    descendant_histogram: PLHistogram | None = None
    sample: NodeSet | None = None

    def nbytes(self) -> int:
        """Size under the paper's accounting (+8 for the cardinality)."""
        total = 8
        if self.ancestor_histogram is not None:
            total += PL_BYTES_PER_BUCKET * len(self.ancestor_histogram)
        if self.descendant_histogram is not None:
            total += PL_BYTES_PER_BUCKET * len(self.descendant_histogram)
        if self.sample is not None:
            total += 2 * BYTES_PER_SAMPLE * len(self.sample)
        return total


class StatisticsCatalog:
    """Budgeted per-tag synopses for one document.

    Args:
        tree: the document to summarize.
        budget_per_tag: byte budget for each tag's synopsis.
        method: "histogram" (PL statistics) or "sample" (element sample).
        seed: RNG seed for sample mode.
        tags: restrict to these tags (default: every tag in the document).
        cache: summary cache consulted for the per-tag histogram builds,
            so rebuilding a catalog (or building several with overlapping
            tag lists) reuses previously built summaries; defaults to the
            ambient cache installed by :func:`repro.perf.use_cache`.
    """

    def __init__(
        self,
        tree: DataTree,
        budget_per_tag: SpaceBudget,
        method: CatalogMethod = "histogram",
        seed: SeedLike = None,
        tags: list[str] | None = None,
        cache: SummaryCache | None = None,
    ) -> None:
        if method not in ("histogram", "sample"):
            raise EstimationError(f"unknown catalog method {method!r}")
        self.method: CatalogMethod = method
        self.budget_per_tag = budget_per_tag
        self.workspace: Workspace = tree.workspace()
        self.cache = cache
        rng = make_rng(seed)
        self._entries: dict[str, CatalogEntry] = {}
        for tag in tags if tags is not None else sorted(tree.tags()):
            node_set = tree.node_set(tag)
            if len(node_set) == 0:
                continue
            self._entries[tag] = self._build_entry(node_set, rng)

    def _build_entry(
        self, node_set: NodeSet, rng: np.random.Generator
    ) -> CatalogEntry:
        if self.method == "histogram":
            # The budget pays for both roles' bucket arrays.
            buckets = max(1, self.budget_per_tag.pl_buckets // 2)
            cache = resolve_cache(self.cache)
            return CatalogEntry(
                tag=node_set.name,
                cardinality=len(node_set),
                ancestor_histogram=build_ancestor_cached(
                    node_set, self.workspace, buckets, cache=cache
                ),
                descendant_histogram=build_descendant_cached(
                    node_set, self.workspace, buckets, cache=cache
                ),
            )
        # Sample mode: one element sample serves both roles; an interval
        # entry costs two position slots.
        size = min(
            max(1, self.budget_per_tag.samples // 2), len(node_set)
        )
        sample = NodeSet(node_set.sample(size, rng), validate=False)
        return CatalogEntry(
            tag=node_set.name,
            cardinality=len(node_set),
            sample=sample,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def tags(self) -> list[str]:
        return sorted(self._entries)

    def entry(self, tag: str) -> CatalogEntry:
        try:
            return self._entries[tag]
        except KeyError:
            raise EstimationError(
                f"tag {tag!r} not in catalog (known: {len(self._entries)})"
            ) from None

    def cardinality(self, tag: str) -> int:
        """Stored exact cardinality of a tag (always kept, 8 bytes)."""
        return self.entry(tag).cardinality

    def nbytes(self) -> int:
        """Total catalog size under the paper's space accounting."""
        return sum(entry.nbytes() for entry in self._entries.values())

    def __contains__(self, tag: str) -> bool:
        return tag in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Plan-time estimation (no base-data access)
    # ------------------------------------------------------------------

    def estimate_join(self, ancestor_tag: str, descendant_tag: str) -> Estimate:
        """Containment join size between two catalogued tags."""
        ancestor = self.entry(ancestor_tag)
        descendant = self.entry(descendant_tag)
        if self.method == "histogram":
            estimator = PLHistogramEstimator(
                num_buckets=len(ancestor.ancestor_histogram)
            )
            result = estimator.estimate_from_histograms(
                ancestor.ancestor_histogram,
                descendant.descendant_histogram,
            )
            return Estimate(
                result.value,
                "CATALOG-PL",
                mre=result.mre,
                details=result.details,
            )
        value = two_sample_estimate(
            ancestor.sample,
            ancestor.cardinality,
            descendant.sample.starts,
            descendant.cardinality,
        )
        return Estimate(
            value,
            "CATALOG-2S",
            details={
                "ancestor_samples": len(ancestor.sample),
                "descendant_samples": len(descendant.sample),
            },
        )
