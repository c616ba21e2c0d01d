"""The coverage histogram — the no-overlap remedy of Wu et al. (EDBT 2002).

When no ancestor contains another ancestor (the *no-overlap* property of
Table 2), each descendant joins at most one ancestor, and the join size is
simply the number of descendants whose start falls inside the region union
of the ancestor set.  The coverage histogram stores how much of the
workspace that union covers and multiplies by descendant counts:

* ``mode="global"`` — one scalar: the covered fraction of the whole
  workspace, applied to the total descendant count.  This embodies the
  "global coverage statistics equal local coverage statistics" assumption
  the paper criticizes in Section 2.1.
* ``mode="local"`` — per-bucket covered fractions applied to per-bucket
  descendant counts; accurate whenever descendants are uniform within a
  bucket (the same assumption PL makes).

The interval merge and the per-bucket overlap sums are numpy bulk
operations; the original loops are retained as ``*_reference`` functions
(selected by :func:`repro.perf.reference_kernels`) and the property suite
asserts both paths agree bit for bit.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro import perf
from repro.core.budget import SpaceBudget
from repro.core.errors import EstimationError
from repro.core.nodeset import NodeSet
from repro.core.workspace import Workspace
from repro.estimators.base import Estimate, Estimator
from repro.obs import runtime as _obs
from repro.perf.cache import SummaryCache, resolve_cache

CoverageMode = Literal["global", "local"]


def merged_intervals_reference(node_set: NodeSet) -> list[tuple[int, int]]:
    """Per-element loop implementation of :func:`merged_intervals`."""
    merged: list[tuple[int, int]] = []
    for element in node_set:
        if merged and element.start <= merged[-1][1]:
            if element.end > merged[-1][1]:
                merged[-1] = (merged[-1][0], element.end)
        else:
            merged.append((element.start, element.end))
    return merged


def merged_interval_bounds(node_set: NodeSet) -> np.ndarray:
    """Union of the set's regions as a disjoint, sorted ``(M, 2)`` array.

    The array-native kernel behind :func:`merged_intervals`: a running
    maximum over the (start-sorted) end codes finds the union components
    — a new component begins wherever a start code exceeds every
    previous end — and the bounds come back as one ``column_stack``
    instead of a Python tuple list.  Every hot path (the cached COV
    summary, the live workspace's coverage bounds) consumes this form
    directly; the tuple-list API below survives for compatibility and
    the reference parity suite.
    """
    if perf.reference_kernels_enabled():
        merged = merged_intervals_reference(node_set)
        return np.array(merged, dtype=np.int64).reshape(-1, 2)
    size = len(node_set)
    if size == 0:
        return np.empty((0, 2), dtype=np.int64)
    starts = node_set.starts
    reach = np.maximum.accumulate(node_set.ends)
    fresh = np.empty(size, dtype=bool)
    fresh[0] = True
    fresh[1:] = starts[1:] > reach[:-1]
    heads = np.flatnonzero(fresh)
    tails = np.append(heads[1:] - 1, size - 1)
    return np.column_stack((starts[heads], reach[tails]))


def merged_intervals(node_set: NodeSet) -> list[tuple[int, int]]:
    """Union of the set's regions as disjoint, sorted interval tuples.

    Thin tuple-list adapter over :func:`merged_interval_bounds` (the
    per-interval Python materialization is the only cost here — pass
    the array form to anything that can take it).
    """
    if perf.reference_kernels_enabled():
        return merged_intervals_reference(node_set)
    bounds = merged_interval_bounds(node_set)
    return list(zip(bounds[:, 0].tolist(), bounds[:, 1].tolist()))


def bucket_coverage_reference(
    merged: list[tuple[int, int]], wss: float, wse: float
) -> float:
    """Per-interval loop implementation of :func:`bucket_coverage`."""
    width = wse - wss
    if width <= 0:
        return 0.0
    covered = 0.0
    for start, end in merged:
        if end <= wss:
            continue
        if start >= wse:
            break
        covered += min(end, wse) - max(start, wss)
    return covered / width


def bucket_coverage(
    merged: list[tuple[int, int]] | np.ndarray, wss: float, wse: float
) -> float:
    """Fraction of ``[wss, wse)`` covered by the merged intervals.

    Accepts either the list of ``(start, end)`` tuples or a previously
    converted ``(M, 2)`` array (reused across buckets by the local-mode
    estimator).  The overlap sum accumulates through an ordered
    ``np.add.at`` so the float result matches the reference loop bit for
    bit — out-of-window intervals clip to exactly 0.0, which the
    reference skips, and adding 0.0 is a float no-op.
    """
    if perf.reference_kernels_enabled() and not isinstance(
        merged, np.ndarray
    ):
        return bucket_coverage_reference(merged, wss, wse)
    width = wse - wss
    if width <= 0:
        return 0.0
    pairs = np.asarray(merged, dtype=np.int64)
    if pairs.size == 0:
        return 0.0
    overlaps = np.clip(
        np.minimum(pairs[:, 1], wse) - np.maximum(pairs[:, 0], wss),
        0.0,
        None,
    )
    accumulator = np.zeros(1)
    np.add.at(
        accumulator, np.zeros(overlaps.size, dtype=np.intp), overlaps
    )
    return float(accumulator[0]) / width


def merged_intervals_cached(
    node_set: NodeSet, cache: SummaryCache | None = None
) -> np.ndarray:
    """Merged-interval array ``(M, 2)`` through the summary cache."""
    cache = resolve_cache(cache)
    build = lambda: merged_interval_bounds(node_set)  # noqa: E731
    if cache is None:
        return build()
    return cache.get_or_build(
        ("cov-merged", node_set.fingerprint), build
    )


class CoverageHistogramEstimator(Estimator):
    """Coverage-based estimation for (near) no-overlap ancestor sets."""

    name = "COV"

    def __init__(
        self,
        num_buckets: int | None = None,
        budget: SpaceBudget | None = None,
        mode: CoverageMode = "global",
        cache: SummaryCache | None = None,
    ) -> None:
        if (num_buckets is None) == (budget is None):
            raise EstimationError(
                "specify exactly one of num_buckets or budget"
            )
        self.num_buckets = (
            num_buckets if num_buckets is not None else budget.ph_buckets
        )
        if self.num_buckets < 1:
            raise EstimationError(f"need >= 1 bucket, got {self.num_buckets}")
        if mode not in ("global", "local"):
            raise EstimationError(f"unknown coverage mode {mode!r}")
        self.mode: CoverageMode = mode
        self.cache = cache

    def estimate(
        self,
        ancestors: NodeSet,
        descendants: NodeSet,
        workspace: Workspace | None = None,
    ) -> Estimate:
        workspace = self.resolve_workspace(ancestors, descendants, workspace)
        if len(ancestors) == 0 or len(descendants) == 0:
            return Estimate(0.0, self.name)
        cache = resolve_cache(self.cache)
        with _obs.phase_timer(self.name, "summary_build"):
            if perf.reference_kernels_enabled():
                merged: list[tuple[int, int]] | np.ndarray = (
                    merged_intervals(ancestors)
                )
            else:
                merged = merged_intervals_cached(ancestors, cache)
        if self.mode == "global":
            coverage = bucket_coverage(
                merged, workspace.lo, workspace.hi + 1
            )
            value = coverage * len(descendants)
            return Estimate(
                value,
                self.name,
                details={"mode": "global", "coverage": coverage},
            )
        total = 0.0
        bounds = workspace.buckets(self.num_buckets)
        edges = np.array([b.wss for b in bounds] + [bounds[-1].wse])
        counts, __ = np.histogram(descendants.starts, bins=edges)
        for bucket, n_d in zip(bounds, counts):
            if n_d == 0:
                continue
            total += bucket_coverage(merged, bucket.wss, bucket.wse) * int(n_d)
        return Estimate(
            total,
            self.name,
            details={"mode": "local", "num_buckets": self.num_buckets},
        )
