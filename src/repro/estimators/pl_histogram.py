"""The PL (Point-Line) histogram estimator, Section 4.

Built on the interval model: descendants are points (their start
positions), ancestors are intervals.  The workspace is partitioned into
``b`` equal buckets and each bucket ``i`` keeps the Table 1 statistics —
``n(R, i)``, ``wss(R, i)``, ``wse(R, i)`` and, for the ancestor role, the
average interval length ``l(R, i)``.  Equation 1 then estimates

    X̂ = Σ_i  l(A,i) / (wse(A,i) - wss(A,i)) · n(A,i) · n(D,i)

under two assumptions only: A and D are independent, and D is uniform
*within each bucket* — strictly weaker than the 2D-uniform assumption of
the PH baseline.

Boundary rules (Section 4.1, note 2): an ancestor spanning several buckets
is counted in every bucket it crosses; a descendant is counted only in the
bucket containing its start.

Length statistic: with ``length_mode="clipped"`` (default) an interval
contributes only its in-bucket portion to ``l(A, i)``, which makes
Equation 1 exact in the continuous uniform limit even for intervals
crossing bucket boundaries.  ``length_mode="full"`` uses the raw interval
length in every crossed bucket (the literal reading of Table 1); the
ablation benchmark compares both.

Bucket boundaries: ``bucketing="equi-width"`` (the paper's scheme)
partitions the workspace evenly; ``bucketing="equi-depth"`` places the
boundaries at descendant-start quantiles — Section 4.1's remark that the
uniform assumption "can be made approximately valid if ... bucket
boundaries are carefully selected", realized.  Both operands always share
one partitioning, as the paper requires.

Array form: a :class:`PLHistogram` holds its statistics as per-bucket
numpy arrays (``wss``/``wse``, ``n``, ``total_length``).  Both builds
compute the bucket edges once (equal-width edges bit for bit those of
the ``Workspace.buckets`` tiling) and no :class:`PLBucket` exists until
something reads ``.buckets``.  The float work keeps the per-bucket
loop's order — ``np.add.at`` adds clipped lengths in element order and
Equation 1 adds its bucket terms left to right — so every estimate, MRE
and detail equals the per-bucket object form bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Literal

import numpy as np
from numpy.typing import ArrayLike

from repro import perf
from repro.core.budget import SpaceBudget
from repro.obs import runtime as _obs
from repro.core.errors import EstimationError, ReproError
from repro.core.nodeset import NodeSet
from repro.core.workspace import Bucket, Workspace
from repro.estimators.base import Estimate, Estimator
from repro.estimators.mre import cov_value, maximum_relative_error
from repro.perf.cache import SummaryCache, resolve_cache

LengthMode = Literal["clipped", "full"]
Bucketing = Literal["equi-width", "equi-depth"]


def equi_depth_edges(
    descendants: NodeSet, workspace: Workspace, num_buckets: int
) -> list[float]:
    """Bucket edges at descendant-start quantiles (strictly increasing).

    Quantile collisions (heavily skewed starts) merge edges, so the
    effective bucket count can be smaller than requested.
    """
    if len(descendants) == 0:
        return [b.wss for b in workspace.buckets(num_buckets)] + [
            float(workspace.hi + 1)
        ]
    interior = np.quantile(
        descendants.starts, np.linspace(0.0, 1.0, num_buckets + 1)[1:-1]
    )
    edges = np.concatenate(
        ([float(workspace.lo)], interior, [float(workspace.hi + 1)])
    )
    unique = np.unique(edges)
    return [float(v) for v in unique]


def _edge_array(
    workspace: Workspace, num_buckets: int, edges: list[float] | None
) -> np.ndarray:
    """The ``edges`` given, or the ``num_buckets + 1`` equal-width ones.

    Equal-width edge ``i`` is ``lo + i * (width / num_buckets)``, the
    expression :meth:`Workspace.buckets` evaluates per bucket, so the
    edges equal its ``wss`` values and last ``wse`` bit for bit without
    a :class:`Bucket` per bucket; bad arguments raise as it does.
    """
    if edges is not None:
        return np.asarray(edges, dtype=np.float64)
    workspace.validate()
    if num_buckets < 1:
        raise ReproError(f"bucket count must be >= 1, got {num_buckets}")
    return workspace.lo + np.arange(num_buckets + 1) * (
        workspace.width / num_buckets
    )


def _buckets_from_edges(edges: list[float]) -> list[Bucket]:
    return [
        Bucket(i, edges[i], edges[i + 1]) for i in range(len(edges) - 1)
    ]


def _locate(edges: list[float], position: float) -> int:
    """Index of the bucket containing ``position`` (edges half-open)."""
    index = bisect_right(edges, position) - 1
    return min(max(index, 0), len(edges) - 2)


def _bucket_indices(edges: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """:func:`_locate` of every position, in one search.

    Over the interior edges, a position's right-side rank is the number
    of bucket boundaries past the first that lie at or below it: the
    located index, already clamped to ``[0, len(edges) - 2]``.
    """
    return edges[1:-1].searchsorted(positions, side="right")


@dataclass(frozen=True, slots=True)
class PLBucket:
    """Per-bucket statistics of Table 1."""

    index: int
    wss: float
    wse: float
    n: int
    total_length: float = 0.0  # ancestor role only

    @property
    def width(self) -> float:
        return self.wse - self.wss

    @property
    def average_length(self) -> float:
        """``l(R, i)``: mean interval length in the bucket (0 if empty)."""
        return self.total_length / self.n if self.n else 0.0


class PLHistogram:
    """A built PL histogram for one node set in one join role.

    The Table 1 statistics are held per bucket in four aligned arrays:
    ``wss``/``wse`` (float64 bucket bounds), ``n`` (int64 counts) and
    ``total_length`` (float64 summed lengths, all zero in the descendant
    role).  ``buckets`` derives the per-bucket :class:`PLBucket` view on
    first access and keeps it.
    """

    __slots__ = ("wss", "wse", "n", "total_length", "role", "_buckets")

    def __init__(
        self,
        wss: ArrayLike,
        wse: ArrayLike,
        n: ArrayLike,
        total_length: ArrayLike,
        role: Literal["ancestor", "descendant"],
    ) -> None:
        self.wss = np.asarray(wss, dtype=np.float64)
        self.wse = np.asarray(wse, dtype=np.float64)
        self.n = np.asarray(n, dtype=np.int64)
        self.total_length = np.asarray(total_length, dtype=np.float64)
        self.role = role
        self._buckets: list[PLBucket] | None = None

    def __len__(self) -> int:
        return len(self.n)

    @property
    def buckets(self) -> list[PLBucket]:
        """The statistics as one :class:`PLBucket` per bucket."""
        buckets = self._buckets
        if buckets is None:
            buckets = self._buckets = [
                PLBucket(i, wss, wse, n, length)
                for i, (wss, wse, n, length) in enumerate(
                    zip(
                        self.wss.tolist(),
                        self.wse.tolist(),
                        self.n.tolist(),
                        self.total_length.tolist(),
                    )
                )
            ]
        return buckets

    @classmethod
    def build_ancestor_reference(
        cls,
        node_set: NodeSet,
        workspace: Workspace,
        num_buckets: int,
        length_mode: LengthMode = "clipped",
        edges: list[float] | None = None,
    ) -> "PLHistogram":
        """Per-element loop implementation of :meth:`build_ancestor`."""
        if edges is None:
            bounds = workspace.buckets(num_buckets)
            edges = [b.wss for b in bounds] + [bounds[-1].wse]
        else:
            bounds = _buckets_from_edges(edges)
        count = len(bounds)
        counts = [0] * count
        lengths = [0.0] * count
        for element in node_set:
            first = _locate(edges, element.start)
            last = _locate(edges, element.end)
            for i in range(first, last + 1):
                counts[i] += 1
                if length_mode == "clipped":
                    lengths[i] += min(element.end, bounds[i].wse) - max(
                        element.start, bounds[i].wss
                    )
                else:
                    lengths[i] += element.length
        return cls(
            [b.wss for b in bounds],
            [b.wse for b in bounds],
            counts,
            lengths,
            "ancestor",
        )

    @classmethod
    def build_ancestor(
        cls,
        node_set: NodeSet,
        workspace: Workspace,
        num_buckets: int,
        length_mode: LengthMode = "clipped",
        edges: list[float] | None = None,
    ) -> "PLHistogram":
        """Histogram of ``node_set`` playing the ancestor (interval) role.

        ``edges`` overrides the equal-width partitioning with explicit
        strictly increasing bucket boundaries (used by equi-depth mode).

        Vectorized: per-element bucket ranges come from two
        ``np.searchsorted`` calls, the (element, bucket) incidence is
        expanded with ``np.repeat``, counts fall out of ``np.bincount``
        and clipped lengths accumulate through ``np.add.at`` — which
        applies its updates in operand order, so float totals match the
        reference loop bit for bit.
        """
        if perf.reference_kernels_enabled():
            return cls.build_ancestor_reference(
                node_set, workspace, num_buckets, length_mode, edges
            )
        edge_array = _edge_array(workspace, num_buckets, edges)
        count = len(edge_array) - 1
        counts = np.zeros(count, dtype=np.int64)
        lengths = np.zeros(count, dtype=np.float64)
        if len(node_set):
            starts = node_set.starts
            ends = node_set.ends
            first = _bucket_indices(edge_array, starts)
            last = _bucket_indices(edge_array, ends)
            spans = last - first + 1
            element_of = np.repeat(np.arange(len(node_set)), spans)
            offsets = np.arange(len(element_of)) - np.repeat(
                np.cumsum(spans) - spans, spans
            )
            bucket_of = first[element_of] + offsets
            counts = np.bincount(bucket_of, minlength=count).astype(
                np.int64, copy=False
            )
            if length_mode == "clipped":
                contributions = np.minimum(
                    ends[element_of], edge_array[bucket_of + 1]
                ) - np.maximum(starts[element_of], edge_array[bucket_of])
            else:
                contributions = (ends - starts)[element_of].astype(
                    np.float64
                )
            np.add.at(lengths, bucket_of, contributions)
        return cls(
            edge_array[:-1], edge_array[1:], counts, lengths, "ancestor"
        )

    @classmethod
    def build_descendant(
        cls,
        node_set: NodeSet,
        workspace: Workspace,
        num_buckets: int,
        edges: list[float] | None = None,
    ) -> "PLHistogram":
        """Histogram of ``node_set`` playing the descendant (point) role.

        Counts are ``np.histogram``'s over the bucket edges, taken the
        way it takes them, by an inclusive ``searchsorted`` (the last
        bucket also holds a start equal to its right edge), but straight
        on the node set's starts, which are already sorted.
        """
        edge_array = _edge_array(workspace, num_buckets, edges)
        starts = node_set.starts
        below = np.searchsorted(starts, edge_array, side="left")
        below[-1] = np.searchsorted(starts, edge_array[-1], side="right")
        return cls(
            edge_array[:-1],
            edge_array[1:],
            np.diff(below),
            np.zeros(len(below) - 1),
            "descendant",
        )


def _edges_key(edges: list[float] | None) -> tuple[float, ...] | None:
    return None if edges is None else tuple(edges)


def build_ancestor_cached(
    node_set: NodeSet,
    workspace: Workspace,
    num_buckets: int,
    length_mode: LengthMode = "clipped",
    edges: list[float] | None = None,
    cache: SummaryCache | None = None,
) -> PLHistogram:
    """:meth:`PLHistogram.build_ancestor` through the summary cache.

    With no explicit or ambient cache this is a plain build.  The key
    covers everything that shapes the histogram: set content, workspace,
    bucket count, length mode and (for equi-depth) the literal edges.
    """
    cache = resolve_cache(cache)
    build = lambda: PLHistogram.build_ancestor(  # noqa: E731
        node_set, workspace, num_buckets, length_mode, edges
    )
    if cache is None:
        return build()
    key = (
        "pl-ancestor",
        node_set.fingerprint,
        workspace,
        num_buckets,
        length_mode,
        _edges_key(edges),
    )
    return cache.get_or_build(key, build)


def build_descendant_cached(
    node_set: NodeSet,
    workspace: Workspace,
    num_buckets: int,
    edges: list[float] | None = None,
    cache: SummaryCache | None = None,
) -> PLHistogram:
    """:meth:`PLHistogram.build_descendant` through the summary cache."""
    cache = resolve_cache(cache)
    build = lambda: PLHistogram.build_descendant(  # noqa: E731
        node_set, workspace, num_buckets, edges
    )
    if cache is None:
        return build()
    key = (
        "pl-descendant",
        node_set.fingerprint,
        workspace,
        num_buckets,
        _edges_key(edges),
    )
    return cache.get_or_build(key, build)


class PLHistogramEstimator(Estimator):
    """PL-Hist-Est (Algorithm 1) with the MRE confidence measure.

    Args:
        num_buckets: number of workspace buckets ``b``; mutually exclusive
            with ``budget``.
        budget: a byte budget converted at 20 bytes per bucket.
        length_mode: see module docstring.
        cache: summary cache for built histograms; defaults to the
            ambient cache installed by :func:`repro.perf.use_cache`.
    """

    name = "PL"

    def __init__(
        self,
        num_buckets: int | None = None,
        budget: SpaceBudget | None = None,
        length_mode: LengthMode = "clipped",
        bucketing: Bucketing = "equi-width",
        cache: SummaryCache | None = None,
    ) -> None:
        if (num_buckets is None) == (budget is None):
            raise EstimationError(
                "specify exactly one of num_buckets or budget"
            )
        resolved = num_buckets if num_buckets is not None else budget.pl_buckets
        if resolved < 1:
            raise EstimationError(f"need >= 1 bucket, got {resolved}")
        if length_mode not in ("clipped", "full"):
            raise EstimationError(f"unknown length_mode {length_mode!r}")
        if bucketing not in ("equi-width", "equi-depth"):
            raise EstimationError(f"unknown bucketing {bucketing!r}")
        self.num_buckets = resolved
        self.length_mode: LengthMode = length_mode
        self.bucketing: Bucketing = bucketing
        self.cache = cache

    def estimate(
        self,
        ancestors: NodeSet,
        descendants: NodeSet,
        workspace: Workspace | None = None,
    ) -> Estimate:
        workspace = self.resolve_workspace(ancestors, descendants, workspace)
        if len(ancestors) == 0 or len(descendants) == 0:
            return Estimate(0.0, self.name, mre=0.0)
        cache = resolve_cache(self.cache)
        with _obs.phase_timer(self.name, "summary_build"):
            edges = None
            if self.bucketing == "equi-depth":
                if cache is None:
                    edges = equi_depth_edges(
                        descendants, workspace, self.num_buckets
                    )
                else:
                    edges = cache.get_or_build(
                        (
                            "pl-edges",
                            descendants.fingerprint,
                            workspace,
                            self.num_buckets,
                        ),
                        lambda: equi_depth_edges(
                            descendants, workspace, self.num_buckets
                        ),
                    )
            hist_a = build_ancestor_cached(
                ancestors, workspace, self.num_buckets, self.length_mode,
                edges=edges, cache=cache,
            )
            hist_d = build_descendant_cached(
                descendants, workspace, self.num_buckets, edges=edges,
                cache=cache,
            )
        with _obs.phase_timer(self.name, "estimate"):
            return self.estimate_from_histograms(hist_a, hist_d)

    def estimate_from_histograms(
        self, hist_a: PLHistogram, hist_d: PLHistogram
    ) -> Estimate:
        """Algorithm 1 over pre-built histograms (identical partitioning)."""
        if len(hist_a) != len(hist_d):
            raise EstimationError(
                "histograms must use the same partitioning: "
                f"{len(hist_a)} vs {len(hist_d)} buckets"
            )
        total = 0.0
        cov_weight = 0
        cov_sum = 0.0
        worst_mre = 0.0
        # Left to right, one bucket at a time, the order of the tests'
        # per-bucket reference: builtin sum (compensated since 3.12),
        # np.sum (pairwise) and math.fsum each round the totals
        # differently.
        for count, length, wss, wse, n_d in zip(
            hist_a.n.tolist(),
            hist_a.total_length.tolist(),
            hist_a.wss.tolist(),
            hist_a.wse.tolist(),
            hist_d.n.tolist(),
        ):
            if count == 0:
                continue
            cov = cov_value(length / count, n_d, wse - wss)
            total += count * cov
            cov_sum += cov * count
            cov_weight += count
            if n_d:
                worst_mre = max(worst_mre, maximum_relative_error(cov))
        average_cov = cov_sum / cov_weight if cov_weight else 0.0
        return Estimate(
            value=total,
            estimator=self.name,
            mre=maximum_relative_error(average_cov),
            details={
                "num_buckets": self.num_buckets,
                "length_mode": self.length_mode,
                "bucketing": self.bucketing,
                "average_cov": average_cov,
                "worst_bucket_mre": worst_mre,
            },
        )

    def average_cov(
        self,
        ancestors: NodeSet,
        descendants: NodeSet,
        workspace: Workspace | None = None,
    ) -> float:
        """The query-level average cov statistic reported in Table 4."""
        result = self.estimate(ancestors, descendants, workspace)
        return result.details.get("average_cov", 0.0)
