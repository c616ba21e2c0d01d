"""PM-Est: position-model sampling (Algorithm 3).

Under the position model the join size is the inner product
``Σ_v PMA(A)[v] · PMD(D)[v]`` over the workspace (Theorem 2).  PM-Est
samples ``m`` positions uniformly from the workspace, probes both tables
at each position and scales the summed products by ``w / m``.

Theorem 4: the estimate is unbiased and X̂ = Θ(X) + O(w) with high
probability, where ``w = cmax - cmin + 1`` is the workspace width.  Since
``w >= |A| + |D|`` while IM-DA-Est's additive term is only O(|D|), PM-Est
needs more samples for the same accuracy — the inferiority the paper
predicts in Section 5.2 and confirms in Figure 8.

Probes: ``PMA[v]`` via the T-tree (or the rank oracle), ``PMD[v]`` via an
index on start positions (Section 5.3.1).  The fused kernel
(:func:`repro.kernels.fused.pm_dot_hits`) answers the membership probe
with one ``searchsorted`` over the already-sorted start array and the
T-tree probe with one over its turning points; the paper's B+-tree
builds and per-position lookups are the oracle it is held to
(:func:`repro.qa.reference.pm_dot_hits`).
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from repro.core.budget import SpaceBudget
from repro.core.errors import EstimationError
from repro.core.nodeset import NodeSet
from repro.core.rng import SeedLike, make_rng
from repro.core.workspace import Workspace
from repro.estimators.base import Estimate
from repro.estimators.sampling_base import SamplingEstimator
from repro.kernels import fused
from repro.obs import runtime as _obs
from repro.perf import IndexCache, resolve_index_cache

Backend = Literal["rank", "ttree"]


class PMSamplingEstimator(SamplingEstimator):
    """PM-Est (Algorithm 3).

    Args:
        num_samples: sample size ``m``; mutually exclusive with ``budget``.
        budget: byte budget converted at 8 bytes per sample.
        seed: RNG seed or generator.
        backend: probe structure for ``PMA[v]`` — "rank" (two binary
            searches) or "ttree".  ``PMD[v]`` probes the descendant start
            positions (vectorized membership; a B+-tree in reference
            mode).
        index_cache: probe-index cache; defaults to the ambient one
            (:func:`repro.perf.use_index_cache`), if any.
    """

    name = "PM"

    def __init__(
        self,
        num_samples: int | None = None,
        budget: SpaceBudget | None = None,
        seed: SeedLike = None,
        backend: Backend = "rank",
        index_cache: IndexCache | None = None,
    ) -> None:
        if (num_samples is None) == (budget is None):
            raise EstimationError(
                "specify exactly one of num_samples or budget"
            )
        self.num_samples = (
            num_samples if num_samples is not None else budget.samples
        )
        if self.num_samples < 1:
            raise EstimationError(f"need >= 1 sample, got {self.num_samples}")
        if backend not in ("rank", "ttree"):
            raise EstimationError(f"unknown backend {backend!r}")
        self.backend: Backend = backend
        self._rng = make_rng(seed)
        self._index_cache = index_cache

    def _prepare_workspace(
        self,
        ancestors: NodeSet,
        descendants: NodeSet,
        workspace: Workspace | None,
    ) -> Workspace:
        return self.resolve_workspace(ancestors, descendants, workspace)

    def _run_trials(
        self,
        ancestors: NodeSet,
        descendants: NodeSet,
        workspace: Workspace | None,
        rngs: Sequence[np.random.Generator],
    ) -> list[Estimate]:
        assert workspace is not None  # _prepare_workspace resolved it
        m = self.num_samples
        position_rows = self._draw_uniform_matrix(
            rngs, workspace.lo, workspace.hi + 1, m
        )
        dots, hits = fused.pm_dot_hits(
            ancestors,
            descendants,
            position_rows.ravel(),
            len(rngs),
            m,
            probe_backend=self.backend,
            cache=resolve_index_cache(self._index_cache),
            name=self.name,
        )
        with _obs.phase_timer(self.name, "scale"):
            return [
                Estimate(
                    float(dots[i]) * workspace.width / m,
                    self.name,
                    details={
                        "samples": m,
                        "backend": self.backend,
                        "workspace_width": workspace.width,
                        "hits": int(hits[i]),
                    },
                )
                for i in range(len(rngs))
            ]
