"""IM-DA-Est: interval-model descendant adaptive sampling (Algorithm 2).

Inspired by bifocal sampling plus the key XML observation of Section 5.1:
a descendant point can stab at most ``H`` ancestor intervals (``H`` = tree
height), so with ``H < O(sqrt(|A|))`` *every* subjoin is sparse and the
bifocal machinery collapses to a single procedure — sample ``m`` points
from ``IMD(D)``, count for each how many ``IMA(A)`` intervals it stabs,
and scale by ``|D| / m``.

Theorem 3: the estimate X̂ is unbiased (E[X̂] = X) and, by Hoeffding
bounds on the [0, H·|D|/m]-valued contributions, X̂ = Θ(X) + O(|D|) with
high probability — an improvement over the O(n log n) requirement of
plain bifocal sampling.  Both properties are verified by the test suite.

The per-sample probe ("how many intervals contain this point?") supports
three interchangeable backends (Section 5.3.1): the rank oracle (two
binary searches), the T-tree and the XR-tree.  All three probe through
the fused kernels of :func:`repro.kernels.fused.stab_sum_max`: with an
ambient :class:`~repro.perf.IndexCache` the whole probe is one gather
from the pair's stab-count table, built on the pair's second probe; a
first probe, and every probe without a cache, runs straight off the
operand arena with no index object built.  The paper's structures,
built per call and probed one point at a time, are the oracle it is
held to (:func:`repro.qa.reference.stab_sum_max`).
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

Backend = Literal["rank", "ttree", "xrtree"]


class IMSamplingEstimator(SamplingEstimator):
    """IM-DA-Est (Algorithm 2).

    Args:
        num_samples: sample size ``m``; mutually exclusive with ``budget``.
        budget: byte budget converted at 8 bytes per sample.
        seed: RNG seed or generator; consecutive ``estimate`` calls draw
            fresh samples (the experiment harness averages over them).
        backend: probe structure for the stabbing counts.
        replace: sample descendants with replacement.  The default False
            matches Algorithm 2's "random sample from IMD(D)"; when the
            requested m exceeds |D| the sample is the whole set and the
            estimate is exact.
        index_cache: probe-index cache; defaults to the ambient one
            (:func:`repro.perf.use_index_cache`), if any.
    """

    name = "IM"

    def __init__(
        self,
        num_samples: int | None = None,
        budget: SpaceBudget | None = None,
        seed: SeedLike = None,
        backend: Backend = "rank",
        replace: bool = False,
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
        if backend not in ("rank", "ttree", "xrtree"):
            raise EstimationError(f"unknown backend {backend!r}")
        self.backend: Backend = backend
        self.replace = replace
        self._rng = make_rng(seed)
        self._index_cache = index_cache

    def _run_trials(
        self,
        ancestors: NodeSet,
        descendants: NodeSet,
        workspace: Workspace | None,
        rngs: Sequence[np.random.Generator],
    ) -> list[Estimate]:
        population = len(descendants)
        if self.replace:
            m = self.num_samples
            index_rows = self._draw_uniform_matrix(rngs, 0, population, m)
        else:
            m = min(self.num_samples, population)
            index_rows = self._draw_choice_rows(rngs, population, m)
        sums, maxes = fused.stab_sum_max(
            ancestors,
            descendants,
            index_rows.ravel(),
            len(rngs),
            m,
            probe_backend=self.backend,
            cache=resolve_index_cache(self._index_cache),
            name=self.name,
        )
        with _obs.phase_timer(self.name, "scale"):
            return [
                Estimate(
                    float(sums[i]) * population / m,
                    self.name,
                    details={
                        "samples": m,
                        "backend": self.backend,
                        "replace": self.replace,
                        "max_subjoin": int(maxes[i]),
                    },
                )
                for i in range(len(rngs))
            ]
