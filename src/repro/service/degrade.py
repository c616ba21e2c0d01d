"""Graceful degradation: cheaper answers when full fidelity won't fit.

Under deadline pressure, an open circuit breaker, a stale snapshot or
an estimator fault, the service does not error — it walks a fixed
ladder of progressively cheaper estimators and returns the best answer
the remaining budget allows (paper Section 6 frames exactly this
trade: statistics already in the catalog cost nothing at plan time,
sampling costs base-data access).

Rungs, in order:

``requested`` (level 0)
    The estimator the caller asked for, at full fidelity.  Not handled
    here — the engine runs it.

``catalog`` (level 1)
    A plan-time answer from a :class:`~repro.catalog.StatisticsCatalog`:
    both operands' tags are catalogued with matching cardinalities, so
    ``estimate_join`` reads prebuilt PL histograms (or two-sample
    summaries) with no base-data access.  Skipped when no catalog is
    attached or the operands are not the catalogued sets.

``bound`` (level 2)
    The closed-form structural bound of Section 3.1
    (:func:`~repro.estimators.bounds.join_size_bounds`): the estimate is
    the upper bound, with the full enclosure in the details.  Costs one
    O(|A|) scan (cached on the NodeSet after the first call) and never
    fails, so every request can always be answered.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.estimators.base import Estimate
from repro.estimators.bounds import join_size_bounds
from repro.service.request import LADDER, EstimateRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.catalog import StatisticsCatalog


class DegradationLadder:
    """Produce the best sub-full-fidelity estimate for a request.

    Args:
        catalog: optional statistics catalog enabling the ``catalog``
            rung for operands whose tags it holds.
    """

    def __init__(self, catalog: "StatisticsCatalog | None" = None) -> None:
        self.catalog = catalog

    def degrade(self, request: EstimateRequest) -> tuple[Estimate, int]:
        """The cheapest-adequate fallback: ``(estimate, ladder_level)``.

        Tries the ``catalog`` rung first and falls through to ``bound``,
        which always succeeds.
        """
        estimate = self._from_catalog(request)
        if estimate is not None:
            return estimate, LADDER.index("catalog")
        return self._from_bound(request), LADDER.index("bound")

    # ------------------------------------------------------------------
    # Rungs
    # ------------------------------------------------------------------

    def _from_catalog(self, request: EstimateRequest) -> Estimate | None:
        """Level 1, or None when the catalog cannot answer this request.

        The catalog stores summaries per *tag*; it can stand in for the
        request only when each operand's name is a catalogued tag whose
        stored cardinality matches the operand — a same-named but
        filtered node set must not be answered from whole-tag
        statistics.
        """
        catalog = self.catalog
        if catalog is None:
            return None
        a, d = request.ancestors, request.descendants
        for operand in (a, d):
            if operand.name not in catalog:
                return None
            if catalog.cardinality(operand.name) != len(operand):
                return None
        result = catalog.estimate_join(a.name, d.name)
        return Estimate(
            result.value,
            result.estimator,
            mre=result.mre,
            details={**result.details, "degraded_from": request.method},
        )

    @staticmethod
    def _from_bound(request: EstimateRequest) -> Estimate:
        """Level 2: the structural upper bound — always answerable."""
        bounds = join_size_bounds(request.ancestors, request.descendants)
        return Estimate(
            float(bounds.upper),
            "BOUND",
            details={
                "bound_lower": bounds.lower,
                "bound_upper": bounds.upper,
                "degraded_from": request.method,
            },
        )
