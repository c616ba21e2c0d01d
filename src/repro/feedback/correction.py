"""Per-query-class correction of estimator bias, learned from feedback.

The paper's estimators carry *systematic*, workload-dependent bias: a PL
histogram over a skewed tag under-counts the same way on every repeat of
the query, and a sampling estimator's log-space mean is offset from the
truth even when unbiased in expectation (Jensen).  Both are visible in
the feedback store — records pairing an estimate with the exact size —
and both are multiplicative, so they are learned here in log space:

    log(exact + 1) − log(estimate + 1) ≈ features · β

one small ridge least-squares (or median, for the quantile variant) per
query class, dependency-free numpy.  Applying the model multiplies the
raw estimate by ``exp(features · β)`` (clamped); classes without a
fitted model get multiplier 1.0 **exactly**, so an unfitted (or
disabled) correction path is bit-identical to the raw estimate — the
property every existing identity gate relies on.

A fitted class must *earn* its model: :meth:`CorrectionModel.fit` drops
any per-class fit that fails to reduce the training (or, with
``holdout=``, held-out) mean relative error.  The model never makes a
class it cannot improve worse.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.errors import FeedbackError
from repro.feedback.store import FeedbackRecord, FeedbackStore

__all__ = [
    "CorrectionModel",
    "mean_relative_error",
]

_MODES = ("linear", "median")


def mean_relative_error(
    records: Iterable[FeedbackRecord],
    model: "CorrectionModel | None" = None,
) -> float | None:
    """Mean ``|estimate − exact| / exact`` over truth-known records.

    With ``model`` the estimates are corrected first.  Records without
    finite truth (or with zero truth) are skipped; returns None when
    nothing qualifies.
    """
    total = 0.0
    count = 0
    for record in records:
        exact = record.exact
        if exact is None or not math.isfinite(exact) or exact <= 0:
            continue
        value = record.estimate
        if model is not None:
            value = model.correct(
                value,
                record.query_class,
                record.features,
                method=record.method,
            )
        total += abs(value - exact) / exact
        count += 1
    return total / count if count else None


class CorrectionModel:
    """Opt-in post-multiplier over raw estimates, one fit per class.

    Args:
        mode: "linear" (ridge least squares over the feature vector) or
            "median" (intercept-only median log-residual — the robust
            quantile variant).
        per_method: fit one correction per ``(query class, method)``
            cell (the default — PL's bias on a class is not IM's) or,
            when False, one per class pooling all methods.
        min_samples: smallest truth-known record count a class needs
            before it may be fitted.
        ridge: Tikhonov weight for the linear mode.
        max_multiplier: clamp on the applied multiplier (both
            directions), a safety rail against extrapolation.
    """

    def __init__(
        self,
        *,
        mode: str = "linear",
        per_method: bool = True,
        min_samples: int = 4,
        ridge: float = 1e-6,
        max_multiplier: float = 1e6,
    ) -> None:
        if mode not in _MODES:
            raise FeedbackError(
                f"unknown correction mode {mode!r} "
                f"(expected one of {_MODES})"
            )
        if min_samples < 1:
            raise FeedbackError(
                f"min_samples must be >= 1, got {min_samples}"
            )
        if max_multiplier <= 1.0:
            raise FeedbackError(
                f"max_multiplier must be > 1, got {max_multiplier}"
            )
        self.mode = mode
        self.per_method = bool(per_method)
        self.min_samples = min_samples
        self.ridge = float(ridge)
        self.max_multiplier = float(max_multiplier)
        #: cell label -> coefficient vector (numpy 1-D, feature order).
        self._coef: dict[str, np.ndarray] = {}

    def cell(self, query_class: str, method: str | None = None) -> str:
        """The fit-cell label: ``class·method`` or just the class."""
        if self.per_method:
            return f"{query_class}·{method}" if method else query_class
        return query_class

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def fit(
        self,
        source: FeedbackStore | Iterable[FeedbackRecord],
        *,
        holdout: float = 0.0,
    ) -> dict[str, dict[str, Any]]:
        """Fit per-class corrections from truth-known records.

        Args:
            source: a :class:`FeedbackStore` or iterable of records
                (anything else raises :class:`FeedbackError`); only
                records with finite positive truth participate.
            holdout: fraction (0 ≤ h < 1) of each class's records (the
                tail, in record order) reserved for validation: a class
                keeps its fit only when held-out MRE does not increase.
                0 validates on the training records themselves.

        Returns a per-class fit report
        (``{"records", "mre_before", "mre_after", "fitted"}``).
        """
        if not 0.0 <= holdout < 1.0:
            raise FeedbackError(
                f"holdout must be in [0, 1), got {holdout}"
            )
        if isinstance(source, FeedbackStore):
            records = source.records(with_truth=True)
        else:
            try:
                records = list(source)
            except TypeError as error:
                raise FeedbackError(
                    f"fit takes a FeedbackStore or an iterable of "
                    f"FeedbackRecords, got {type(source).__name__}"
                ) from error
            for record in records:
                if not isinstance(record, FeedbackRecord):
                    raise FeedbackError(
                        f"fit expected a FeedbackRecord, "
                        f"got {type(record).__name__}"
                    )
        by_class: dict[str, list[FeedbackRecord]] = {}
        for record in records:
            exact = record.exact
            if exact is None or not math.isfinite(exact) or exact <= 0:
                continue
            if not record.features:
                continue
            label = self.cell(record.query_class, record.method)
            by_class.setdefault(label, []).append(record)

        report: dict[str, dict[str, Any]] = {}
        self._coef.clear()
        for query_class in sorted(by_class):
            rows = by_class[query_class]
            split = (
                len(rows) - int(round(holdout * len(rows)))
                if holdout
                else len(rows)
            )
            train, check = rows[:split], rows[split:] or rows[:split]
            row = {
                "records": len(rows),
                "mre_before": mean_relative_error(check),
                "mre_after": None,
                "fitted": False,
            }
            report[query_class] = row
            if len(train) < self.min_samples:
                row["mre_after"] = row["mre_before"]
                continue
            coef = self._solve(train)
            if coef is None:
                row["mre_after"] = row["mre_before"]
                continue
            self._coef[query_class] = coef
            corrected = mean_relative_error(check, self)
            if (
                corrected is None
                or row["mre_before"] is None
                or corrected > row["mre_before"]
            ):
                # The fit does not improve validation: drop it, keeping
                # the identity multiplier (never worse than raw).
                del self._coef[query_class]
                row["mre_after"] = row["mre_before"]
            else:
                row["mre_after"] = corrected
                row["fitted"] = True
        return report

    def _solve(
        self, records: Sequence[FeedbackRecord]
    ) -> np.ndarray | None:
        dims = {len(r.features) for r in records}
        if len(dims) != 1:
            return None
        x = np.asarray([r.features for r in records], dtype=np.float64)
        y = np.log1p(
            np.asarray([r.exact for r in records], dtype=np.float64)
        ) - np.log1p(
            np.asarray([r.estimate for r in records], dtype=np.float64)
        )
        if not np.all(np.isfinite(y)):
            return None
        if self.mode == "median":
            coef = np.zeros(x.shape[1], dtype=np.float64)
            coef[0] = float(np.median(y))
            return coef
        gram = x.T @ x + self.ridge * np.eye(x.shape[1])
        try:
            return np.linalg.solve(gram, x.T @ y)
        except np.linalg.LinAlgError:  # pragma: no cover - degenerate
            return None

    # ------------------------------------------------------------------
    # Applying
    # ------------------------------------------------------------------

    @property
    def fitted_classes(self) -> tuple[str, ...]:
        return tuple(sorted(self._coef))

    def predict_multiplier(
        self,
        query_class: str,
        features: Sequence[float],
        *,
        method: str | None = None,
    ) -> float:
        """The cell's learned multiplier; **exactly** 1.0 when unfitted."""
        coef = self._coef.get(self.cell(query_class, method))
        if coef is None or len(features) != coef.shape[0]:
            return 1.0
        bound = math.log(self.max_multiplier)
        shift = float(
            np.clip(
                np.asarray(features, dtype=np.float64) @ coef,
                -bound,
                bound,
            )
        )
        return math.exp(shift)

    def correct(
        self,
        value: float,
        query_class: str,
        features: Sequence[float],
        *,
        method: str | None = None,
    ) -> float:
        """Apply the correction in log1p space; identity when unfitted."""
        multiplier = self.predict_multiplier(
            query_class, features, method=method
        )
        if multiplier == 1.0:
            return value
        # log1p(corrected) = log1p(value) + log(multiplier), i.e. the
        # shift learned on the log1p residual: (value + 1) · m − 1.
        return max(0.0, (max(0.0, value) + 1.0) * multiplier - 1.0)
