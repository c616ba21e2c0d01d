"""Serving feedback: record what was answered, learn what was wrong.

The closed-loop half of the serving stack (the other half is
:mod:`repro.router`): a :class:`FeedbackStore` accumulates
:class:`FeedbackRecord` rows — query class, method, estimate, truth when
known, latency, degradation reason — with order-free per-(class, method)
aggregates, and a :class:`CorrectionModel` turns the truth-known rows
into per-class log-space multipliers applied (opt-in) over raw
estimates.

Records enter through :func:`record_feedback` (the service calls it for
every response when it holds a store); truth enters through
:meth:`FeedbackStore.observe_truth`, which completes the records stored
for the same operand pair.  Both take the store explicitly: there is no
ambient store.
"""

from repro.feedback.correction import CorrectionModel, mean_relative_error
from repro.feedback.store import (
    FeedbackRecord,
    FeedbackStore,
    MethodStats,
    featurize,
    pair_key,
    query_class,
    record_feedback,
)

__all__ = [
    "CorrectionModel",
    "FeedbackRecord",
    "FeedbackStore",
    "MethodStats",
    "featurize",
    "mean_relative_error",
    "pair_key",
    "query_class",
    "record_feedback",
]
