"""Exception hierarchy for the repro package.

Everything this package raises on its public paths derives from
:class:`ReproError`, so callers can catch one root type.  The taxonomy
is layered for compatibility: each newer, more specific error subclasses
the older, broader one it used to be raised as (for example
:class:`UnknownEstimatorError` is an :class:`EstimationError`, and
:class:`EmptyNodeSetError` is an :class:`InvalidNodeSetError`), so
``except`` clauses written against earlier versions keep working.  The
mapping is documented in ``docs/API.md``.
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class InvalidNodeSetError(ReproError):
    """An operand is not a usable node set.

    Raised when a public entry point receives something that is not a
    :class:`~repro.core.nodeset.NodeSet` (or whose region codes violate
    the XML nesting invariants — see the subclasses).
    """


class InvalidRegionCodeError(InvalidNodeSetError):
    """A region code violates the XML region coding invariants.

    Raised when ``end <= start``, when two elements share a start or end
    code, or when two regions partially overlap (which the strictly nested
    property of XML forbids).
    """


class EmptyNodeSetError(InvalidNodeSetError):
    """An operation that requires a non-empty node set received an empty one."""


class ParseError(ReproError):
    """Malformed XML text passed to :mod:`repro.xmltree.parser`."""


class QueryError(ReproError):
    """Malformed or unsupported path expression."""


class EstimationError(ReproError):
    """An estimator was configured or invoked incorrectly."""


class UnknownEstimatorError(EstimationError):
    """A method name did not resolve to any registered estimator.

    Attributes:
        name: the unresolved name as given.
        candidates: canonical registry names closest to ``name`` (possibly
            empty), ordered by similarity.  When a name is an ambiguous
            fragment ("SEMI", "PLH") *every* near match is listed instead
            of silently picking one.
    """

    def __init__(self, name: str, candidates: tuple[str, ...], message: str):
        super().__init__(message)
        self.name = name
        self.candidates = candidates


class PlanError(EstimationError):
    """The join-order planner was misused or received an invalid plan.

    Raised for chains too short to plan, malformed
    :meth:`~repro.optimizer.planner.JoinPlan.from_dict` payloads, and
    generator contract violations surfaced by ``pre_check``.  Subclasses
    :class:`EstimationError` because planner misuse was historically
    raised as one — ``except EstimationError`` handlers keep working.
    """


class UnknownGeneratorError(UnknownEstimatorError):
    """A name resolved to neither a cardinality generator nor an estimator.

    Carries the same ``name``/``candidates`` attributes as
    :class:`UnknownEstimatorError` (which it subclasses, so existing
    handlers catch it); candidates mix generator names (``EXACT``,
    ``UBOUND``) with estimator registry names.
    """


class UnknownRouterError(UnknownEstimatorError):
    """A name did not resolve to any registered method router.

    Carries the same ``name``/``candidates`` attributes as
    :class:`UnknownEstimatorError` (which it subclasses, so existing
    handlers catch it); candidates are canonical router names
    (``UCB1``, ``THOMPSON``, ``STATIC``).
    """


class FeedbackError(ReproError):
    """The feedback subsystem was configured or invoked incorrectly.

    Raised for a store, method, estimate or truth of the wrong type at
    :func:`~repro.feedback.record_feedback` and
    :meth:`~repro.feedback.FeedbackStore.observe_truth`, a malformed
    store bound, and correction-model misuse (including a ``fit``
    source that is not a store or an iterable of records).
    """


class BudgetExceededError(EstimationError):
    """A space or work budget cannot accommodate the request.

    Raised when a :class:`~repro.core.budget.SpaceBudget` is too small to
    hold a single bucket or sample, and by the estimation service when a
    request's budget is exhausted before any estimator could run.
    """



class ServiceError(ReproError):
    """The estimation service was used incorrectly (e.g. submit after stop)."""


class StreamError(ReproError):
    """A live workspace mutation or snapshot request was invalid.

    Raised by :mod:`repro.stream` for malformed mutations (inserting an
    element that is already live, deleting one that is not), mutations
    outside the live workspace's position domain, and lookups of tags or
    tenants that do not exist.
    """


class UnknownModuleError(ReproError):
    """A public subsystem name did not resolve.

    Raised by :func:`repro.api.resolve_module` with the same
    nearest-match affordance as :class:`UnknownEstimatorError`: the
    offending ``name``, the ``candidates`` guessed from aliases and
    close spellings, and a human-readable ``message`` that includes a
    "did you mean" hint when there is one.
    """

    def __init__(
        self, name: str, candidates: tuple[str, ...], message: str
    ) -> None:
        super().__init__(message)
        self.name = name
        self.candidates = candidates
