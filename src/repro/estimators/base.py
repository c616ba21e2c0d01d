"""The uniform estimator interface.

Every estimation method — histogram or sampling, ours or baseline — takes
two node sets (ancestor operand first) plus the workspace of the underlying
tree, and returns an :class:`Estimate`.  Estimators are small configured
objects so the experiment harness can sweep their parameters uniformly.
"""

from __future__ import annotations

import abc
import functools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar

from repro.core.errors import EstimationError
from repro.core.nodeset import NodeSet
from repro.core.workspace import Workspace
from repro.obs import runtime as _obs

#: Version of the :meth:`Estimate.to_dict` wire schema.  Bumped whenever
#: a field is renamed, removed, or changes meaning; additions are
#: backward compatible and do not bump it.
ESTIMATE_SCHEMA_VERSION = 1


def _to_wire(value: Any) -> Any:
    """A strictly JSON-representable copy of a result field.

    numpy scalars become Python scalars, non-finite floats become the
    strings ``"Infinity"`` / ``"-Infinity"`` / ``"NaN"`` (strict JSON has
    no encoding for them), containers are converted recursively, and
    anything else is stringified.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)) or hasattr(value, "item"):
        value = value.item() if hasattr(value, "item") else value
        if isinstance(value, float) and not math.isfinite(value):
            if math.isnan(value):
                return "NaN"
            return "Infinity" if value > 0 else "-Infinity"
        return value
    if isinstance(value, dict):
        return {str(k): _to_wire(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_wire(v) for v in value]
    return str(value)


def _from_wire_float(value: Any) -> float | None:
    """Invert :func:`_to_wire` for a float-valued field."""
    if value is None:
        return None
    if value == "Infinity":
        return math.inf
    if value == "-Infinity":
        return -math.inf
    if value == "NaN":
        return math.nan
    return float(value)


@dataclass(frozen=True, slots=True)
class Estimate:
    """The result of one size estimation.

    Attributes:
        value: the estimated containment join cardinality (>= 0).
        estimator: name of the estimator that produced it.
        mre: the PL histogram's maximum-relative-error confidence measure
            (Equation 2), ``math.inf`` when unbounded, None for estimators
            without such a measure.
        details: method-specific diagnostics (bucket counts, sample sizes,
            average cov, ...).
    """

    value: float
    estimator: str
    mre: float | None = None
    details: dict[str, Any] = field(default_factory=dict)

    def relative_error(self, true_size: int) -> float:
        """``|x - x̂| / x`` as a percentage — the paper's quality metric.

        ``value`` is a cardinality estimate and therefore expected to be
        ``>= 0`` (every estimator in this package guarantees it); the
        magnitude here is of the *unsigned* deviation — use
        :meth:`signed_relative_error` to keep the over/underestimate
        direction.

        When the true size is 0, returns 0.0 for an exact estimate and
        ``math.inf`` otherwise (the paper's workloads never hit this case).
        """
        if true_size == 0:
            return 0.0 if self.value == 0 else math.inf
        return abs(true_size - self.value) / true_size * 100.0

    def signed_relative_error(self, true_size: int) -> float:
        """``(x̂ - x) / x`` as a percentage, keeping the sign.

        Positive means overestimate, negative underestimate.  The zero
        truth convention matches :meth:`relative_error`: 0.0 for an
        exact estimate, ``math.inf`` for any nonzero one.
        """
        if true_size == 0:
            return 0.0 if self.value == 0 else math.inf
        return (self.value - true_size) / true_size * 100.0

    def to_dict(self) -> dict[str, Any]:
        """The stable JSON wire form of this estimate.

        One schema serves every serialization in the package — JSONL
        telemetry ``estimate`` events and estimation-service
        responses — so consumers parse a single format.  The layout is versioned by ``schema_version``
        (:data:`ESTIMATE_SCHEMA_VERSION`); every value is strictly
        JSON-representable (non-finite floats are encoded as the strings
        ``"Infinity"`` / ``"-Infinity"`` / ``"NaN"``).
        """
        return {
            "schema_version": ESTIMATE_SCHEMA_VERSION,
            "estimator": self.estimator,
            "value": _to_wire(self.value),
            "mre": _to_wire(self.mre),
            "details": _to_wire(self.details),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Estimate":
        """Rebuild an :class:`Estimate` from its :meth:`to_dict` form.

        Raises :class:`~repro.core.errors.EstimationError` for a missing
        or unsupported ``schema_version``.
        """
        version = payload.get("schema_version")
        if version != ESTIMATE_SCHEMA_VERSION:
            raise EstimationError(
                f"unsupported Estimate schema_version {version!r} "
                f"(this version reads {ESTIMATE_SCHEMA_VERSION})"
            )
        return cls(
            value=_from_wire_float(payload["value"]),
            estimator=str(payload["estimator"]),
            mre=_from_wire_float(payload.get("mre")),
            details=dict(payload.get("details") or {}),
        )


def _instrument_estimate(
    method: Callable[..., Estimate],
) -> Callable[..., Estimate]:
    """Wrap a concrete ``estimate`` with the observation hook.

    While :func:`repro.obs.enabled` is False the wrapper is one branch
    on a module-level flag; while observation is on it records the
    call's wall time, ``mre`` and sample/bucket details into the
    ambient registry and streams an ``estimate`` event to the ambient
    sink (see :func:`repro.obs.record_estimate`).
    """

    @functools.wraps(method)
    def estimate(
        self: "Estimator",
        ancestors: NodeSet,
        descendants: NodeSet,
        workspace: Workspace | None = None,
    ) -> Estimate:
        if not _obs.enabled():
            return method(self, ancestors, descendants, workspace)
        start = time.perf_counter()
        result = method(self, ancestors, descendants, workspace)
        _obs.record_estimate(
            self.name,
            result,
            time.perf_counter() - start,
            len(ancestors),
            len(descendants),
        )
        return result

    estimate._obs_instrumented = True  # type: ignore[attr-defined]
    return estimate


class Estimator(abc.ABC):
    """Base class for containment join size estimators.

    Subclasses overriding :meth:`estimate` are instrumented
    automatically (via ``__init_subclass__``): every call records wall
    time and result diagnostics through :mod:`repro.obs` whenever
    observation is enabled, and costs a single guard branch otherwise.
    """

    #: Short name used in reports ("PL", "PH", "IM", "PM", ...).
    name: ClassVar[str] = "?"

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        impl = cls.__dict__.get("estimate")
        if impl is not None and not getattr(
            impl, "_obs_instrumented", False
        ):
            cls.estimate = _instrument_estimate(impl)  # type: ignore

    @abc.abstractmethod
    def estimate(
        self,
        ancestors: NodeSet,
        descendants: NodeSet,
        workspace: Workspace | None = None,
    ) -> Estimate:
        """Estimate ``|ancestors ⋈ descendants|``.

        Args:
            ancestors: the ancestor operand ``A``.
            descendants: the descendant operand ``D``.
            workspace: the position domain; defaults to the tight span of
                both operands when omitted.
        """

    def size(
        self,
        ancestors: NodeSet,
        descendants: NodeSet,
        workspace: Workspace | None = None,
    ) -> float:
        """Convenience shortcut for ``estimate(...).value``."""
        return self.estimate(ancestors, descendants, workspace).value

    @staticmethod
    def resolve_workspace(
        ancestors: NodeSet,
        descendants: NodeSet,
        workspace: Workspace | None,
    ) -> Workspace:
        """Default the workspace to the tight span of both operands."""
        if workspace is not None:
            return workspace.validate()
        spans = []
        if len(ancestors):
            spans.append(ancestors.workspace())
        if len(descendants):
            spans.append(descendants.workspace())
        if not spans:
            return Workspace(0, 1)
        return Workspace.spanning(spans)
