"""Estimator registry: construct any estimator by its short name.

Used by the experiment harness and the examples so that a method sweep is
just a list of names plus shared keyword arguments.

Names are case-insensitive and an alias table maps the paper's longer
method names (``"pl-histogram"``, ``"im-da"``, ``"pm-est"``, ...) onto
the canonical short names; unknown names raise
:class:`~repro.core.errors.UnknownEstimatorError` listing every
available name plus the closest candidates.  An ambiguous fragment
("SEMI" is equally close to SEMI-A and SEMI-D) lists *all* of its near
matches — resolution never silently picks one.
"""

from __future__ import annotations

import difflib
from typing import Any, Callable, Iterable, Mapping

from repro.core.errors import EstimationError, UnknownEstimatorError
from repro.estimators.base import Estimator
from repro.estimators.bifocal import BifocalEstimator
from repro.estimators.coverage_histogram import CoverageHistogramEstimator
from repro.estimators.cross_sampling import (
    CrossSamplingEstimator,
    SystematicSamplingEstimator,
)
from repro.estimators.hybrid import HybridEstimator
from repro.estimators.im_sampling import IMSamplingEstimator
from repro.estimators.ph_histogram import PHHistogramEstimator
from repro.estimators.pl_histogram import PLHistogramEstimator
from repro.estimators.pm_sampling import PMSamplingEstimator
from repro.estimators.semijoin_sampling import (
    SemijoinAncestorsEstimator,
    SemijoinDescendantsEstimator,
)
from repro.estimators.sketch import SketchEstimator
from repro.estimators.two_sample import TwoSampleEstimator
from repro.estimators.wavelet import WaveletEstimator

_REGISTRY: dict[str, Callable[..., Estimator]] = {
    "PL": PLHistogramEstimator,
    "PH": PHHistogramEstimator,
    "IM": IMSamplingEstimator,
    "PM": PMSamplingEstimator,
    "COV": CoverageHistogramEstimator,
    "CROSS": CrossSamplingEstimator,
    "SYS": SystematicSamplingEstimator,
    "BIFOCAL": BifocalEstimator,
    "SKETCH": SketchEstimator,
    "WAVELET": WaveletEstimator,
    "SEMI-D": SemijoinDescendantsEstimator,
    "SEMI-A": SemijoinAncestorsEstimator,
    "2SAMPLE": TwoSampleEstimator,
    "HYBRID": HybridEstimator,
}


#: Longer / paper-style method names accepted as synonyms (uppercased).
_ALIASES: dict[str, str] = {
    "PL-HISTOGRAM": "PL",
    "PL-HIST": "PL",
    "PL-HIST-EST": "PL",
    "POINT-LINE": "PL",
    "PH-HISTOGRAM": "PH",
    "POSITIONAL": "PH",
    "POSITIONAL-HISTOGRAM": "PH",
    "IM-DA": "IM",
    "IM-DA-EST": "IM",
    "INTERVAL-SAMPLING": "IM",
    "PM-EST": "PM",
    "POSITION-SAMPLING": "PM",
    "COVERAGE": "COV",
    "COVERAGE-HISTOGRAM": "COV",
    "CROSS-SAMPLING": "CROSS",
    "SYSTEMATIC": "SYS",
    "SYSTEMATIC-SAMPLING": "SYS",
    "BIFOCAL-SAMPLING": "BIFOCAL",
    "COUNT-SKETCH": "SKETCH",
    "SEMIJOIN-ANCESTORS": "SEMI-A",
    "SEMIJOIN-DESCENDANTS": "SEMI-D",
    "TWO-SAMPLE": "2SAMPLE",
}


def available_estimators() -> list[str]:
    """Canonical short names accepted by :func:`make_estimator`."""
    return sorted(_REGISTRY)


def nearest_names(
    name: str,
    names: Iterable[str],
    aliases: Mapping[str, str],
    limit: int = 3,
) -> tuple[str, ...]:
    """Canonical names from ``names`` closest to ``name``, best first.

    The generic nearest-match engine behind every name registry in the
    package (estimators here, cardinality generators in
    :mod:`repro.optimizer.generator`).  Aliases participate in the
    matching but the returned candidates are always canonical names,
    deduplicated in similarity order.
    """
    pool = list(names)
    key = aliases.get(name.strip().upper(), name.strip().upper())
    close = difflib.get_close_matches(
        key, [*pool, *aliases], n=max(limit * 2, 6), cutoff=0.5
    )
    candidates: list[str] = []
    for match in close:
        canonical = aliases.get(match, match)
        if canonical not in candidates:
            candidates.append(canonical)
        if len(candidates) >= limit:
            break
    return tuple(candidates)


def nearest_estimators(name: str, limit: int = 3) -> tuple[str, ...]:
    """Canonical estimator names closest to ``name``, best first.

    Aliases participate in the matching (so "semijoin" finds SEMI-A and
    SEMI-D through the alias table) but the returned candidates are
    always canonical registry names, deduplicated in similarity order.
    """
    return nearest_names(name, _REGISTRY, _ALIASES, limit)


def canonical_name(name: str) -> str:
    """Resolve any accepted spelling to a canonical registry name.

    Raises :class:`UnknownEstimatorError` for unknown names, listing the
    available names and *every* close candidate — an ambiguous fragment
    is reported with all of its near matches rather than silently
    resolved to an arbitrary one.  A name that is not a string raises it
    too, with no candidates.
    """
    if not isinstance(name, str):
        raise UnknownEstimatorError(
            name, (), f"estimator name must be a string, got {name!r}"
        )
    key = name.strip().upper()
    key = _ALIASES.get(key, key)
    if key in _REGISTRY:
        return key
    candidates = nearest_estimators(name)
    if not candidates:
        hint = ""
    elif len(candidates) == 1:
        hint = f"; did you mean {candidates[0]!r}?"
    else:
        listed = ", ".join(repr(c) for c in candidates[:-1])
        hint = f"; did you mean {listed} or {candidates[-1]!r}?"
    raise UnknownEstimatorError(
        name,
        candidates,
        f"unknown estimator {name!r}; available: "
        f"{', '.join(available_estimators())}{hint}",
    )


def make_estimator(name: str, **kwargs: Any) -> Estimator:
    """Instantiate an estimator by short name or alias (any case).

    >>> make_estimator("PL", num_buckets=20).name
    'PL'
    >>> make_estimator("pl-histogram", num_buckets=20).name
    'PL'

    A configuration the constructor rejects with a ``TypeError`` (an
    unknown keyword, a string where a number belongs) raises
    :class:`EstimationError` naming the method.
    """
    method = canonical_name(name)
    try:
        return _REGISTRY[method](**kwargs)
    except TypeError as error:
        raise EstimationError(
            f"invalid configuration for {method}: {error}"
        ) from error
