"""The performance layer: vectorized kernels and summary caching.

Two coordinated pieces (see ``docs/ARCHITECTURE.md``, "Performance
architecture"):

* **kernels** — the histogram/table builders in ``repro.models`` and
  ``repro.estimators`` are numpy bulk operations; the original
  per-element loops are retained as ``*_reference`` functions and the
  property suite asserts bit-for-bit agreement.  :func:`reference_kernels`
  switches the package back to those loops (the PL, PH and coverage
  builders, the position tables and the turning points), which is how
  the tests compare whole estimators against the spec.  It does not
  reach the sampling probes, which have one runtime path
  (:mod:`repro.kernels.fused`); their oracle is
  :func:`repro.qa.reference.reference_probes`, which enters this mode
  too.
* **cache** — :class:`SummaryCache` memoizes built summaries under
  content keys, storing each on its key's second miss, so budget/method
  sweeps build each recurring one at most twice;
  :class:`IndexCache` does the same for what the sampling estimators'
  probes read (operand arenas and stab-count tables).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.perf.cache import (
    SummaryCache,
    active_cache,
    resolve_cache,
    use_cache,
)

__all__ = [
    "SummaryCache",
    "active_cache",
    "resolve_cache",
    "use_cache",
    "IndexCache",
    "active_index_cache",
    "resolve_index_cache",
    "use_index_cache",
    "reference_kernels",
    "reference_kernels_enabled",
]

_reference_mode = False


def reference_kernels_enabled() -> bool:
    """True while the retained loop implementations are selected."""
    return _reference_mode


@contextmanager
def reference_kernels(enabled: bool = True) -> Iterator[None]:
    """Run the block with the ``*_reference`` loop kernels.

    Only the property tests and the qa oracles should need this; it
    exists so the vectorized and reference paths stay comparable
    through the exact same public entry points.  The sampling probes
    are not among them: :func:`repro.qa.reference.reference_probes`
    enters this mode and swaps in the paper's probe structures too.
    """
    global _reference_mode
    previous = _reference_mode
    _reference_mode = enabled
    try:
        yield
    finally:
        _reference_mode = previous


# Imported last: index_cache imports this package to consult
# reference_kernels_enabled (defined above).
from repro.perf.index_cache import (  # noqa: E402
    IndexCache,
    active_index_cache,
    resolve_index_cache,
    use_index_cache,
)
