"""repro.kernels: backend-dispatched fused probe kernels.

The package splits the sampling estimators' hot path into three layers:

* :mod:`repro.kernels.arena` — the structure-of-arrays operand layout
  (:class:`OperandArena`) shared between the local probe path and the
  binary wire format, plus the content-keyed stab-count table, built
  on an operand pair's second probe under an index cache;
* :mod:`repro.kernels.backend` — the backend registry:
  :func:`set_kernel_backend` switches between the always-present numpy
  implementation and the optional numba one (a soft dependency with
  silent numpy fallback — selecting it never changes results, only
  speed);
* :mod:`repro.kernels.fused` — the estimator-facing entry points fusing
  index_build → probe → scale into single passes, with the original
  per-call compositions retained under
  :func:`repro.perf.reference_kernels` as the semantics of record.
"""

from repro.kernels.arena import (
    OPERAND_FIELDS,
    OperandArena,
    operand_arena,
    stab_count_table,
)
from repro.kernels.backend import (
    KNOWN_BACKENDS,
    available_backends,
    kernel_backend,
    set_kernel_backend,
    use_kernel_backend,
)
from repro.kernels import fused

__all__ = [
    "KNOWN_BACKENDS",
    "OPERAND_FIELDS",
    "OperandArena",
    "available_backends",
    "fused",
    "kernel_backend",
    "operand_arena",
    "set_kernel_backend",
    "stab_count_table",
    "use_kernel_backend",
]
