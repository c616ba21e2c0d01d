"""repro.kernels: the fused numpy probe kernels.

The package splits the sampling estimators' hot path into two layers:

* :mod:`repro.kernels.arena` — the structure-of-arrays operand layout
  (:class:`OperandArena`) shared between the local probe path and the
  binary wire format, plus the content-keyed stab-count table, built
  on an operand pair's second probe under an index cache;
* :mod:`repro.kernels.fused` — the estimator-facing entry points fusing
  index_build → probe → scale into single passes over the numpy
  kernels of :mod:`repro.kernels._numpy`.

This is the one runtime probe path.  The paper's per-call index
composition (T-tree, XR-tree, start-position B+-tree, probed one point
at a time) is the oracle it is held to, in :mod:`repro.qa.reference`.
"""

from repro.kernels.arena import (
    OPERAND_FIELDS,
    OperandArena,
    operand_arena,
    stab_count_table,
)
from repro.kernels import fused

__all__ = [
    "OPERAND_FIELDS",
    "OperandArena",
    "fused",
    "operand_arena",
    "stab_count_table",
]
