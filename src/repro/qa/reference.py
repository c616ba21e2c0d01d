"""The paper's probe composition: the oracle for the fused kernels.

Section 5.3.1 answers each sampling probe against an index over one
operand: the rank identity ``|{start <= v}| - |{end < v}|``, the T-tree
over the covering table's turning points, or the XR-tree, plus the
start-position B+-tree for PM-Est's and bifocal sampling's ``PMD``
membership test.  Each function here builds that structure for the
call and probes it one point at a time, with the same signature as the
:mod:`repro.kernels.fused` entry point of the same name.  Every
aggregate is integer arithmetic, so each must equal its fused
counterpart bit for bit.

:func:`reference_probes` swaps these functions in for the fused entry
points, so a whole sampling estimator — its own draws, scaling and
``details`` — can be run against the paper's structures through the
unchanged public entry points.  Only the parity tests and the
``fused-vs-reference`` oracle need it; nothing in the runtime imports
this module.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from repro import perf
from repro.core.nodeset import NodeSet
from repro.index.bplus import start_position_index
from repro.index.ttree import TTree
from repro.index.xrtree import XRTree
from repro.kernels import fused
from repro.obs import runtime as _obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.index_cache import IndexCache


def _counter(ancestors: NodeSet, probe_backend: str) -> Callable[[int], int]:
    """The per-point stab count of the paper's structure, built fresh."""
    if probe_backend == "ttree":
        return TTree(ancestors).count
    if probe_backend == "xrtree":
        return XRTree(ancestors).stab_count
    return ancestors.stab_count


def _probe(count: Callable[[int], int], points: np.ndarray) -> np.ndarray:
    return np.array([count(int(p)) for p in points], dtype=np.int64)


def membership(starts: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """``PMD[v]`` per position through the start-position B+-tree.

    Builds the Section 5.3.1 index over ``starts`` and tests each
    position for membership: 1 when some element starts exactly there.
    """
    index = start_position_index([int(s) for s in starts])
    return np.array(
        [1 if int(v) in index else 0 for v in positions], dtype=np.int64
    )


def stab_sum_max(
    ancestors: NodeSet,
    descendants: NodeSet,
    indices: np.ndarray,
    rows: int,
    m: int,
    *,
    probe_backend: str,
    cache: "IndexCache | None",
    name: str,
) -> tuple[np.ndarray, np.ndarray]:
    """IM-DA-Est: per-trial ``(Σ count, max count)`` from the rank
    identity, T-tree or XR-tree, per point."""
    if m == 0:
        zeros = np.zeros(rows, dtype=np.int64)
        return zeros, np.zeros(rows, dtype=np.int64)
    points = descendants.starts[indices]
    with _obs.phase_timer(name, "index_build"):
        count = _counter(ancestors, probe_backend)
    with _obs.phase_timer(name, "probe"):
        matrix = _probe(count, points).reshape(rows, m)
    return matrix.sum(axis=1), matrix.max(axis=1)


def stab_positive(
    ancestors: NodeSet,
    descendants: NodeSet,
    indices: np.ndarray,
    rows: int,
    m: int,
    *,
    cache: "IndexCache | None",
    name: str,
) -> np.ndarray:
    """SEMI-D: per-trial count of sampled descendants with an ancestor."""
    if m == 0:
        return np.zeros(rows, dtype=np.int64)
    points = descendants.starts[indices]
    with _obs.phase_timer(name, "index_build"):
        count = _counter(ancestors, "rank")
    with _obs.phase_timer(name, "probe"):
        counts = _probe(count, points).reshape(rows, m)
    return (counts > 0).sum(axis=1, dtype=np.int64)


def stab_segment_sums(
    ancestors: NodeSet,
    descendants: NodeSet,
    indices: np.ndarray,
    offsets: np.ndarray,
    *,
    cache: "IndexCache | None",
    name: str,
) -> np.ndarray:
    """SYS: per-trial sums of stab counts over ragged index rows."""
    if indices.shape[0] == 0:
        return np.zeros(offsets.shape[0], dtype=np.int64)
    points = descendants.starts[indices]
    with _obs.phase_timer(name, "index_build"):
        count = _counter(ancestors, "rank")
    with _obs.phase_timer(name, "probe"):
        counts = _probe(count, points)
    return np.add.reduceat(counts, offsets)


def pm_dot_hits(
    ancestors: NodeSet,
    descendants: NodeSet,
    positions: np.ndarray,
    rows: int,
    m: int,
    *,
    probe_backend: str,
    cache: "IndexCache | None",
    name: str,
) -> tuple[np.ndarray, np.ndarray]:
    """PM-Est: per-trial ``(Σ PMA·PMD, Σ PMD)``, with ``PMD`` from the
    start-position B+-tree."""
    with _obs.phase_timer(name, "index_build"):
        count = _counter(ancestors, probe_backend)
    with _obs.phase_timer(name, "probe"):
        pma = _probe(count, positions).reshape(rows, m)
        pmd = membership(descendants.starts, positions).reshape(rows, m)
    return (pma * pmd).sum(axis=1), pmd.sum(axis=1)


def bifocal_sparse_dots(
    ancestors: NodeSet,
    descendants: NodeSet,
    positions: np.ndarray,
    rows: int,
    m: int,
    threshold: int,
    *,
    cache: "IndexCache | None",
    name: str,
) -> np.ndarray:
    """Bifocal sampling's sparse part: per-trial ``Σ PMA·PMD`` over the
    positions with ``PMA < threshold``."""
    with _obs.phase_timer(name, "index_build"):
        count = _counter(ancestors, "rank")
    with _obs.phase_timer(name, "probe"):
        pma = _probe(count, positions).reshape(rows, m)
        pmd = membership(descendants.starts, positions).reshape(rows, m)
    return (pma * (pma < threshold) * pmd).sum(axis=1)


#: The fused entry points with a reference form, by function.
_REFERENCE_FORMS = (
    stab_sum_max,
    stab_positive,
    stab_segment_sums,
    pm_dot_hits,
    bifocal_sparse_dots,
)


@contextmanager
def reference_probes() -> Iterator[None]:
    """Run the block with the paper's per-call probes.

    Enters :func:`repro.perf.reference_kernels` (the PL, PH, coverage,
    position-table and turning-point loops, and no index-cache
    resolution) and, for the duration of the block, puts this module's
    functions in place of the :mod:`repro.kernels.fused` entry points of
    the same names, the way a test substitutes a fake.  CROSS and
    SEMI-A probe no index, so their entry points stay.

    The substitution is a module attribute, global to the process, so
    only single-threaded callers may use it: the parity tests and the
    ``fused-vs-reference`` qa oracle, which both run in one thread.
    """
    saved = {f.__name__: getattr(fused, f.__name__) for f in _REFERENCE_FORMS}
    with perf.reference_kernels():
        try:
            for function in _REFERENCE_FORMS:
                setattr(fused, function.__name__, function)
            yield
        finally:
            for attribute, function in saved.items():
                setattr(fused, attribute, function)
