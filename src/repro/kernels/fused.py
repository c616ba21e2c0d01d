"""Fused probe pipelines: index_build → probe → scale in one pass.

Each function here is the full probe body of one sampling estimator,
expressed over :class:`~repro.kernels.arena.OperandArena` views and the
numpy kernels of :mod:`repro.kernels._numpy`.  The estimators keep
ownership of sample *drawing* (the RNG streams are part of the public
contract) and of *scaling* aggregates into :class:`Estimate` objects;
everything in between — operand layout, index acquisition, probing,
per-trial reduction — happens here, with no intermediate arrays handed
back across the boundary.

Two operand tiers, fastest first:

1. **stab-count table** (cache present, probe points drawn from the
   descendant start array, and the pair probed before): the probe is a
   pure gather — :func:`repro.kernels.arena.stab_count_table`.  The
   table is looked up first; it is built on a pair's second probe and
   gathered from on every later one;
2. **direct arena kernels** (no cache, a pair's first probe under one,
   and every PM-Est/bifocal probe): searchsorted rank identity or
   turning-point floor lookup straight off the arena views, no index
   object built at all.

On the IM, SEMI-D and SYS paths the table, the arena's start and
sorted end codes and the padded turning points are all read inside the
``index_build`` phase timer, so the lazy sort of a fresh operand's end
codes is charged to index building, never to the probe.  PM-Est and
bifocal sampling sort them earlier, when they resolve the workspace
(:meth:`NodeSet.workspace` reads the last sorted end).

All aggregates are integer arithmetic, so both tiers return bit-for-bit
identical values; only the time changes.  The paper's per-call
composition — the rank identity, T-tree, XR-tree or start-position
B+-tree built per call and probed one point at a time — is the oracle
these functions are held to: :func:`repro.qa.reference.reference_probes`
puts it in place of each entry point that has a reference form.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.nodeset import NodeSet
from repro.kernels import _numpy
from repro.kernels.arena import operand_arena, stab_count_table
from repro.obs import runtime as _obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.perf.index_cache import IndexCache


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
    """IM-DA-Est probe: per-trial ``(Σ count, max count)`` of the stab
    counts of ``descendants.starts[indices]`` against ``ancestors``.

    ``indices`` is the row-major flattening of a ``rows × m`` draw
    matrix.  With a cache, from the pair's second probe on, the
    stab-count table turns the whole probe into one gather regardless
    of ``probe_backend`` — all three probe structures answer the
    identical query, so the table serves them all.
    """
    if m == 0:
        zeros = np.zeros(rows, dtype=np.int64)
        return zeros, np.zeros(rows, dtype=np.int64)
    with _obs.phase_timer(name, "index_build"):
        table = stab_count_table(ancestors, descendants, cache)
        if table is None:
            arena = operand_arena(ancestors)
            if probe_backend == "ttree":
                tp_keys, tp_padded = arena.turning_points()
            else:
                starts, sorted_ends = arena.starts, arena.sorted_ends
    with _obs.phase_timer(name, "probe"):
        if table is not None:
            return _numpy.gather_sum_max(table, indices, rows, m)
        points = descendants.starts[indices]
        if probe_backend == "ttree":
            return _numpy.ttree_sum_max(tp_keys, tp_padded, points, rows, m)
        # "rank" and "xrtree" both probe the rank identity in batch.
        return _numpy.stab_sum_max(starts, sorted_ends, points, rows, m)


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
    """SEMI-D probe: per-trial count of sampled descendants with at
    least one ancestor."""
    if m == 0:
        return np.zeros(rows, dtype=np.int64)
    with _obs.phase_timer(name, "index_build"):
        table = stab_count_table(ancestors, descendants, cache)
        if table is None:
            arena = operand_arena(ancestors)
            starts, sorted_ends = arena.starts, arena.sorted_ends
    with _obs.phase_timer(name, "probe"):
        if table is not None:
            return _numpy.gather_positive(table, indices, rows, m)
        points = descendants.starts[indices]
        return _numpy.stab_positive(starts, sorted_ends, points, rows, m)


def stab_segment_sums(
    ancestors: NodeSet,
    descendants: NodeSet,
    indices: np.ndarray,
    offsets: np.ndarray,
    *,
    cache: "IndexCache | None",
    name: str,
) -> np.ndarray:
    """SYS probe: per-trial sums of stab counts over ragged index rows.

    ``offsets[i]`` is the position in ``indices`` where trial ``i``'s
    (systematic, data-dependent-length) row begins.
    """
    if indices.shape[0] == 0:
        return np.zeros(offsets.shape[0], dtype=np.int64)
    with _obs.phase_timer(name, "index_build"):
        table = stab_count_table(ancestors, descendants, cache)
        if table is None:
            arena = operand_arena(ancestors)
            starts, sorted_ends = arena.starts, arena.sorted_ends
    with _obs.phase_timer(name, "probe"):
        if table is not None:
            return _numpy.gather_segment_sums(table, indices, offsets)
        points = descendants.starts[indices]
        return _numpy.segment_sums(starts, sorted_ends, points, offsets)


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
    """PM-Est probe: per-trial ``(Σ PMA·PMD, Σ PMD)`` over sampled
    workspace positions.

    Positions are uniform workspace draws, not descendant starts, so
    there is no table tier — the arena kernels are the fast path.
    """
    with _obs.phase_timer(name, "index_build"):
        arena = operand_arena(ancestors, cache)
        if probe_backend == "ttree":
            tp_keys, tp_padded = arena.turning_points()
    with _obs.phase_timer(name, "probe"):
        if probe_backend == "ttree":
            return _numpy.pm_dot_hits_ttree(
                tp_keys, tp_padded, descendants.starts, positions, rows, m
            )
        return _numpy.pm_dot_hits_rank(
            arena.starts,
            arena.sorted_ends,
            descendants.starts,
            positions,
            rows,
            m,
        )


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
    """Bifocal sparse-part probe: per-trial ``Σ PMA·PMD`` restricted to
    positions with ``PMA < threshold``."""
    with _obs.phase_timer(name, "index_build"):
        arena = operand_arena(ancestors, cache)
    with _obs.phase_timer(name, "probe"):
        return _numpy.bifocal_dots(
            arena.starts,
            arena.sorted_ends,
            descendants.starts,
            positions,
            rows,
            m,
            threshold,
        )


def cross_hits(
    ancestors: NodeSet,
    descendants: NodeSet,
    a_indices: np.ndarray,
    d_indices: np.ndarray,
    rows: int,
    m: int,
    *,
    name: str,
) -> np.ndarray:
    """CROSS probe: per-trial count of sampled (a, d) pairs joining."""
    with _obs.phase_timer(name, "probe"):
        arena = operand_arena(ancestors)
        a_starts = arena.starts[a_indices]
        a_ends = arena.ends[a_indices]
        d_starts = descendants.starts[d_indices]
        return _numpy.cross_hits(a_starts, a_ends, d_starts, rows, m)


def span_hits(
    ancestors: NodeSet,
    descendants: NodeSet,
    indices: np.ndarray,
    rows: int,
    m: int,
    *,
    name: str,
) -> np.ndarray:
    """SEMI-A probe: per-trial count of sampled ancestors containing at
    least one descendant start."""
    with _obs.phase_timer(name, "probe"):
        arena = operand_arena(ancestors)
        sample_starts = arena.starts[indices]
        sample_ends = arena.ends[indices]
        return _numpy.span_hits(
            descendants.starts, sample_starts, sample_ends, rows, m
        )
