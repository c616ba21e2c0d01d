"""The numpy probe kernels behind :mod:`repro.kernels.fused`.

Each function is one *fused* pass for one estimator's probe+scale body:
it takes the SoA operand arrays plus the (trials × m) sample layout and
returns the per-trial integer aggregates the estimator scales into
estimates.  Fusion here means no intermediate materialization beyond
what numpy's call convention forces: searchsorted outputs are reduced
in place, row reductions write into preallocated outputs, and the bool
masks the old per-phase path materialized (then copied via ``astype``)
never exist.

Every aggregate is integer arithmetic (sums, maxes, 0/1 dots), so these
functions are bit-for-bit equal to the paper's structures probed one
point at a time — the parity suites and the ``fused-vs-reference`` qa
oracle assert it against :mod:`repro.qa.reference`.
"""

from __future__ import annotations

import numpy as np


def _row_sum_max(
    counts: np.ndarray, rows: int, m: int
) -> tuple[np.ndarray, np.ndarray]:
    matrix = counts.reshape(rows, m)
    sums = np.empty(rows, dtype=np.int64)
    maxes = np.empty(rows, dtype=np.int64)
    matrix.sum(axis=1, out=sums)
    matrix.max(axis=1, out=maxes)
    return sums, maxes


def stab_sum_max(
    starts: np.ndarray,
    sorted_ends: np.ndarray,
    points: np.ndarray,
    rows: int,
    m: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Rank-identity stab counts of ``points``, reduced per trial row."""
    counts = np.searchsorted(starts, points, side="right")
    ended = np.searchsorted(sorted_ends, points, side="left")
    counts -= ended
    return _row_sum_max(counts, rows, m)


def ttree_sum_max(
    tp_keys: np.ndarray,
    tp_padded_values: np.ndarray,
    points: np.ndarray,
    rows: int,
    m: int,
) -> tuple[np.ndarray, np.ndarray]:
    """T-tree floor-lookup stab counts, reduced per trial row.

    ``tp_padded_values`` carries a leading 0, so ``searchsorted`` slots
    index it directly — no before-first-key mask.
    """
    slots = np.searchsorted(tp_keys, points, side="right")
    counts = tp_padded_values[slots]
    return _row_sum_max(counts, rows, m)


def gather_sum_max(
    table: np.ndarray, indices: np.ndarray, rows: int, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stab counts via the precomputed table: one gather, two reductions."""
    counts = table[indices]
    return _row_sum_max(counts, rows, m)


def stab_positive(
    starts: np.ndarray,
    sorted_ends: np.ndarray,
    points: np.ndarray,
    rows: int,
    m: int,
) -> np.ndarray:
    """Per-row count of points with a positive stab count (SEMI-D)."""
    counts = np.searchsorted(starts, points, side="right")
    ended = np.searchsorted(sorted_ends, points, side="left")
    counts -= ended
    hits = np.empty(rows, dtype=np.int64)
    (counts.reshape(rows, m) > 0).sum(axis=1, dtype=np.int64, out=hits)
    return hits


def gather_positive(
    table: np.ndarray, indices: np.ndarray, rows: int, m: int
) -> np.ndarray:
    """Table-gather variant of :func:`stab_positive`."""
    hits = np.empty(rows, dtype=np.int64)
    (table[indices].reshape(rows, m) > 0).sum(
        axis=1, dtype=np.int64, out=hits
    )
    return hits


def segment_sums(
    starts: np.ndarray,
    sorted_ends: np.ndarray,
    points: np.ndarray,
    offsets: np.ndarray,
) -> np.ndarray:
    """Ragged per-trial sums of stab counts (SYS's strided rows).

    ``offsets`` are the row start indices into the concatenated
    ``points``; every segment is non-empty (the systematic stride never
    exceeds the population), which is what makes ``reduceat`` exactly
    the per-segment sum.
    """
    counts = np.searchsorted(starts, points, side="right")
    ended = np.searchsorted(sorted_ends, points, side="left")
    counts -= ended
    return np.add.reduceat(counts, offsets)


def gather_segment_sums(
    table: np.ndarray, indices: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Table-gather variant of :func:`segment_sums`."""
    return np.add.reduceat(table[indices], offsets)


def membership(starts: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """0/1 start membership of each position (``PMD[v]``), int64."""
    if starts.shape[0] == 0:
        return np.zeros(positions.shape[0], dtype=np.int64)
    slots = np.searchsorted(starts, positions, side="left")
    np.minimum(slots, starts.shape[0] - 1, out=slots)
    return (starts[slots] == positions).astype(np.int64)


def _dot_hits(
    pma: np.ndarray, pmd: np.ndarray, rows: int, m: int
) -> tuple[np.ndarray, np.ndarray]:
    pma *= pmd  # pmd is 0/1: zero out non-member positions in place
    dots = np.empty(rows, dtype=np.int64)
    hits = np.empty(rows, dtype=np.int64)
    pma.reshape(rows, m).sum(axis=1, out=dots)
    pmd.reshape(rows, m).sum(axis=1, out=hits)
    return dots, hits


def pm_dot_hits_rank(
    a_starts: np.ndarray,
    a_sorted_ends: np.ndarray,
    d_starts: np.ndarray,
    positions: np.ndarray,
    rows: int,
    m: int,
) -> tuple[np.ndarray, np.ndarray]:
    """PM-Est with the rank backend: per-row ``(Σ pma·pmd, Σ pmd)``."""
    pma = np.searchsorted(a_starts, positions, side="right")
    ended = np.searchsorted(a_sorted_ends, positions, side="left")
    pma -= ended
    pmd = membership(d_starts, positions)
    return _dot_hits(pma, pmd, rows, m)


def pm_dot_hits_ttree(
    tp_keys: np.ndarray,
    tp_padded_values: np.ndarray,
    d_starts: np.ndarray,
    positions: np.ndarray,
    rows: int,
    m: int,
) -> tuple[np.ndarray, np.ndarray]:
    """PM-Est with the T-tree backend."""
    slots = np.searchsorted(tp_keys, positions, side="right")
    pma = tp_padded_values[slots]  # fancy indexing: already a fresh array
    pmd = membership(d_starts, positions)
    return _dot_hits(pma, pmd, rows, m)


def bifocal_dots(
    a_starts: np.ndarray,
    a_sorted_ends: np.ndarray,
    d_starts: np.ndarray,
    positions: np.ndarray,
    rows: int,
    m: int,
    threshold: int,
) -> np.ndarray:
    """Bifocal's sparse-part dots: ``Σ pma·pmd`` over ``pma < τ``."""
    pma = np.searchsorted(a_starts, positions, side="right")
    ended = np.searchsorted(a_sorted_ends, positions, side="left")
    pma -= ended
    pma[pma >= threshold] = 0  # dense positions contribute zero
    pmd = membership(d_starts, positions)
    pma *= pmd
    dots = np.empty(rows, dtype=np.int64)
    pma.reshape(rows, m).sum(axis=1, out=dots)
    return dots


def cross_hits(
    a_starts: np.ndarray,
    a_ends: np.ndarray,
    d_starts: np.ndarray,
    rows: int,
    m: int,
) -> np.ndarray:
    """Per-row count of sampled (a, d) pairs with containment."""
    flags = a_starts < d_starts
    flags &= d_starts < a_ends
    hits = np.empty(rows, dtype=np.int64)
    flags.reshape(rows, m).sum(axis=1, dtype=np.int64, out=hits)
    return hits


def span_hits(
    d_starts: np.ndarray,
    sample_starts: np.ndarray,
    sample_ends: np.ndarray,
    rows: int,
    m: int,
) -> np.ndarray:
    """Per-row count of sampled ancestors containing some d-start
    (SEMI-A): a hit when a descendant start lies strictly inside."""
    first_inside = np.searchsorted(d_starts, sample_starts, side="right")
    first_beyond = np.searchsorted(d_starts, sample_ends, side="left")
    flags = first_beyond > first_inside
    hits = np.empty(rows, dtype=np.int64)
    flags.reshape(rows, m).sum(axis=1, dtype=np.int64, out=hits)
    return hits
