"""The position model (Section 3.3).

For an element set ``S`` and a workspace ``[cmin, cmax]``:

* the *covering table* ``PMA(S)`` maps every position ``v`` to the number of
  elements whose region covers ``v`` (``e.start <= v <= e.end``);
* the *start table* ``PMD(S)`` maps every position ``v`` to 1 if some
  element starts at ``v`` and 0 otherwise (codes are distinct, so the count
  never exceeds 1).

Theorem 2: ``|A ⋈ D| = Σ_v PMA(A)[v] · PMD(D)[v]``.

``PMA`` is piecewise constant with only O(|S|) *turning points* — positions
where its value changes — which is what the T-tree index stores
(Section 5.3.1 and Figure 4).

The public builders are numpy bulk operations (difference arrays filled
with ``np.add.at``, breakpoints aggregated with ``np.unique``/
``np.bincount``); the original per-element loops are retained as
``*_reference`` functions and stay the semantics of record — the property
suite asserts both paths agree bit for bit, and
:func:`repro.perf.reference_kernels` re-selects them package-wide for
benchmarking.
"""

from __future__ import annotations

import numpy as np

from repro import perf
from repro.core.nodeset import NodeSet
from repro.core.workspace import Workspace


def covering_table_reference(
    node_set: NodeSet, workspace: Workspace
) -> np.ndarray:
    """Per-element loop implementation of :func:`covering_table`."""
    width = workspace.width
    delta = np.zeros(width + 1, dtype=np.int64)
    for element in node_set:
        lo = max(element.start, workspace.lo)
        hi = min(element.end, workspace.hi)
        if lo > hi:
            continue
        delta[lo - workspace.lo] += 1
        delta[hi - workspace.lo + 1] -= 1
    return np.cumsum(delta[:-1])


def covering_table(node_set: NodeSet, workspace: Workspace) -> np.ndarray:
    """Dense ``PMA`` array over every integer position of ``workspace``.

    ``result[v - workspace.lo]`` is the number of regions covering ``v``.
    Built in O(|S| + W) with a difference array.
    """
    if perf.reference_kernels_enabled():
        return covering_table_reference(node_set, workspace)
    width = workspace.width
    delta = np.zeros(width + 1, dtype=np.int64)
    lo = np.maximum(node_set.starts, workspace.lo)
    hi = np.minimum(node_set.ends, workspace.hi)
    valid = lo <= hi
    np.add.at(delta, lo[valid] - workspace.lo, 1)
    np.add.at(delta, hi[valid] - workspace.lo + 1, -1)
    return np.cumsum(delta[:-1])


def start_table_reference(
    node_set: NodeSet, workspace: Workspace
) -> np.ndarray:
    """Per-element loop implementation of :func:`start_table`."""
    table = np.zeros(workspace.width, dtype=np.int64)
    for element in node_set:
        if workspace.contains(element.start):
            table[element.start - workspace.lo] = 1
    return table


def start_table(node_set: NodeSet, workspace: Workspace) -> np.ndarray:
    """Dense ``PMD`` 0/1 array over every integer position of ``workspace``."""
    if perf.reference_kernels_enabled():
        return start_table_reference(node_set, workspace)
    table = np.zeros(workspace.width, dtype=np.int64)
    starts = node_set.starts
    inside = starts[(starts >= workspace.lo) & (starts <= workspace.hi)]
    table[inside - workspace.lo] = 1
    return table


def inner_product_size(pma: np.ndarray, pmd: np.ndarray) -> int:
    """Theorem 2's right-hand side: ``Σ PMA[v] · PMD[v]``."""
    if pma.shape != pmd.shape:
        raise ValueError(
            f"tables must align: PMA has {pma.shape}, PMD has {pmd.shape}"
        )
    return int(np.dot(pma, pmd))


def turning_points_reference(node_set: NodeSet) -> list[tuple[int, int]]:
    """Per-element loop implementation of :func:`turning_points`."""
    if len(node_set) == 0:
        return []
    deltas: dict[int, int] = {}
    for element in node_set:
        deltas[element.start] = deltas.get(element.start, 0) + 1
        deltas[element.end + 1] = deltas.get(element.end + 1, 0) - 1
    value = 0
    points: list[tuple[int, int]] = []
    for position in sorted(deltas):
        change = deltas[position]
        if change == 0:
            continue
        value += change
        points.append((position, value))
    return points


def turning_point_arrays(node_set: NodeSet) -> tuple[np.ndarray, np.ndarray]:
    """The sparse encoding of ``PMA`` as parallel position/value arrays.

    The array-native kernel behind :func:`turning_points`: every hot
    consumer (the T-tree's searchsorted probe arrays, bifocal's dense-run
    scan) wants the turning points columnar, so the sweep returns
    ``(positions, values)`` int64 arrays directly and the tuple-list API
    below is a zip adapter kept for compatibility and the reference
    parity suite.
    """
    if perf.reference_kernels_enabled():
        points = turning_points_reference(node_set)
        positions = np.array([k for k, __ in points], dtype=np.int64)
        values = np.array([v for __, v in points], dtype=np.int64)
        return positions, values
    empty = np.empty(0, dtype=np.int64)
    if len(node_set) == 0:
        return empty, empty
    size = len(node_set)
    breakpoints = np.concatenate((node_set.starts, node_set.ends + 1))
    signs = np.empty(2 * size, dtype=np.int64)
    signs[:size] = 1
    signs[size:] = -1
    # One fused event sweep: sort the ±1 events by position, integer-
    # accumulate the running cover count, then keep the last event of
    # each equal-position run (its running value is the table value at
    # that position) wherever the value actually changed.  This replaces
    # the earlier np.unique + float-weighted np.bincount pass with a
    # single argsort and one np.add.accumulate — no float round trip,
    # no inverse-index materialization.
    order = np.argsort(breakpoints, kind="stable")
    positions = breakpoints[order]
    running = np.add.accumulate(signs[order])
    last = np.empty(2 * size, dtype=bool)
    last[-1] = True
    last[:-1] = positions[1:] != positions[:-1]
    run_positions = positions[last]
    run_values = running[last]
    changed = np.empty(run_values.shape[0], dtype=bool)
    changed[0] = run_values[0] != 0
    changed[1:] = run_values[1:] != run_values[:-1]
    return run_positions[changed], run_values[changed]


def turning_points(node_set: NodeSet) -> list[tuple[int, int]]:
    """The sparse encoding of ``PMA``: ``(position, value)`` change points.

    Returns pairs ``(K, PMA[K])`` for every position ``K`` where
    ``PMA[K] != PMA[K - 1]``; between consecutive turning points the table
    is constant.  There are at most ``2·|S|`` such points.

    ``PMA`` steps up at every ``e.start`` and steps down just after every
    ``e.end`` (position ``e.end`` itself is still covered).  The
    per-point tuple materialization here is the only cost over
    :func:`turning_point_arrays` — hot paths take the arrays.
    """
    if perf.reference_kernels_enabled():
        return turning_points_reference(node_set)
    positions, values = turning_point_arrays(node_set)
    return list(zip(positions.tolist(), values.tolist()))
