"""Insert/delete-capable PL histogram.

Maintains the Table 1 statistics of one node set — in both join roles —
under element insertions and deletions, over a fixed workspace
partitioning.  Every update is O(buckets crossed); the materialized
histograms are always identical to a fresh
:class:`repro.estimators.pl_histogram.PLHistogram` build over the current
element multiset (a property the tests verify).
"""

from __future__ import annotations

from repro.core.element import Element
from repro.core.errors import EstimationError
from repro.core.workspace import Workspace
from repro.estimators.pl_histogram import LengthMode, PLHistogram


class IncrementalPLHistogram:
    """PL statistics for one element set, maintained under updates.

    Args:
        workspace: fixed position domain; elements outside it are
            rejected (growing documents need a rebuild, as with any
            bounded histogram).
        num_buckets: fixed equal-width partitioning.
        length_mode: ancestor length statistic, as in the estimator.
    """

    def __init__(
        self,
        workspace: Workspace,
        num_buckets: int,
        length_mode: LengthMode = "clipped",
    ) -> None:
        if num_buckets < 1:
            raise EstimationError(f"need >= 1 bucket, got {num_buckets}")
        if length_mode not in ("clipped", "full"):
            raise EstimationError(f"unknown length_mode {length_mode!r}")
        self.workspace = workspace.validate()
        self.num_buckets = num_buckets
        self.length_mode: LengthMode = length_mode
        self._bounds = workspace.buckets(num_buckets)
        self._anc_counts = [0] * num_buckets
        self._anc_lengths = [0.0] * num_buckets
        self._desc_counts = [0] * num_buckets
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _bucket_span(self, element: Element) -> tuple[int, int]:
        if not (
            self.workspace.contains(element.start)
            and self.workspace.contains(element.end)
        ):
            raise EstimationError(
                f"element ({element.start}, {element.end}) outside the "
                f"histogram workspace {tuple(self.workspace)}"
            )
        return (
            self.workspace.bucket_of(element.start, self.num_buckets),
            self.workspace.bucket_of(element.end, self.num_buckets),
        )

    def _apply(self, element: Element, sign: int) -> None:
        first, last = self._bucket_span(element)
        for index in range(first, last + 1):
            self._anc_counts[index] += sign
            if self.length_mode == "clipped":
                portion = min(element.end, self._bounds[index].wse) - max(
                    element.start, self._bounds[index].wss
                )
            else:
                portion = element.length
            self._anc_lengths[index] += sign * portion
            if self._anc_counts[index] < 0:
                raise EstimationError(
                    "removal of an element that was never inserted"
                )
        self._desc_counts[first] += sign
        if self._desc_counts[first] < 0:
            raise EstimationError(
                "removal of an element that was never inserted"
            )
        self._size += sign

    def insert(self, element: Element) -> None:
        """Add one element to the maintained set."""
        self._apply(element, +1)

    def remove(self, element: Element) -> None:
        """Remove a previously inserted element.

        Removal is by value; removing an element that was never inserted
        corrupts no state for disjoint buckets but raises as soon as a
        counter would go negative.
        """
        self._apply(element, -1)

    def _histogram(
        self, counts: list[int], lengths: list[float], role: str
    ) -> PLHistogram:
        return PLHistogram(
            [b.wss for b in self._bounds],
            [b.wse for b in self._bounds],
            counts,
            lengths,
            role,
        )

    def ancestor_histogram(self) -> PLHistogram:
        """The current statistics in the ancestor (interval) role."""
        return self._histogram(
            self._anc_counts, self._anc_lengths, "ancestor"
        )

    def descendant_histogram(self) -> PLHistogram:
        """The current statistics in the descendant (point) role."""
        return self._histogram(
            self._desc_counts, [0.0] * self.num_buckets, "descendant"
        )
