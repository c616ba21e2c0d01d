"""Reservoir sampling: a standing descendant sample for IM-DA-Est.

Re-drawing a fresh random sample per estimate (Algorithm 2) requires
random access to the whole descendant set.  Under a stream of insertions
— documents being loaded — a classic reservoir (Vitter's Algorithm R)
maintains a uniform ``k``-subset in O(1) amortized per insert, so the
optimizer can estimate at any moment from the standing sample.

Deletions are supported with *random pairing* (Gemulla, Lehner and
Haas, VLDB 2006): a deletion of a sampled element leaves a hole instead
of triggering a rescan, and the next insertions are "paired" against
the uncompensated deletions — each new element fills a hole with
probability ``d_in / (d_in + d_out)`` where ``d_in``/``d_out`` count
uncompensated deletions that were inside/outside the sample.  The
reservoir stays a uniform sample of the *current* population at every
step, and the add-only code path (no deletion ever issued) draws the
exact same random variates as classic Algorithm R, so historical
streams reproduce bit-identically.

The resulting estimator is the with-replacement-free IM-DA-Est over the
current reservoir, scaled by the current population size; it stays
unbiased because the reservoir is uniform at every prefix of the stream.
"""

from __future__ import annotations

from repro.core.element import Element
from repro.core.errors import EstimationError
from repro.core.nodeset import NodeSet
from repro.core.rng import SeedLike, make_rng


class ReservoirSample:
    """Uniform fixed-size sample of a stream of inserts and deletes."""

    def __init__(self, capacity: int, seed: SeedLike = None) -> None:
        if capacity < 1:
            raise EstimationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rng = make_rng(seed)
        self._items: list[Element] = []
        # Multiplicity of each sampled value: decides a delete without
        # scanning _items, which only a sampled delete has to touch.
        self._counts: dict[Element, int] = {}
        self._seen = 0
        self._live = 0
        self._holes_in = 0  # uncompensated deletions that were sampled
        self._holes_out = 0  # uncompensated deletions that were not

    def add(self, element: Element) -> None:
        """Offer one stream insertion (Algorithm R / random pairing)."""
        self._seen += 1
        self._live += 1
        holes = self._holes_in + self._holes_out
        if holes:
            # Pair the insertion against one uncompensated deletion: it
            # takes the deleted element's place in (or out of) the sample.
            if int(self._rng.integers(0, holes)) < self._holes_in:
                self._items.append(element)
                self._count(element, 1)
                self._holes_in -= 1
            else:
                self._holes_out -= 1
            return
        if len(self._items) < self.capacity:
            self._items.append(element)
            self._count(element, 1)
            return
        slot = int(self._rng.integers(0, self._live))
        if slot < self.capacity:
            self._count(self._items[slot], -1)
            self._items[slot] = element
            self._count(element, 1)

    def remove(self, element: Element) -> None:
        """Delete one element from the sampled population (by value).

        An unsampled element is recognised from the multiplicity map in
        O(1); only a sampled one costs a scan of the reservoir.
        """
        if self._live == 0:
            raise EstimationError("remove from an empty population")
        self._live -= 1
        if element in self._counts:
            self._items.remove(element)
            self._count(element, -1)
            self._holes_in += 1
        else:
            self._holes_out += 1

    def _count(self, element: Element, delta: int) -> None:
        count = self._counts.get(element, 0) + delta
        if count:
            self._counts[element] = count
        else:
            del self._counts[element]

    def extend(self, elements) -> None:
        for element in elements:
            self.add(element)

    @property
    def seen(self) -> int:
        """Number of stream insertions offered so far."""
        return self._seen

    @property
    def live(self) -> int:
        """Current population size (insertions minus deletions)."""
        return self._live

    @property
    def sample(self) -> list[Element]:
        """The current reservoir contents (``<= min(live, capacity)``)."""
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def im_estimate(self, ancestors: NodeSet) -> float:
        """IM-DA-Est from the standing sample.

        ``X̂ = (live / |reservoir|) · Σ_{d ∈ reservoir} ancA(d.start)`` —
        Algorithm 2 with the reservoir as the random sample.  On an
        insert-only stream ``live == seen`` and this is exactly the
        classic reservoir estimator.
        """
        if not self._items or len(ancestors) == 0:
            return 0.0
        total = sum(ancestors.stab_count(d.start) for d in self._items)
        return total * self._live / len(self._items)
