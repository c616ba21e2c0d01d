"""Node sets: the operands of a containment join.

A *node set* is the result of evaluating a predicate (typically a tag name,
e.g. the XPath query ``//appendix``) against a region-coded XML data tree.
The containment join operates on two node sets, an ancestor set ``A`` and a
descendant set ``D``.

Node sets keep their elements sorted by start position and cache numpy views
of the start/end codes so that joins, model construction and estimators all
run in vectorized or binary-search time.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.element import Element
from repro.core.errors import (
    EmptyNodeSetError,
    InvalidNodeSetError,
    InvalidRegionCodeError,
)
from repro.core.workspace import Workspace

#: Every integer below this magnitude is exactly representable as a
#: float64.
_EXACT_FLOAT_INTEGERS = 2**53


class NodeSet:
    """An immutable, start-ordered collection of region-coded elements.

    Args:
        elements: the elements of the set, in any order.
        name: optional human-readable name (usually the tag predicate).
        validate: when True (default) verify the region-code invariants:
            distinct codes, ``start < end`` and strict nesting (no partial
            overlap between any two regions).

    Strict-nesting validation runs in O(n log n) via a scan with a stack of
    open regions, not O(n^2).
    """

    __slots__ = ("_elements", "_name", "__dict__")

    def __init__(
        self,
        elements: Iterable[Element],
        name: str | None = None,
        validate: bool = True,
    ) -> None:
        items = sorted(elements, key=lambda e: e.start)
        self._elements: tuple[Element, ...] | None = tuple(items)
        self._name = name
        if validate:
            self._validate()

    @classmethod
    def from_arrays(
        cls,
        starts: np.ndarray,
        ends: np.ndarray,
        name: str | None = None,
        fingerprint: str | None = None,
    ) -> "NodeSet":
        """Construct directly from aligned start/end code arrays.

        The arrays must already be start-sorted and satisfy the region
        invariants; nothing here checks them (the callers — a live
        workspace's maintained arrays, a decoded wire payload — are
        trusted to).  Elements are materialized lazily, only if
        something iterates the set, with the set's name as their tag
        and level 0; the numpy views every kernel uses are the arrays
        themselves (shared, not copied — read-only views stay
        read-only).  Passing the precomputed ``fingerprint`` keeps cache
        keys content-stable without re-hashing.
        """
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        if starts.shape != ends.shape or starts.ndim != 1:
            raise InvalidRegionCodeError(
                f"start/end arrays must be aligned 1-D, got "
                f"{starts.shape} and {ends.shape}"
            )
        self = cls.__new__(cls)
        self._elements = None
        self._name = name
        self.__dict__["starts"] = starts
        self.__dict__["ends"] = ends
        if fingerprint is not None:
            self.__dict__["fingerprint"] = fingerprint
        return self

    def _materialize(self) -> tuple[Element, ...]:
        """Build the element tuple of an array-backed set on demand."""
        tag = self._name if self._name is not None else "node"
        elements = tuple(
            Element(tag=tag, start=int(start), end=int(end))
            for start, end in zip(
                self.__dict__["starts"].tolist(),
                self.__dict__["ends"].tolist(),
            )
        )
        self._elements = elements
        return elements

    def _validate(self) -> None:
        seen: set[int] = set()
        for element in self._elements:
            for code in (element.start, element.end):
                if code in seen:
                    raise InvalidRegionCodeError(
                        f"duplicate region code {code} in node set "
                        f"{self._name!r}"
                    )
                seen.add(code)
        # Strict nesting: sweep in start order keeping a stack of open ends.
        open_ends: list[int] = []
        for element in self._elements:
            while open_ends and open_ends[-1] < element.start:
                open_ends.pop()
            if open_ends and element.end > open_ends[-1]:
                raise InvalidRegionCodeError(
                    f"element <{element.tag}> ({element.start}, "
                    f"{element.end}) partially overlaps an enclosing region "
                    f"ending at {open_ends[-1]}"
                )
            open_ends.append(element.end)

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """Name of the predicate that produced the set (or ``<anonymous>``)."""
        return self._name if self._name is not None else "<anonymous>"

    @property
    def elements(self) -> tuple[Element, ...]:
        """The elements, sorted by start position."""
        elements = self._elements
        return elements if elements is not None else self._materialize()

    def __len__(self) -> int:
        elements = self._elements
        if elements is not None:
            return len(elements)
        return int(self.__dict__["starts"].shape[0])

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __getitem__(self, index: int) -> Element:
        return self.elements[index]

    def __bool__(self) -> bool:
        return len(self) > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NodeSet):
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"NodeSet(name={self.name!r}, size={len(self)})"

    # ------------------------------------------------------------------
    # Cached vector views
    # ------------------------------------------------------------------

    @cached_property
    def starts(self) -> np.ndarray:
        """Start codes in ascending order (int64)."""
        return np.fromiter(
            (e.start for e in self._elements), dtype=np.int64, count=len(self)
        )

    @cached_property
    def ends(self) -> np.ndarray:
        """End codes, aligned with :attr:`starts` (int64)."""
        return np.fromiter(
            (e.end for e in self._elements), dtype=np.int64, count=len(self)
        )

    @cached_property
    def sorted_ends(self) -> np.ndarray:
        """End codes in ascending order (for rank computations)."""
        return np.sort(self.ends)

    @cached_property
    def lengths(self) -> np.ndarray:
        """Region lengths ``end - start``, aligned with :attr:`starts`."""
        return self.ends - self.starts

    @property
    def turning_points_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Turning points of the covering table, cached on the object.

        Columnar ``(positions, values)`` — the arrays the T-tree probes
        and bifocal's dense-run scan consume.  Every consumer that used
        to call :func:`repro.models.position.turning_point_arrays` per
        index build now shares one computation per node set; the result
        is immutable, like every other cached view.

        Under :func:`repro.perf.reference_kernels` the cache is
        *bypassed* in both directions — the loop implementation of
        record runs uncached on every call, so reference timings and
        semantics stay exactly those of the original per-call code.
        """
        from repro import perf
        from repro.models.position import turning_point_arrays

        if perf.reference_kernels_enabled():
            return turning_point_arrays(self)
        cached = self.__dict__.get("_turning_points")
        if cached is None:
            cached = turning_point_arrays(self)
            cached[0].setflags(write=False)
            cached[1].setflags(write=False)
            self.__dict__["_turning_points"] = cached
        return cached

    @cached_property
    def fingerprint(self) -> str:
        """Content digest of the set's region codes (order-insensitive).

        Two node sets with identical elements get the same fingerprint
        regardless of construction path; the summary cache
        (:mod:`repro.perf.cache`) keys built histograms on it.  Tags are
        excluded deliberately — summaries depend only on region codes.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(len(self).to_bytes(8, "little"))
        digest.update(self.starts.tobytes())
        digest.update(self.ends.tobytes())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------

    def workspace(self) -> Workspace:
        """The workspace spanned by this set alone, ``[min start, max end]``."""
        if len(self) == 0:
            raise EmptyNodeSetError(
                f"node set {self.name!r} is empty; it has no workspace"
            )
        return Workspace(int(self.starts[0]), int(self.sorted_ends[-1]))

    @cached_property
    def has_overlap(self) -> bool:
        """True if some element of the set contains another element of the set.

        The paper calls a set without this property a *no-overlap* set
        (Table 2); the PH baseline needs that flag, while PL does not.
        Because codes are strictly nested, containment between set members
        shows up between start-adjacent members: member ``i`` contains member
        ``i+1`` iff ``ends[i] > starts[i+1]``.
        """
        if len(self) < 2:
            return False
        return bool(np.any(self.ends[:-1] > self.starts[1:]))

    @cached_property
    def max_nesting_depth(self) -> int:
        """Maximum number of set members stacked above any one member.

        1 for a non-empty no-overlap set, 0 for an empty set.  This is the
        per-set analogue of the tree height ``H`` bounding subjoin sizes in
        Theorems 3 and 4.
        """
        depth = 0
        best = 0
        open_ends: list[int] = []
        for element in self.elements:
            while open_ends and open_ends[-1] < element.start:
                open_ends.pop()
            open_ends.append(element.end)
            depth = len(open_ends)
            best = max(best, depth)
        return best

    @cached_property
    def total_length(self) -> int:
        """Sum of region lengths over the set."""
        return int(self.lengths.sum())

    @cached_property
    def average_length(self) -> float:
        """Mean region length, 0.0 for an empty set.

        ``(Σ ends − Σ starts) / n`` from two integer sums, so no
        :attr:`lengths` array is allocated.  With every ``start < end``
        and a length sum below 2**53 this is bit-identical to
        ``float(self.lengths.mean())``: numpy's float sum of such
        lengths is exact, and both divisions round correctly.  Larger
        sums fall back to that expression.
        """
        count = len(self)
        if count == 0:
            return 0.0
        total = int(self.ends.sum()) - int(self.starts.sum())
        if 0 <= total < _EXACT_FLOAT_INTEGERS:
            return total / count
        return float(self.lengths.mean())

    def covered_length(self) -> int:
        """Length of the union of all regions (merged-interval length).

        Unlike :attr:`total_length` this does not double-count nested
        regions; it is the statistic the coverage histogram stores.
        """
        covered = 0
        current_end: int | None = None
        current_start = 0
        for element in self.elements:
            if current_end is None or element.start > current_end:
                if current_end is not None:
                    covered += current_end - current_start
                current_start, current_end = element.start, element.end
            else:
                current_end = max(current_end, element.end)
        if current_end is not None:
            covered += current_end - current_start
        return covered

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def stab_count(self, position: int | float) -> int:
        """Number of member regions containing ``position``.

        Computed as ``|{starts <= position}| - |{ends < position}|`` with two
        binary searches; this is the exact value ``PMA(S)[position]`` of the
        position model.
        """
        started = int(np.searchsorted(self.starts, position, side="right"))
        ended = int(np.searchsorted(self.sorted_ends, position, side="left"))
        return started - ended

    def stab_counts(self, positions: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`stab_count` over an array of positions."""
        started = np.searchsorted(self.starts, positions, side="right")
        ended = np.searchsorted(self.sorted_ends, positions, side="left")
        return started - ended

    def count_starts_in(self, lo: float, hi: float) -> int:
        """Number of members whose start position lies in ``[lo, hi)``."""
        left = int(np.searchsorted(self.starts, lo, side="left"))
        right = int(np.searchsorted(self.starts, hi, side="left"))
        return right - left

    def has_start_at(self, position: int) -> bool:
        """True if some member starts exactly at ``position``.

        Equivalent to ``PMD(S)[position] == 1`` in the position model.
        """
        index = int(np.searchsorted(self.starts, position, side="left"))
        return index < len(self) and int(self.starts[index]) == position

    def restrict(self, workspace: Workspace) -> "NodeSet":
        """Members entirely contained in ``workspace`` (new node set)."""
        kept = [
            e
            for e in self.elements
            if workspace.contains(e.start) and workspace.contains(e.end)
        ]
        return NodeSet(kept, name=self._name, validate=False)

    def sample(self, count: int, rng: np.random.Generator) -> list[Element]:
        """Draw ``count`` members uniformly without replacement."""
        if count > len(self):
            raise EmptyNodeSetError(
                f"cannot sample {count} elements from node set of size "
                f"{len(self)}"
            )
        indices = rng.choice(len(self), size=count, replace=False)
        elements = self.elements
        return [elements[int(i)] for i in indices]

    @classmethod
    def merge(cls, sets: Sequence["NodeSet"], name: str | None = None) -> "NodeSet":
        """Union of several node sets (elements assumed distinct)."""
        elements: list[Element] = []
        for node_set in sets:
            elements.extend(node_set.elements)
        return cls(elements, name=name)


def require_node_set(role: str, operand: object) -> None:
    """Raise :class:`InvalidNodeSetError` unless ``operand`` is a
    :class:`NodeSet`; ``role`` names the operand in the message."""
    if not isinstance(operand, NodeSet):
        raise InvalidNodeSetError(
            f"{role} operand must be a NodeSet, "
            f"got {type(operand).__name__}"
        )
