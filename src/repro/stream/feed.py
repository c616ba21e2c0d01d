"""Seeded mutation feeds: reproducible churn against a live workspace.

A :class:`MutationFeed` turns a pool of well-formed elements (any
subset of one region-coded document — subsets preserve the distinct-code
and strict-nesting invariants) into an endless, seeded stream of
insert/delete/update batches.  The feed tracks which pool elements are
currently live so every emitted batch is *sequentially applicable*: a
delete always names a live element, an insert always names a free one,
and an update pairs one of each.

The feed is a pure generator — it never touches the workspace itself.
:class:`repro.stream.LiveWorkspace` ingests the batches and applies
them to its sorted arrays; the qa ``incremental-vs-rebuild`` oracle
applies the same batches to the paper's maintained synopses too, and
cross-checks both against a from-scratch rebuild after every batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.core.element import Element
from repro.core.errors import StreamError
from repro.core.rng import SeedLike, make_rng

#: Mutation kinds a feed can emit, in weight order.
OPS = ("insert", "delete", "update")


def require_elements(what: str, items: Iterable[Element]) -> list[Element]:
    """``items`` as a list; :class:`StreamError` unless all are Elements."""
    try:
        items = list(items)
    except TypeError as error:
        raise StreamError(
            f"{what} must be an iterable of Elements, "
            f"got {type(items).__name__}"
        ) from error
    for item in items:
        if not isinstance(item, Element):
            raise StreamError(
                f"{what} holds a {type(item).__name__}, not an Element"
            )
    return items


@dataclass(frozen=True, slots=True)
class Mutation:
    """One element-level change.

    ``insert`` adds ``element``; ``delete`` removes it; ``update``
    removes ``element`` and adds ``replacement`` in its place (a region
    recode — the only way an element "moves" under region coding).
    """

    op: str
    element: Element
    replacement: Element | None = None

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise StreamError(f"unknown mutation op {self.op!r}")
        if not isinstance(self.element, Element):
            raise StreamError(
                f"mutation element must be an Element, "
                f"got {type(self.element).__name__}"
            )
        if (self.replacement is not None) != (self.op == "update"):
            raise StreamError(
                f"op {self.op!r} takes "
                f"{'a' if self.op == 'update' else 'no'} replacement"
            )
        if self.replacement is not None and not isinstance(
            self.replacement, Element
        ):
            raise StreamError(
                f"mutation replacement must be an Element, "
                f"got {type(self.replacement).__name__}"
            )


@dataclass(frozen=True, slots=True)
class MutationBatch:
    """A sequentially applicable group of mutations."""

    index: int
    mutations: tuple[Mutation, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.mutations)


class MutationFeed:
    """Seeded generator of insert/delete/update batches over a pool.

    Args:
        pool: the element universe; must have distinct ``(start, end)``
            region codes (elements of one document qualify).
        seed: drives every choice; same seed, same batches, forever.
        initial_fraction: share of the pool made live by
            :meth:`bootstrap` before any batch is emitted.
        weights: relative odds of insert/delete/update per mutation;
            infeasible ops (nothing live to delete, nothing free to
            insert) fall back to a feasible one deterministically.
    """

    def __init__(
        self,
        pool: Iterable[Element],
        seed: SeedLike = 0,
        *,
        initial_fraction: float = 0.5,
        weights: Sequence[float] = (2.0, 1.0, 1.0),
    ) -> None:
        pool = require_elements("pool", pool)
        if not pool:
            raise StreamError("mutation feed needs a non-empty pool")
        if len({(e.start, e.end) for e in pool}) != len(pool):
            raise StreamError("pool has duplicate region codes")
        if not 0.0 <= initial_fraction <= 1.0:
            raise StreamError(
                f"initial_fraction must be in [0, 1], "
                f"got {initial_fraction}"
            )
        if len(weights) != len(OPS) or min(weights) < 0 or sum(weights) <= 0:
            raise StreamError(f"bad op weights {tuple(weights)!r}")
        self._rng = make_rng(seed)
        total = float(sum(weights))
        self._weights = [w / total for w in weights]
        # Stable order first, then a seeded shuffle: the feed's whole
        # future is a pure function of (pool contents, seed).
        pool.sort(key=lambda e: (e.start, e.end))
        order = self._rng.permutation(len(pool))
        shuffled = [pool[i] for i in order]
        cut = int(round(len(pool) * initial_fraction))
        self._live: list[Element] = shuffled[:cut]
        self._free: list[Element] = shuffled[cut:]
        self._emitted = 0

    def bootstrap(self) -> list[Element]:
        """The elements live before batch 0 (load these first)."""
        return list(self._live)

    @property
    def live_size(self) -> int:
        return len(self._live)

    def _pick(self, bucket: list[Element]) -> Element:
        """Swap-pop a uniform element from ``bucket`` (O(1))."""
        index = int(self._rng.integers(0, len(bucket)))
        bucket[index], bucket[-1] = bucket[-1], bucket[index]
        return bucket.pop()

    def _next_op(self) -> str:
        op = OPS[int(self._rng.choice(len(OPS), p=self._weights))]
        if op == "insert" and not self._free:
            op = "delete"
        if op in ("delete", "update") and not self._live:
            op = "insert"
        if op == "update" and not self._free:
            op = "delete"
        if op == "insert" and not self._free:
            raise StreamError("pool exhausted: nothing live or free")
        return op

    def next_batch(self, size: int) -> MutationBatch:
        """Generate the next ``size`` mutations as one batch."""
        if size < 0:
            raise StreamError(f"batch size must be >= 0, got {size}")
        mutations: list[Mutation] = []
        for _ in range(size):
            op = self._next_op()
            if op == "insert":
                element = self._pick(self._free)
                self._live.append(element)
                mutations.append(Mutation("insert", element))
            elif op == "delete":
                element = self._pick(self._live)
                self._free.append(element)
                mutations.append(Mutation("delete", element))
            else:
                old = self._pick(self._live)
                new = self._pick(self._free)
                self._live.append(new)
                self._free.append(old)
                mutations.append(Mutation("update", old, new))
        batch = MutationBatch(self._emitted, tuple(mutations))
        self._emitted += 1
        return batch

    def batches(self, count: int, size: int) -> Iterator[MutationBatch]:
        """Yield ``count`` consecutive batches of ``size`` mutations."""
        for _ in range(count):
            yield self.next_batch(size)
