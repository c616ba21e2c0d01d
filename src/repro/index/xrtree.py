"""The XR-tree: a paged interval index answering stabbing queries.

Follows Jiang, Lu, Wang and Ooi (ICDE 2003), the index the paper suggests
for IM-DA-Est probes (Section 5.3.1).  Elements are stored in start-sorted
leaf pages under a B+-tree-like router hierarchy; every internal node keeps
a *stab list* of elements whose regions contain ("stab") one of its router
keys.  An element is placed on the stab list of the *highest* such node, so
a root-to-leaf walk guided by the query point visits every stab list that
can contain a matching interval:

* an interval stored in a different leaf than the query point must span a
  router key separating the two leaves, hence sits on a stab list along the
  query path;
* intervals local to the query point's leaf are found by scanning the leaf.

Elements on a stab list are flagged in their leaf so the query never counts
an interval twice.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.core.element import Element
from repro.core.errors import ReproError
from repro.core.nodeset import NodeSet

DEFAULT_PAGE_SIZE = 32


class _XRLeaf:
    __slots__ = ("elements", "in_stab_list", "min_key")

    def __init__(self, elements: list[Element]) -> None:
        self.elements = elements
        self.in_stab_list = [False] * len(elements)
        self.min_key = elements[0].start


class _XRInternal:
    __slots__ = ("keys", "children", "stab_list", "min_key")

    def __init__(self, children: list["_XRInternal | _XRLeaf"]) -> None:
        self.children = children
        self.keys = [child.min_key for child in children[1:]]
        self.stab_list: list[Element] = []
        self.min_key = children[0].min_key


class XRTree:
    """Stabbing-query index over a node set's intervals.

    Args:
        node_set: the indexed element set (ancestor operand of a join).
        page_size: elements per leaf page and router fanout (>= 2).
    """

    def __init__(
        self, node_set: NodeSet, page_size: int = DEFAULT_PAGE_SIZE
    ) -> None:
        if page_size < 2:
            raise ReproError(f"page size must be >= 2, got {page_size}")
        self._page_size = page_size
        self._size = len(node_set)
        self._root: _XRInternal | _XRLeaf | None = None
        if self._size == 0:
            return
        elements = list(node_set.elements)  # already start-sorted
        leaves = [
            _XRLeaf(elements[i : i + page_size])
            for i in range(0, len(elements), page_size)
        ]
        level: list[_XRInternal | _XRLeaf] = list(leaves)
        while len(level) > 1:
            level = [
                _XRInternal(level[i : i + page_size])
                for i in range(0, len(level), page_size)
            ]
        self._root = level[0]
        for leaf in leaves:
            for slot, element in enumerate(leaf.elements):
                if self._try_stab_list(element):
                    leaf.in_stab_list[slot] = True

    def _try_stab_list(self, element: Element) -> bool:
        """Place ``element`` on the highest stab list it stabs, if any."""
        node = self._root
        while isinstance(node, _XRInternal):
            slot = bisect_right(node.keys, element.start)
            # Keys are sorted, so the smallest router key the interval could
            # stab is keys[slot], the first key greater than element.start;
            # the interval stabs some key of this node iff that one is
            # inside the interval.
            if slot < len(node.keys) and node.keys[slot] <= element.end:
                node.stab_list.append(element)
                return True
            node = node.children[slot]
        return False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def stab(self, position: int) -> list[Element]:
        """All indexed elements whose region contains ``position``."""
        result: list[Element] = []
        node = self._root
        if node is None:
            return result
        while isinstance(node, _XRInternal):
            for element in node.stab_list:
                if element.start <= position <= element.end:
                    result.append(element)
            node = node.children[bisect_right(node.keys, position)]
        for slot, element in enumerate(node.elements):
            if element.start > position:
                break
            if not node.in_stab_list[slot] and element.end >= position:
                result.append(element)
        return result

    def stab_count(self, position: int) -> int:
        """Number of indexed elements whose region contains ``position``."""
        return len(self.stab(position))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Levels from root to leaf (0 for an empty tree)."""
        levels = 0
        node = self._root
        while node is not None:
            levels += 1
            node = (
                node.children[0] if isinstance(node, _XRInternal) else None
            )
        return levels

    def stab_list_sizes(self) -> list[int]:
        """Sizes of every internal stab list (top-down, left-right)."""
        sizes: list[int] = []
        queue: list[_XRInternal | _XRLeaf] = (
            [self._root] if self._root is not None else []
        )
        while queue:
            node = queue.pop(0)
            if isinstance(node, _XRInternal):
                sizes.append(len(node.stab_list))
                queue.extend(node.children)
        return sizes

    def validate(self) -> None:
        """Check structural invariants; raises :class:`ReproError` if broken.

        Every element must be reachable exactly once: flagged leaf entries
        must appear on exactly one stab list, unflagged ones on none.
        """
        if self._root is None:
            if self._size != 0:
                raise ReproError("empty tree with nonzero size")
            return
        stab_ids: list[int] = []
        leaf_flagged: list[int] = []
        leaf_all: list[int] = []
        queue: list[_XRInternal | _XRLeaf] = [self._root]
        while queue:
            node = queue.pop(0)
            if isinstance(node, _XRInternal):
                stab_ids.extend(id(e) for e in node.stab_list)
                queue.extend(queue_child for queue_child in node.children)
            else:
                for slot, element in enumerate(node.elements):
                    leaf_all.append(id(element))
                    if node.in_stab_list[slot]:
                        leaf_flagged.append(id(element))
        if len(leaf_all) != self._size:
            raise ReproError(
                f"leaves hold {len(leaf_all)} elements, expected {self._size}"
            )
        if len(stab_ids) != len(set(stab_ids)):
            raise ReproError("an element appears on two stab lists")
        if set(stab_ids) != set(leaf_flagged):
            raise ReproError("stab-list flags disagree with stab lists")
