"""The T-tree: a B+-tree over the turning points of a covering table.

Section 5.3.1 / Figure 4 of the paper: instead of storing the whole
``PMA(S)`` table, index every *turning point* ``K`` (a position where
``PMA(S)[K] != PMA(S)[K-1]``) together with ``PMA(S)[K]`` in a B+-tree.
``PMA`` is constant between adjacent turning points, so a floor lookup
("largest key <= q") answers the stabbing-count query exactly.  There are
O(|S|) turning points.
"""

from __future__ import annotations

from repro.core.nodeset import NodeSet
from repro.index.bplus import DEFAULT_ORDER, BPlusTree


class TTree:
    """Stabbing-count index over a node set's covering table.

    >>> from repro.xmltree import DataTree
    >>> tree = DataTree.from_nested(("a", [("a", []), ("a", [])]))
    >>> ttree = TTree(tree.node_set("a"))
    >>> ttree.count(tree.element(1).start)
    2
    """

    def __init__(self, node_set: NodeSet, order: int = DEFAULT_ORDER) -> None:
        keys, values = node_set.turning_points_arrays
        points = list(zip(keys.tolist(), values.tolist()))
        self._tree = BPlusTree.bulk_load(points, order=order)
        self._first_key = points[0][0] if points else None

    @property
    def turning_point_count(self) -> int:
        """Number of indexed turning points (O(|S|) by construction)."""
        return len(self._tree)

    @property
    def bplus(self) -> BPlusTree:
        """The underlying B+-tree (exposed for inspection and tests)."""
        return self._tree

    def count(self, position: int) -> int:
        """``PMA(S)[position]``: intervals covering integer ``position``.

        Positions before the first turning point are covered by nothing.
        """
        if self._first_key is None or position < self._first_key:
            return 0
        entry = self._tree.floor_entry(position)
        assert entry is not None  # guarded by the _first_key check
        return entry[1]
