"""Index-assisted containment joins (the XR-tree's purpose).

The paper builds on the XR-tree line of work: when one operand is much
smaller than the other, a merge of both inputs (stack-tree join) wastes
work scanning the big side; probing an index on the big side instead
skips the non-joining majority:

* :func:`probe_ancestors_join` — descendants drive; each descendant stabs
  an XR-tree over the ancestors.  Per descendant it reads the stab lists
  on one root-to-leaf path plus one leaf page up to the probe point,
  whatever the output, independent of |A|'s total size beyond the
  index.
* :func:`probe_descendants_join` — ancestors drive; each ancestor range-
  scans a B+-tree on descendant starts over ``(a.start, a.end)``.  Cost
  O(|A| · log |D| + output).

Both produce exactly the stack-tree join's pairs (tests verify).  They
read fewer elements than the merge only when the driving side is very
selective: on XMark, an XR-tree probe examines ~18 elements per
driving descendant while the merge reads each input element once, so
probing ``open_auction`` loses for ``reserve`` and ``text`` and wins
only below about one driver per 17 ancestors
(``results/index_join_selectivity.txt``).
"""

from __future__ import annotations

from repro.core.element import Element
from repro.core.nodeset import NodeSet
from repro.index.bplus import BPlusTree
from repro.index.xrtree import XRTree


def probe_ancestors_join(
    ancestors: NodeSet | XRTree, descendants: NodeSet
) -> list[tuple[Element, Element]]:
    """Descendant-driven join: stab an ancestor XR-tree per descendant.

    Accepts a prebuilt :class:`XRTree` to amortize index construction
    across joins, or builds one from the node set.
    """
    xrtree = (
        ancestors if isinstance(ancestors, XRTree) else XRTree(ancestors)
    )
    result: list[tuple[Element, Element]] = []
    for d in descendants:
        for a in xrtree.stab(d.start):
            if a.start < d.start:  # exclude a == d in self-joins
                result.append((a, d))
    return result


def descendant_start_index(descendants: NodeSet) -> BPlusTree:
    """B+-tree mapping start position -> element for the descendant set."""
    return BPlusTree.bulk_load(
        [(e.start, e) for e in descendants.elements]
    )


def probe_descendants_join(
    ancestors: NodeSet, descendants: NodeSet | BPlusTree
) -> list[tuple[Element, Element]]:
    """Ancestor-driven join: range-scan a descendant start B+-tree per
    ancestor.

    Accepts a prebuilt index from :func:`descendant_start_index`.
    """
    index = (
        descendants
        if isinstance(descendants, BPlusTree)
        else descendant_start_index(descendants)
    )
    result: list[tuple[Element, Element]] = []
    for a in ancestors:
        for __, d in index.range(a.start + 1, a.end - 1):
            result.append((a, d))
    return result
