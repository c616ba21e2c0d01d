"""Index structures used to accelerate estimator probes (Section 5.3.1).

* :mod:`repro.index.bplus` — an in-memory B+-tree (point, floor and range
  lookups) used as the backbone of the T-tree and as a start-position index.
* :mod:`repro.index.ttree` — the T-tree: a B+-tree over the turning points
  of a covering table ``PMA``, answering stabbing-count queries.
* :mod:`repro.index.xrtree` — the XR-tree: a paged interval index with
  internal stab lists answering stabbing queries (which intervals contain a
  point), following Jiang et al. (ICDE 2003).

Both stabbing structures are validated against the rank identity
:meth:`NodeSet.stab_count <repro.core.nodeset.NodeSet.stab_count>`
(``|{start <= v}| - |{end < v}|``).  The runtime probes never build
them: the fused kernels of :mod:`repro.kernels.fused` answer the same
queries off sorted arrays, and :mod:`repro.qa.reference` builds these
structures per call as the oracle those kernels are held to.
"""

from repro.index.bplus import BPlusTree
from repro.index.ttree import TTree
from repro.index.xrtree import XRTree

__all__ = [
    "BPlusTree",
    "TTree",
    "XRTree",
]
