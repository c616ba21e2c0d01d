"""Statistics maintenance under document updates.

A cost-based optimizer's statistics must survive inserts into the XML
store.  This package keeps each synopsis of the paper incrementally
up to date instead of rebuilding it per estimate:

* :mod:`repro.maintenance.incremental` — an insert/delete-capable PL
  histogram whose bucket statistics always equal a fresh build;
* :mod:`repro.maintenance.cells` — an insert/delete-capable PH grid
  whose cell counts always equal a fresh build;
* :mod:`repro.maintenance.dynamic_ttree` — T-tree maintenance: interval
  insertion/deletion as range updates over the turning points;
* :mod:`repro.maintenance.reservoir` — a reservoir sample of the
  descendant set (Algorithm R with random-pairing deletions), feeding
  IM-DA-Est without re-sampling per estimate.

The qa ``incremental-vs-rebuild`` oracle keeps all four per tag beside
a :class:`repro.stream.LiveWorkspace`, applies the same mutation stream
to both, and checks every synopsis against a from-scratch rebuild after
each batch; ``results/maintenance_consistency.txt`` drives the classes
directly.
"""

from repro.maintenance.cells import IncrementalCellHistogram
from repro.maintenance.dynamic_ttree import DynamicTTree
from repro.maintenance.incremental import IncrementalPLHistogram
from repro.maintenance.reservoir import ReservoirSample

__all__ = [
    "DynamicTTree",
    "IncrementalCellHistogram",
    "IncrementalPLHistogram",
    "ReservoirSample",
]
