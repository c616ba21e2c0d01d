"""Persist statistics catalogs to JSON.

Real optimizers keep their statistics in durable catalogs built at load
time.  This module serializes a :class:`StatisticsCatalog` — either mode
— to a single JSON document and restores it without access to the
original tree, preserving every estimate bit-for-bit (the tests check).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.catalog.catalog import CatalogEntry, StatisticsCatalog
from repro.core.budget import SpaceBudget
from repro.core.element import Element
from repro.core.errors import ReproError
from repro.core.nodeset import NodeSet
from repro.core.workspace import Workspace
from repro.estimators.pl_histogram import PLHistogram

_FORMAT_VERSION = 1


def _histogram_to_json(histogram: PLHistogram | None):
    if histogram is None:
        return None
    return {
        "role": histogram.role,
        "buckets": [
            [b.index, b.wss, b.wse, b.n, b.total_length]
            for b in histogram.buckets
        ],
    }


def _histogram_from_json(payload) -> PLHistogram | None:
    if payload is None:
        return None
    __, wss, wse, n, length = zip(*payload["buckets"])
    return PLHistogram(wss, wse, n, length, payload["role"])


def _sample_to_json(sample: NodeSet | None):
    if sample is None:
        return None
    return [[e.tag, e.start, e.end, e.level] for e in sample]


def _sample_from_json(payload) -> NodeSet | None:
    if payload is None:
        return None
    return NodeSet(
        (Element(tag, int(s), int(e), int(level))
         for tag, s, e, level in payload),
        validate=False,
    )


def save_catalog(catalog: StatisticsCatalog, path: str | Path) -> Path:
    """Write ``catalog`` to ``path`` as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "format_version": _FORMAT_VERSION,
        "method": catalog.method,
        "budget_per_tag": catalog.budget_per_tag.nbytes,
        "workspace": [catalog.workspace.lo, catalog.workspace.hi],
        "entries": {
            tag: {
                "cardinality": entry.cardinality,
                "ancestor_histogram": _histogram_to_json(
                    entry.ancestor_histogram
                ),
                "descendant_histogram": _histogram_to_json(
                    entry.descendant_histogram
                ),
                "sample": _sample_to_json(entry.sample),
            }
            for tag, entry in catalog._entries.items()
        },
    }
    path.write_text(json.dumps(document))
    return path


def load_catalog(path: str | Path) -> StatisticsCatalog:
    """Restore a catalog written by :func:`save_catalog`."""
    path = Path(path)
    if not path.exists():
        raise ReproError(f"catalog file {path} does not exist")
    document = json.loads(path.read_text())
    if document.get("format_version") != _FORMAT_VERSION:
        raise ReproError(
            f"unsupported catalog format version "
            f"{document.get('format_version')!r}"
        )
    catalog = StatisticsCatalog.__new__(StatisticsCatalog)
    catalog.method = document["method"]
    catalog.budget_per_tag = SpaceBudget(document["budget_per_tag"])
    catalog.workspace = Workspace(*document["workspace"])
    catalog._entries = {
        tag: CatalogEntry(
            tag=tag,
            cardinality=int(payload["cardinality"]),
            ancestor_histogram=_histogram_from_json(
                payload["ancestor_histogram"]
            ),
            descendant_histogram=_histogram_from_json(
                payload["descendant_histogram"]
            ),
            sample=_sample_from_json(payload["sample"]),
        )
        for tag, payload in document["entries"].items()
    }
    return catalog
