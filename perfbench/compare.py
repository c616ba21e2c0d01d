"""Compare two benchmark records metric by metric.

Usage::

    python3 perfbench/compare.py BASE.json NEW.json

Prints, per metric, both values and NEW/BASE.  Records whose
configurations differ (workload, datasets, service kwargs, run length,
interpreter, numpy, nproc, ...) are not comparable: the command refuses
them and exits 2.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any


class ConfigMismatch(ValueError):
    """Two records ran different configurations."""


def _differences(a: Any, b: Any, path: str = "") -> list[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        found = []
        for key in sorted(set(a) | set(b)):
            where = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                found.append(where)
            else:
                found.extend(_differences(a[key], b[key], where))
        return found
    return [] if a == b else [path]


def compare(base: dict[str, Any], new: dict[str, Any]) -> dict[str, Any]:
    """Per-metric ``{"base", "new", "unit", "ratio"}`` of two records.

    Raises:
        ConfigMismatch: when the records' configurations differ.
    """
    differences = _differences(base["config"], new["config"])
    if differences:
        raise ConfigMismatch(
            "records ran different configurations: " + ", ".join(differences)
        )
    rows = {}
    for name, metric in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        before = metric["value"]
        after = new["metrics"][name]["value"]
        rows[name] = {
            "base": before,
            "new": after,
            "unit": metric["unit"],
            "ratio": after / before if before else None,
        }
    return rows


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (
        json.loads(Path(path).read_text(encoding="utf-8")) for path in args
    )
    try:
        rows = compare(base, new)
    except ConfigMismatch as error:
        print(f"refused: {error}", file=sys.stderr)
        return 2
    print(f"workload {base['workload']}: seed {base['seed']} -> {new['seed']}")
    for name, row in rows.items():
        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.4f}"
        print(f"{name:40} {row['base']:14.6g} {row['new']:14.6g} "
              f"{row['unit']:6} x{ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
