#!/usr/bin/env python3
"""Explore the synthetic datasets: statistics, XML round-trips, indexes.

* generates all three calibrated datasets at a small scale and prints
  their Table 2-style statistics;
* serializes a tiny document to XML text and parses it back, verifying
  that region codes survive the round trip;
* builds a T-tree and an XR-tree over an ancestor set and cross-checks
  their stabbing counts.

Run:  python examples/dataset_explorer.py
"""

from repro.datasets import generate_dblp, generate_xmach, generate_xmark
from repro.index import TTree, XRTree
from repro.xmltree import parse_xml, to_xml


def show_statistics() -> None:
    for generator in (generate_xmark, generate_dblp, generate_xmach):
        dataset = generator(scale=0.1, seed=123)
        print(f"== {dataset.name}: {dataset.tree.size} elements, "
              f"height {dataset.tree.height}")
        for stats in dataset.statistics():
            target = round(stats.paper_count * 0.1)
            print(f"   {stats.predicate:14s} {stats.count:6d} "
                  f"(scaled target ~{target:6d})  {stats.overlap_label}")
        print()


def show_round_trip() -> None:
    tiny = generate_dblp(scale=0.0005, seed=9)
    xml_text = to_xml(tiny.tree)
    print("== tiny DBLP document as XML:")
    print(xml_text)
    reparsed = parse_xml(xml_text)
    same = [
        (a.tag, a.start, a.end) == (b.tag, b.start, b.end)
        for a, b in zip(tiny.tree.elements, reparsed.elements)
    ]
    print(f"round trip: {reparsed.size} elements, "
          f"region codes identical: {all(same)}\n")


def show_indexes() -> None:
    dataset = generate_xmark(scale=0.05, seed=3)
    ancestors = dataset.node_set("parlist")  # a self-nesting set
    ttree = TTree(ancestors)
    xrtree = XRTree(ancestors)
    probes = [e.start + 1 for e in ancestors.elements[:5]]
    print(f"== index probes over {len(ancestors)} parlist intervals "
          f"({ttree.turning_point_count} turning points):")
    for position in probes:
        print(f"   position {position}: "
              f"rank oracle={ancestors.stab_count(position)} "
              f"T-tree={ttree.count(position)} "
              f"XR-tree={xrtree.stab_count(position)}")


def main() -> None:
    show_statistics()
    show_round_trip()
    show_indexes()


if __name__ == "__main__":
    main()
