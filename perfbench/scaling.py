#!/usr/bin/env python3
"""Per-layer time by graph size, from a traced run's record.

    python3 perfbench/run.py --workload tree --seed 1 --seconds 25 --trace 1
    python3 perfbench/scaling.py perfbench/_runs/tree-seed1-trace1-*.json

Prints a Markdown table with one row per size rung (the ops' labels): the
median over the rung's graphs of each layer's calibrated self time in ms,
and of the whole call.
"""

from __future__ import annotations

import json
import statistics
import sys

COLUMNS = (
    ("split", "recognizer.split_phase"),
    ("bridges", "graph.Graph.bridges"),
    ("cross_edge", "graph.Graph.cross_edge_count"),
    ("induced", "graph.Graph.induced_subgraph"),
    ("merge", "recognizer.merge_phase"),
    ("validate", "structure.validate_structure"),
    ("derive", "structure.SimpleTreeStructure.derive"),
    ("dp", "dp.dp_minrank"),
    ("chordal", "families.ChordalFamily"),
    ("bnb", "exact.minrank_bnb"),
)


def table(record: dict) -> str:
    scale = record["calibration"]["scale"] * 1000
    rows: dict[str, list[dict]] = {}
    for per_op in record["layers_per_op_raw"]:
        for label, layers in per_op:
            rows.setdefault(label, []).append(layers)

    def self_ms(layers: dict, prefix: str) -> float:
        return sum(row[2] for name, row in layers.items()
                   if name == prefix or name.startswith(prefix + ".")) * scale

    head = ["graphs", "size", "call ms"] + [c for c, _ in COLUMNS]
    lines = ["| " + " | ".join(head) + " |", "|" + " --- |" * len(head)]
    def order(label: str):
        head, _, size = label.rpartition("=")
        return head, int(size)

    for label, ops in sorted(rows.items(), key=lambda item: order(item[0])):
        call = statistics.median(layers["cli.main"][1] * scale for layers in ops)
        cells = [str(len(ops)), label, f"{call:.1f}"]
        cells += [f"{statistics.median(self_ms(l, p) for l in ops):.1f}" for _, p in COLUMNS]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


if __name__ == "__main__":
    for path in sys.argv[1:]:
        with open(path) as fh:
            print(table(json.load(fh)))
