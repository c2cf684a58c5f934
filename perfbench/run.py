#!/usr/bin/env python3
"""Benchmark of the minrank command line, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload tree|reject|corpus --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --calibrate

Each workload solves a fixed, seeded set of graphs through
`minrank.cli.main` in this process (one graph is one operation), repeated
for a fixed number of rounds derived from --seconds.  No step has a
deadline, so every count repeats exactly.  Timings are wall times scaled
to reference machine speed by the calibration kernel in calib.py.  With
--trace 1, rounds alternate between untraced and traced, and the traced
rounds give the per-layer numbers (see tracing.py).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A full record of the run,
raw wall times included, goes to perfbench/_runs/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import calib
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RUNS = HERE / "_runs"

# Duration of one round at reference speed; a run makes
# round(seconds / ROUND_REF_S) rounds, at least one.
ROUND_REF_S = {"tree": 25.0, "reject": 22.0, "corpus": 2.5}
SETUPS = 3  # set-ups per run; setup_s is their median
KERNEL_EVERY_S = 0.3  # one kernel timing per this much measured time

END_TO_END = (
    ("setup_s", "s"),
    ("graph_ms_p50", "ms"),
    ("graph_ms_p90", "ms"),
    ("vertices_per_s", "1/s"),
    ("graphs_per_s", "1/s"),
    ("exact_answers", "count"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("recognizer.split_phase.self_ms", "ms"),
    ("graph.Graph.bridges.calls", "count"),
    ("graph.Graph.bridges.self_ms", "ms"),
    ("graph.Graph.cross_edge_count.calls", "count"),
    ("graph.Graph.cross_edge_count.self_ms", "ms"),
    ("graph.Graph.induced_subgraph.calls", "count"),
    ("graph.Graph.induced_subgraph.self_ms", "ms"),
    ("recognizer.merge_phase.self_ms", "ms"),
    ("recognizer.merge_phase.roots_tried", "count"),
    ("structure.validate_structure.calls", "count"),
    ("structure.validate_structure.self_ms", "ms"),
    ("structure.SimpleTreeStructure.derive.calls", "count"),
    ("structure.SimpleTreeStructure.derive.self_ms", "ms"),
    ("dp.dp_minrank.self_ms", "ms"),
    ("dp.dp_minrank.oracle_calls", "count"),
    ("families.ChordalFamily.is_member.calls", "count"),
    ("families.ChordalFamily.is_member.self_ms", "ms"),
    ("families.ChordalFamily.minrank.calls", "count"),
    ("families.ChordalFamily.minrank.self_ms", "ms"),
    ("families.BoundedOrderFamily.minrank.calls", "count"),
    ("families.BoundedOrderFamily.minrank.self_ms", "ms"),
    ("exact.minrank_bnb.calls", "count"),
    ("exact.minrank_bnb.self_ms", "ms"),
    ("exact.minrank_bnb.nodes_per_s", "1/s"),
    ("exact.minrank_bruteforce.calls", "count"),
    ("exact.minrank_bruteforce.self_ms", "ms"),
    ("exact.minrank_bruteforce.nodes_per_s", "1/s"),
    ("exact.sandwich_bounds.self_ms", "ms"),
    ("exact.exact_independence_number.self_ms", "ms"),
    ("formats.parse_graph6.self_ms", "ms"),
    ("formats.parse_edge_list.self_ms", "ms"),
    ("cli.solve_graph.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
)

# Per-layer counters that are read off another function's return value.
COUNTER_SOURCE = {"recognizer.merge_phase.roots_tried": "recognizer.recognize"}


# Exit codes with which the CLI answers: success, negative answer, budget
# stop.  Code 2 (usage or input error) or an exception is a failed call.
ANSWERED = {0, 1, 3}


class Op:
    """One CLI call: its arguments, what the checks need, and a size label."""

    def __init__(self, argv, out, n, text, label):
        self.argv = argv
        self.out = out
        self.n = n
        self.text = text
        self.label = label


def import_program():
    """Import minrank afresh (module objects rebuilt from cached bytecode)."""
    for name in [m for m in sys.modules if m == "minrank" or m.startswith("minrank.")]:
        del sys.modules[name]
    return importlib.import_module("minrank.cli")


def build_tree(seed: int, d: Path) -> list[Op]:
    from minrank.formats import emit_edge_list
    from minrank.generator import generate_member

    ops = []
    for i, (profile, k, gseed) in enumerate(inputs.tree_specs(seed)):
        g, _ = generate_member(
            gseed, k, inputs.TREE_C, profile=profile, part_order=inputs.TREE_PART_ORDER
        )
        path = d / f"tree{i:03d}.edges"
        text = emit_edge_list(g)
        path.write_text(text)
        argv = ["minrank", str(path), "--c", str(inputs.TREE_C),
                "--node-budget", str(inputs.NODE_BUDGET)]
        ops.append(Op(argv, d / f"tree{i:03d}.out", g.n, text, f"{profile} k={k}"))
    return ops


def build_reject(seed: int, d: Path) -> list[Op]:
    ops = []
    for i, (atoms, n, edges) in enumerate(inputs.reject_graphs(seed)):
        path = d / f"reject{i:03d}.edges"
        text = inputs.edge_list_text(n, edges)
        path.write_text(text)
        argv = ["recognize", str(path), "--c", "2"]
        ops.append(Op(argv, d / f"reject{i:03d}.out", n, text, f"atoms={atoms}"))
    return ops


def build_corpus(seed: int, d: Path) -> list[Op]:
    lines = inputs.corpus_lines(ROOT)
    path = d / "corpus.g6"
    path.write_text("\n".join(lines) + "\n")
    argv = ["batch", str(path), "--jobs", "1",
            "--node-budget", str(inputs.NODE_BUDGET)]
    n = sum(ord(line[0]) - 63 for line in lines)
    return [Op(argv, d / "corpus.out", n, lines, "corpus")]


BUILDERS = {"tree": build_tree, "reject": build_reject, "corpus": build_corpus}


def warm_up(cli, workload: str, ops: list[Op], d: Path) -> None:
    """One small call through the same CLI path, outside the timed rounds.

    The smallest graph, so that the set-up time does not depend on which
    graph the seed happens to put first.
    """
    if workload == "corpus":
        path = d / "warm.g6"
        path.write_text("\n".join(inputs.corpus_lines(ROOT)[:10]) + "\n")
        argv = ["batch", str(path), "--jobs", "1",
                "--node-budget", str(inputs.NODE_BUDGET)]
    else:
        argv = min(ops, key=lambda op: op.n).argv
    cli.main(argv + ["-o", str(d / "warm.out")])


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.kernel_s: list[float] = []
        self._owed = 0.0
        self.record: dict = {"workload": workload, "seed": seed,
                             "seconds": seconds, "trace": int(trace)}

    def calibrate(self, measured: float = 0.0) -> None:
        """Time the kernel once per KERNEL_EVERY_S of measured work.

        Called between operations with the time just measured, so kernel
        samples spread over the run in proportion to the time they correct.
        """
        self._owed += measured
        while self._owed >= KERNEL_EVERY_S or not self.kernel_s:
            self.kernel_s.append(calib.time_kernel())
            self._owed = max(0.0, self._owed - KERNEL_EVERY_S)

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        raw = []
        texts = None
        for i in range(SETUPS):
            d = self.workdir / f"setup{i}"
            self.calibrate()
            start = time.perf_counter()
            d.mkdir(parents=True)
            cli = import_program()
            ops = BUILDERS[self.workload](self.seed, d)
            warm_up(cli, self.workload, ops, d)
            raw.append(time.perf_counter() - start)
            self.calibrate(raw[-1])
            made = [op.text for op in ops]
            if texts is not None and made != texts:
                raise RuntimeError("the same seed built different inputs")
            texts = made
        self.cli = cli
        self.ops = ops
        self.setup_raw = raw

    # -- one round --------------------------------------------------------
    def run_round(self, tracer=None) -> dict:
        """Solve every graph once; returns samples, outputs and failures.

        With a tracer installed, each graph's layer totals are kept too.
        """
        if self.workload == "corpus":
            return self._corpus_round()
        samples, outputs, failures, per_op = [], [], [], []
        for op in self.ops:
            before = tracer.totals() if tracer else None
            start = time.perf_counter()
            try:
                code = self.cli.main(op.argv + ["-o", str(op.out)])
            except (Exception, SystemExit):
                code = traceback.format_exc(limit=3)
            samples.append(time.perf_counter() - start)
            if tracer:
                per_op.append((op.label, tracer.delta(before)))
            self.calibrate(samples[-1])
            rec = None
            if code in ANSWERED:
                lines = op.out.read_text().splitlines()
                rec = json.loads(lines[0]) if len(lines) == 1 else None
            if rec is None or "error" in rec:
                failures.append({"op": op.out.name, "code": code, "record": rec})
            outputs.append(rec)
        return {"samples": samples, "wall": sum(samples), "outputs": outputs,
                "failures": failures, "graphs": len(self.ops),
                "vertices": sum(op.n for op in self.ops), "per_op": per_op}

    def _corpus_round(self) -> dict:
        op = self.ops[0]
        cli = self.cli
        samples: list[float] = []
        inner = cli._batch_worker

        def timed_worker(payload):
            start = time.perf_counter()
            try:
                return inner(payload)
            finally:
                samples.append(time.perf_counter() - start)

        cli._batch_worker = timed_worker
        start = time.perf_counter()
        try:
            code = cli.main(op.argv + ["-o", str(op.out)])
        except (Exception, SystemExit):
            code = traceback.format_exc(limit=3)
        finally:
            wall = time.perf_counter() - start
            cli._batch_worker = inner
        self.calibrate(wall)
        outputs: list = [None] * len(op.text)
        if code in ANSWERED:
            for line in op.out.read_text().splitlines():
                rec = json.loads(line)
                if 0 <= rec.get("index", -1) < len(outputs):
                    outputs[rec["index"]] = rec
        failures = [
            {"graph": op.text[i], "code": code, "record": rec}
            for i, rec in enumerate(outputs)
            if rec is None or "error" in rec
        ]
        return {"samples": samples, "wall": wall, "outputs": outputs,
                "failures": failures, "graphs": len(op.text), "vertices": op.n}

    # -- whole run --------------------------------------------------------
    def execute(self) -> dict:
        self.workdir = WORK / f"{self.workload}-{self.seed}-{time.time_ns()}"
        try:
            return self._execute()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def _execute(self) -> dict:
        self.setup()
        rounds = max(1, round(self.seconds / ROUND_REF_S[self.workload]))
        tracer = None
        if self.trace:
            from tracing import Tracer

            tracer = Tracer()
            rounds = max(2, rounds + rounds % 2)
        plain, traced = [], []
        for r in range(rounds):
            if tracer is not None and r % 2 == 1:
                tracer.reset()
                tracer.install()
                try:
                    result = self.run_round(tracer)
                finally:
                    tracer.uninstall()
                result["layers"] = tracer.totals()
                traced.append(result)
            else:
                plain.append(self.run_round())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.calibrate()

        scale = calib.REF_KERNEL_S / calib.typical(self.kernel_s)
        everything = plain + traced
        check_start = time.perf_counter()
        problems = self.check(everything)
        self.record["check_raw_s"] = time.perf_counter() - check_start
        attempted = sum(r["graphs"] for r in everything)
        failed = sum(len(r["failures"]) for r in everything)

        if tracer is None:
            metrics = self.end_to_end(plain, scale, peak_rss_mb)
            self.record["metrics_raw"] = self.end_to_end(plain, 1.0, peak_rss_mb)
            units = dict(END_TO_END)
        else:
            metrics = self.per_layer(plain, traced, scale)
            units = dict(PER_LAYER)
        self.record.update({
            "rounds": rounds,
            "calibration": {"ref_kernel_s": calib.REF_KERNEL_S,
                            "typical_kernel_s": calib.typical(self.kernel_s),
                            "scale": scale, "kernel_s": self.kernel_s},
            "setup_raw_s": self.setup_raw,
            "round_wall_raw_s": [r["wall"] for r in plain],
            "traced_round_wall_raw_s": [r["wall"] for r in traced],
            "op_raw_s": [r["samples"] for r in plain],
            "failures": [f for r in everything for f in r["failures"]],
            "problems": problems,
            "metrics": metrics,
        })
        if traced:
            self.record["layers_raw"] = [r["layers"] for r in traced]
            self.record["layers_per_op_raw"] = [r.get("per_op", []) for r in traced]
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }

    def end_to_end(self, rounds: list[dict], scale: float, peak_rss_mb: float) -> dict:
        samples = sorted(s * scale for r in rounds for s in r["samples"])
        cuts = statistics.quantiles(samples, n=10, method="inclusive")
        busy = self.round_seconds(rounds) * scale
        return {
            "setup_s": statistics.median(self.setup_raw) * scale,
            "graph_ms_p50": statistics.median(samples) * 1000,
            "graph_ms_p90": cuts[8] * 1000,
            "vertices_per_s": rounds[0]["vertices"] / busy,
            "graphs_per_s": rounds[0]["graphs"] / busy,
            "exact_answers": self.exact_answers(rounds[0]),
            "peak_rss_mb": peak_rss_mb,
        }

    def round_seconds(self, rounds: list[dict]) -> float:
        """Raw time of one round, built from medians.

        `corpus`: the median batch wall time.  `tree` and `reject`: every
        size rung counts its graphs times the median time of its graphs,
        so that one slow member of a heavy-tailed rung (k=160 members
        range over 4x from seed to seed) does not decide the figure.
        """
        if self.workload == "corpus":
            return statistics.median(r["wall"] for r in rounds)
        by_label: dict[str, list[float]] = {}
        for r in rounds:
            for op, s in zip(self.ops, r["samples"]):
                by_label.setdefault(op.label, []).append(s)
        return sum(
            statistics.median(times) * len(times) / len(rounds)
            for times in by_label.values()
        )

    def exact_answers(self, round_: dict) -> int:
        """Answers in one round that settle the question asked.

        A min-rank record counts when it is exact; a recognition verdict
        always settles membership.
        """
        if self.workload == "reject":
            return sum(1 for rec in round_["outputs"] if rec and "member" in rec)
        return sum(1 for rec in round_["outputs"] if rec and rec.get("exact") is True)

    def per_layer(self, plain: list[dict], traced: list[dict], scale: float) -> dict:
        def value(name: str, layers: dict) -> float:
            if name in COUNTER_SOURCE:
                return layers.get(COUNTER_SOURCE[name], [0, 0, 0, 0])[3]
            qual, field = name.rsplit(".", 1)
            calls, incl, self_s, counter = layers.get(qual, [0, 0.0, 0.0, 0])
            if field == "calls":
                return calls
            if field == "self_ms":
                return self_s * scale * 1000
            if field == "ms":
                return incl * scale * 1000
            if field == "nodes_per_s":
                return counter / (self_s * scale) if self_s else 0.0
            return counter  # oracle_calls and the like

        out = {}
        for name, _ in PER_LAYER:
            if name == "trace.overhead_pct":
                base = statistics.median(r["wall"] for r in plain)
                slow = statistics.median(r["wall"] for r in traced)
                out[name] = (slow / base - 1) * 100
            else:
                out[name] = statistics.median(value(name, r["layers"]) for r in traced)
        return out

    # -- correctness -----------------------------------------------------
    def check(self, rounds: list[dict]) -> list[str]:
        """Independent checks on the first round; later rounds must repeat it."""
        import checks

        problems = []
        first = rounds[0]["outputs"]
        for r, round_ in enumerate(rounds[1:], start=1):
            if _answers(round_["outputs"]) != _answers(first):
                problems.append(f"round {r} answered differently from round 0")
        checker = {"tree": checks.check_tree, "reject": checks.check_reject,
                   "corpus": checks.check_corpus}[self.workload]
        texts = (self.ops[0].text if self.workload == "corpus"
                 else [op.text for op in self.ops])
        for i, (text, rec) in enumerate(zip(texts, first)):
            if rec is None or "error" in rec:
                continue  # counted as failed, not as wrong
            problems.extend(f"graph {i}: {p}" for p in checker(text, rec))
        return problems


def _answers(outputs: list) -> list:
    keys = ("value", "method", "exact", "member", "roots_tried")
    return [None if rec is None else tuple(rec.get(k) for k in keys) for rec in outputs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calibrate", action="store_true",
                        help="print the typical kernel time of this machine and exit")
    args = parser.parse_args(argv)
    if args.calibrate:
        print(f"REF_KERNEL_S = {calib.reference():.6f}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "minrank" / "cli.py").is_file():
        print(f"error: no minrank sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "corpus" and not (ROOT / inputs.CORPUS_FILE).is_file():
        print(f"error: corpus {inputs.CORPUS_FILE} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = run.execute()
    RUNS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    run.record["result"] = result
    (RUNS / name).write_text(json.dumps(run.record, indent=1) + "\n")
    for key, m in result["metrics"].items():
        print(f"{key:48s} {m['value']:14.4f} {m['unit']}")
    print(f"rounds {run.record['rounds']}  attempted {result['attempted']}  "
          f"failed {result['failed']}  correct {result['correct']}  "
          f"calibration scale {run.record['calibration']['scale']:.4f}")
    for p in run.record["problems"][:20]:
        print(f"problem: {p}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
