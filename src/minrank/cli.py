"""Command-line front end.

Subcommands: minrank (solve), recognize, dp, batch, gen, cnf, validate.
Results are printed as JSON, one object per input graph.  Exit codes:
0 success, 1 negative answer (not a member / unsatisfiable), 2 usage or
input errors, 3 a work budget stopped an exact answer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .cnf import emit_cnf, minrank_via_cnf, run_solver
from .dp import dp_minrank
from .errors import BudgetExceededError, GraphError, StructureError
from .exact import (
    BRUTE_FORCE_BIT_BUDGET,
    MinrankResult,
    minrank_bnb,
    minrank_bruteforce,
    sandwich_bounds,
)
from .formats import emit_edge_list, emit_graph6, parse_edge_list, parse_graph6
from .generator import generate_member
from .graph import Graph
from .recognizer import recognize
from .structure import SimpleTreeStructure, structure_to_dot, validate_structure

CONFIG_ENV = "MINRANK_CONFIG"


def load_config() -> dict:
    """Defaults from the JSON file named by $MINRANK_CONFIG, if any."""
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise GraphError(f"bad config file {path!r}: {exc}") from None
    if not isinstance(cfg, dict):
        raise GraphError(f"config file {path!r} must hold a JSON object")
    return cfg


def load_graphs(path: str, fmt: str | None) -> list[Graph]:
    """Graphs from a file or '-' (stdin); graph6 files may hold many."""
    if path == "-":
        text = sys.stdin.read()
        name = ""
    else:
        with open(path) as fh:
            text = fh.read()
        name = path
    if fmt is None:
        fmt = "g6" if name.endswith(".g6") else "edges"
    if fmt == "g6":
        return [
            parse_graph6(line)
            for line in text.splitlines()
            if line.strip() and not line.startswith("#")
        ]
    return [parse_edge_list(text)]


def _registry_from(args, cfg):
    from .families import parse_registry_spec

    spec = args.registry or cfg.get("registry") or "chordal,bounded:10"
    return parse_registry_spec(spec)


def _result_record(g: Graph, res: MinrankResult, index: int) -> dict:
    bounds = sandwich_bounds(g)
    rec = {
        "index": index,
        "n": g.n,
        "m": g.edge_count,
        "value": res.value,
        "method": res.method,
        "exact": res.exact,
        "witness": res.witness.to_strings() if res.witness is not None else None,
        "bounds": {"lower": bounds.lower, "upper": bounds.upper},
        "stats": {k: v for k, v in res.stats.items() if k != "trace"},
    }
    if g.n <= 62:
        rec["graph"] = emit_graph6(g)
    if "trace" in res.stats:
        rec["trace"] = res.stats["trace"]
    return rec


def solve_graph(
    g: Graph,
    method: str,
    c: int,
    registry,
    sat_solver: str | None,
    node_budget: int | None,
    trace: bool = False,
) -> MinrankResult:
    """Dispatch one connected-or-not graph to a solver.

    Auto mode splits into components and, per component: use the
    tree-of-parts program when recognition succeeds, otherwise brute force
    within its budget, otherwise branch and bound, falling back to an
    external SAT solver only when branch and bound gave up inexactly.
    """
    if method == "brute":
        return minrank_bruteforce(g)
    if method == "bnb":
        return minrank_bnb(g, node_budget)
    if method == "cnf":
        if not sat_solver:
            raise GraphError("method cnf needs --sat-solver or a configured solver")
        return minrank_via_cnf(g, sat_solver)
    if method == "dp":
        raise GraphError("method dp needs the dp subcommand or --structure")
    # auto
    comps = g.connected_components()
    if len(comps) > 1:
        from .exact import minrank_components

        return minrank_components(
            g,
            lambda sub: solve_graph(
                sub, "auto", c, registry, sat_solver, node_budget
            ),
        )
    if g.n and registry is not None:
        outcome = recognize(g, c, registry)
        if outcome.member:
            return dp_minrank(g, outcome.structure, registry, trace=trace)
    if 2 * g.edge_count <= BRUTE_FORCE_BIT_BUDGET:
        return minrank_bruteforce(g)
    res = minrank_bnb(g, node_budget)
    if not res.exact and sat_solver:
        return minrank_via_cnf(g, sat_solver)
    return res


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_minrank(args, cfg) -> int:
    registry = _registry_from(args, cfg)
    c = args.c if args.c is not None else int(cfg.get("c", 2))
    sat_solver = args.sat_solver or cfg.get("sat_solver")
    graphs = load_graphs(args.graph, args.format)
    lines = []
    worst = 0
    for idx, g in enumerate(graphs):
        try:
            res = solve_graph(
                g, args.method, c, registry, sat_solver, args.node_budget,
                trace=args.trace,
            )
        except BudgetExceededError as exc:
            lines.append(json.dumps({"index": idx, "error": str(exc)}))
            worst = max(worst, 3)
            continue
        rec = _result_record(g, res, idx)
        lines.append(json.dumps(rec, sort_keys=True))
        if not res.exact:
            worst = max(worst, 3)
    _write_out("\n".join(lines) + "\n", args.output)
    return worst


def cmd_recognize(args, cfg) -> int:
    registry = _registry_from(args, cfg)
    c = args.c if args.c is not None else int(cfg.get("c", 2))
    graphs = load_graphs(args.graph, args.format)
    if len(graphs) != 1:
        raise GraphError("recognize works on a single graph input")
    g = graphs[0]
    targets = (
        [g.induced_subgraph(comp)[0] for comp in g.connected_components()]
        if args.components
        else [g]
    )
    lines = []
    all_member = True
    for idx, piece in enumerate(targets):
        outcome = recognize(piece, c, registry, debug=args.debug, explain=args.explain)
        rec = {
            "component": idx,
            "n": piece.n,
            "member": outcome.member,
            "roots_tried": outcome.roots_tried,
            "failure": outcome.failure_detail,
            "structure": outcome.structure.to_json_dict()
            if outcome.structure
            else None,
        }
        if args.explain:
            rec["explain"] = outcome.stats["explain"]
        lines.append(json.dumps(rec, sort_keys=True))
        all_member = all_member and outcome.member
        if outcome.member and args.structure_out and not args.components:
            with open(args.structure_out, "w") as fh:
                fh.write(outcome.structure.to_json())
    _write_out("\n".join(lines) + "\n", args.output)
    return 0 if all_member else 1


def cmd_dp(args, cfg) -> int:
    registry = _registry_from(args, cfg)
    c = args.c if args.c is not None else int(cfg.get("c", 2))
    graphs = load_graphs(args.graph, args.format)
    if len(graphs) != 1:
        raise GraphError("dp works on a single graph input")
    g = graphs[0]
    if args.structure:
        with open(args.structure) as fh:
            t = SimpleTreeStructure.from_json(fh.read())
    else:
        outcome = recognize(g, c, registry)
        if not outcome.member:
            rec = {"member": False, "failure": outcome.failure_detail}
            _write_out(json.dumps(rec) + "\n", args.output)
            return 1
        t = outcome.structure
    res = dp_minrank(g, t, registry, trace=args.trace)
    _write_out(json.dumps(_result_record(g, res, 0), sort_keys=True) + "\n", args.output)
    return 0


def _batch_worker(payload):
    idx, line, method, registry_spec, c, node_budget = payload
    from .families import parse_registry_spec

    try:
        g = parse_graph6(line)
        registry = parse_registry_spec(registry_spec)
        res = solve_graph(g, method, c, registry, None, node_budget)
        return idx, {
            "index": idx,
            "graph": line,
            "n": g.n,
            "value": res.value,
            "method": res.method,
            "exact": res.exact,
        }, res.value if res.exact else None
    except Exception as exc:  # one bad graph must not end the batch
        error = f"{type(exc).__name__}: {exc}"
        return idx, {"index": idx, "graph": line, "error": error}, None


def cmd_batch(args, cfg) -> int:
    registry_spec = args.registry or cfg.get("registry") or "chordal,bounded:10"
    c = args.c if args.c is not None else int(cfg.get("c", 2))
    if args.corpus == "-":
        text = sys.stdin.read()
    else:
        with open(args.corpus) as fh:
            text = fh.read()
    jobs = [
        (idx, line.strip(), args.method, registry_spec, c, args.node_budget)
        for idx, line in enumerate(text.splitlines())
        if line.strip() and not line.startswith("#")
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outputs = list(pool.map(_batch_worker, jobs))
    else:
        outputs = [_batch_worker(job) for job in jobs]
    outputs.sort(key=lambda item: item[0])

    histogram: dict[int, int] = {}
    skipped = 0
    lines = []
    for _, rec, value in outputs:
        lines.append(json.dumps(rec, sort_keys=True))
        if value is None:
            skipped += 1
        else:
            histogram[value] = histogram.get(value, 0) + 1
    _write_out("\n".join(lines) + "\n", args.output)
    if args.histogram:
        if args.histogram.endswith(".json"):
            payload = {
                "histogram": {str(k): v for k, v in sorted(histogram.items())},
                "total": len(outputs) - skipped,
                "skipped": skipped,
            }
            hist_text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        else:
            rows = ["minrank,count"]
            rows.extend(f"{k},{v}" for k, v in sorted(histogram.items()))
            hist_text = "\n".join(rows) + "\n"
        with open(args.histogram, "w") as fh:
            fh.write(hist_text)
    return 0


def cmd_gen(args, cfg) -> int:
    registry = _registry_from(args, cfg)
    c = args.c if args.c is not None else int(cfg.get("c", 2))
    g, t = generate_member(
        args.seed,
        args.parts,
        c,
        profile=args.profile,
        part_order=(args.order_min, args.order_max),
        registry=registry,
    )
    graph_text = emit_edge_list(g)
    structure_text = t.to_json()
    if args.prefix:
        with open(args.prefix + ".edges", "w") as fh:
            fh.write(graph_text)
        with open(args.prefix + ".structure.json", "w") as fh:
            fh.write(structure_text)
        if args.dot:
            with open(args.prefix + ".dot", "w") as fh:
                fh.write(structure_to_dot(g, t))
    else:
        sys.stdout.write(graph_text)
        sys.stdout.write(structure_text)
    return 0


def cmd_cnf(args, cfg) -> int:
    graphs = load_graphs(args.graph, args.format)
    if len(graphs) != 1:
        raise GraphError("cnf works on a single graph input")
    g = graphs[0]
    text = emit_cnf(g, args.k)
    _write_out(text, args.output)
    if args.solve:
        solver = args.sat_solver or cfg.get("sat_solver")
        if not solver:
            raise GraphError("--solve needs --sat-solver or a configured solver")
        sat = run_solver(text, solver)
        print("SATISFIABLE" if sat else "UNSATISFIABLE", file=sys.stderr)
        return 0 if sat else 1
    return 0


def cmd_validate(args, cfg) -> int:
    registry = _registry_from(args, cfg)
    graphs = load_graphs(args.graph, args.format)
    if len(graphs) != 1:
        raise GraphError("validate works on a single graph input")
    g = graphs[0]
    with open(args.structure) as fh:
        t = SimpleTreeStructure.from_json(fh.read())
    report = validate_structure(g, t, registry)
    rec = {
        "valid": report.valid,
        "violations": [{"rule": r, "detail": d} for r, d in report.violations],
        "mdc": report.mdc,
        "families": list(report.families),
    }
    _write_out(json.dumps(rec, indent=2, sort_keys=True) + "\n", args.output)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(structure_to_dot(g, t))
    return 0 if report.valid else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minrank",
        description="GF(2) min-rank of graphs: exact solvers, tree-of-parts "
        "recognition, and a polynomial-time structured solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, histogram=False):
        p.add_argument("--format", choices=("g6", "edges"), default=None)
        p.add_argument("--registry", default=None, help="e.g. chordal,bounded:10")
        p.add_argument("--c", type=int, default=None, help="connector bound (default 2)")
        p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("minrank", help="solve min-rank for one or more graphs")
    p.add_argument("graph")
    common(p)
    p.add_argument(
        "--method",
        choices=("auto", "brute", "bnb", "cnf", "dp"),
        default="auto",
    )
    p.add_argument("--sat-solver", default=None)
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_minrank)

    p = sub.add_parser("recognize", help="test for a tree-of-parts structure")
    p.add_argument("graph")
    common(p)
    p.add_argument("--components", action="store_true")
    p.add_argument("--structure-out", default=None)
    p.add_argument("--debug", action="store_true")
    p.add_argument("--explain", action="store_true")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("dp", help="solve via a structure file or fresh recognition")
    p.add_argument("graph")
    common(p)
    p.add_argument("--structure", default=None)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_dp)

    p = sub.add_parser("batch", help="solve a graph6 corpus and build a histogram")
    p.add_argument("corpus")
    common(p)
    p.add_argument("--method", choices=("auto", "brute", "bnb"), default="auto")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("--histogram", default=None, help=".csv or .json output path")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("gen", help="generate a structured instance from a seed")
    p.add_argument("prefix", nargs="?", default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--parts", type=int, required=True)
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--registry", default=None)
    p.add_argument("--profile", choices=("chordal", "bounded", "mixed"), default="mixed")
    p.add_argument("--order-min", type=int, default=2)
    p.add_argument("--order-max", type=int, default=6)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("cnf", help="export (and optionally solve) a DIMACS encoding")
    p.add_argument("graph")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--solve", action="store_true")
    p.add_argument("--sat-solver", default=None)
    p.set_defaults(func=cmd_cnf)

    p = sub.add_parser("validate", help="check a structure file against its graph")
    p.add_argument("graph")
    common(p)
    p.add_argument("--structure", required=True)
    p.add_argument("--dot", default=None, help="also write a Graphviz rendering here")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config()
        return args.func(args, cfg)
    except (GraphError, StructureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
