"""Command-line front end.

Subcommands: minrank (solve), recognize, dp, batch, gen, cnf, validate.
Auto (`minrank`, `batch`) folds each component's atom tree and ignores
`--c`, the connector bound of `recognize`, `dp` and `gen`.
Results are printed as JSON, one object per input graph.  Exit codes:
0 success, 1 negative answer (not a member / unsatisfiable), 2 usage or
input errors, 3 a work budget stopped an exact answer.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from collections.abc import Iterable, Iterator

from .cnf import cnf_lines, minrank_via_cnf, run_solver
from .dp import atom_fold, dp_minrank
from .errors import GraphError, StructureError
from .exact import MinrankResult, _combine_components, _search_undominated, minrank_bnb
from .families import default_registry, parse_registry_spec
from .formats import (
    emit_edge_list, emit_graph6, graph6_lines, graph6_text, parse_edge_list, parse_graph6,
)
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
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GraphError(f"bad config file {path!r}: {exc}") from None
    if not isinstance(cfg, dict):
        raise GraphError(f"config file {path!r} must hold a JSON object")
    for key, kind in (("c", int), ("registry", str), ("sat_solver", str)):
        if key in cfg and type(cfg[key]) is not kind:
            raise GraphError(f"bad config file {path!r}: {key} is not {kind.__name__}")
    return cfg


def read_input(path: str) -> str:
    """The text of a file, or of stdin for '-'.  Both decode strictly: bytes
    that are not text raise UnicodeDecodeError rather than pass on escaped."""
    if path != "-":
        with open(path) as fh:
            return fh.read()
    raw = getattr(sys.stdin, "buffer", None)  # None when stdin is text only
    return sys.stdin.read() if raw is None else raw.read().decode(sys.stdin.encoding)


def load_graphs(path: str, fmt: str | None) -> Iterator[Graph]:
    """Graphs from a file or '-' (stdin), each parsed as it is reached;
    graph6 files may hold many."""
    text = read_input(path)
    if fmt is None:
        fmt = "g6" if path.endswith(".g6") else "edges"
    if fmt == "g6":
        yield from (parse_graph6(line) for _, line in graph6_lines(text))
    else:
        yield parse_edge_list(text)


def _one_graph(args, command: str) -> Graph:
    graphs = list(load_graphs(args.graph, args.format))
    if len(graphs) != 1:
        raise GraphError(f"{command} works on a single graph input")
    return graphs[0]


def _with_labels(rec: dict, g: Graph, vertices=None) -> dict:
    if g.labels:  # the input's vertex ids, when they were not dense
        rec["labels"] = {str(v): label for v, label in g.labels.items()
                         if vertices is None or v in vertices}
    return rec


def _result_record(g: Graph, res: MinrankResult, index: int) -> dict:
    # What the solver proved: the value itself, or the interval it left.
    lower, upper = (res.value, res.value) if res.exact else res.stats["interval"]
    rec = {
        "index": index,
        "n": g.n,
        "m": g.edge_count,
        "value": res.value,
        "method": res.method,
        "exact": res.exact,
        "witness": res.witness.to_strings() if res.witness is not None else None,
        "bounds": {"lower": lower, "upper": upper},
        "stats": {k: v for k, v in res.stats.items() if k != "trace"},
    }
    if g.n <= 62:
        rec["graph"] = emit_graph6(g)
    if "trace" in res.stats:
        rec["trace"] = res.stats["trace"]
    return _with_labels(rec, g)


def solve_graph(
    g: Graph, method: str, registry, sat_solver: str | None, node_budget: int | None,
    trace: bool = False,
) -> MinrankResult:
    """Dispatch one connected-or-not graph to a solver.

    Auto mode, per component and on g itself: fold the component's atoms
    when every atom is in a family, otherwise search the component's vertex
    bitset with `exact` (branch and bound less its dominated vertices),
    falling back to an external SAT solver on the same bitset only when
    branch and bound gave up inexactly.
    """
    if method == "bnb":
        return minrank_bnb(g, node_budget)
    if method == "cnf":
        if not sat_solver:
            raise GraphError("method cnf needs --sat-solver or a configured solver")
        return minrank_via_cnf(g, sat_solver)

    solved = []  # per component: its bitset, if built, and its answer
    for vertices, res in atom_fold(g, registry, trace):  # the one search for bridges and atoms
        mask = None
        if res is None:
            mask = sum(1 << v for v in vertices)
            res = _search_undominated(g, mask, node_budget)
            if not res.exact and sat_solver:
                res = minrank_via_cnf(g, sat_solver, mask)
        solved.append((mask, res))
    if len(solved) > 1:
        return _combine_components(g.n, solved, "components")
    return solved[0][1] if solved else minrank_bnb(g, node_budget)


def _write_out(lines: Iterable[str], out: str | None) -> None:
    """Write each line to the file `out` or stdout as it is made; `out` is
    opened only once the first line exists, so a failure before it leaves
    no file."""
    lines = iter(lines)
    first = next(lines, "")
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(first)
        fh.writelines(lines)


def cmd_minrank(args) -> int:
    inexact = False

    def lines():
        nonlocal inexact
        for idx, g in enumerate(load_graphs(args.graph, args.format)):
            res = solve_graph(
                g, args.method, args.registry, args.sat_solver, args.node_budget,
                trace=args.trace,
            )
            inexact = inexact or not res.exact
            yield json.dumps(_result_record(g, res, idx), sort_keys=True) + "\n"

    _write_out(lines(), args.output)
    return 3 if inexact else 0


def cmd_recognize(args) -> int:
    if args.components and args.structure_out:
        raise GraphError("--structure-out takes one structure, not one per component")
    g = _one_graph(args, "recognize")
    # One record per component, each tree of g's atom forest, or one for g.
    trees = g.bridge_split() if args.components else [None]
    all_member = True

    def lines():
        nonlocal all_member
        for idx, tree in enumerate(trees):
            outcome = recognize(g, args.c, args.registry, explain=args.explain, tree=tree)
            vertices = range(g.n) if tree is None else {v for a in tree[1] for v in a}
            rec = {
                "component": idx,
                "n": len(vertices),
                "member": outcome.member,
                "roots_tried": outcome.roots_tried,
                "failure": outcome.failure_detail,
                "structure": outcome.structure.to_json_dict()
                if outcome.structure
                else None,
            }
            if args.explain:
                rec["explain"] = outcome.stats["explain"]
            all_member = all_member and outcome.member
            if outcome.member and args.structure_out:
                with open(args.structure_out, "w") as fh:
                    fh.write(outcome.structure.to_json())
            yield json.dumps(_with_labels(rec, g, vertices), sort_keys=True) + "\n"

    _write_out(lines(), args.output)
    return 0 if all_member else 1


def cmd_dp(args) -> int:
    g = _one_graph(args, "dp")
    if args.structure:
        with open(args.structure) as fh:
            t = SimpleTreeStructure.from_json(fh.read())
    else:
        outcome = recognize(g, args.c, args.registry)
        if not outcome.member:
            rec = {"member": False, "failure": outcome.failure_detail}
            _write_out([json.dumps(_with_labels(rec, g)) + "\n"], args.output)
            return 1
        t = outcome.structure
    res = dp_minrank(g, t, args.registry, trace=args.trace)
    _write_out([json.dumps(_result_record(g, res, 0), sort_keys=True) + "\n"], args.output)
    return 0


def _batch_worker(payload):
    """A corpus line's record and its exact value (None if inexact or failed)."""
    idx, line, method, registry, node_budget = payload
    text = graph6_text(line)
    try:
        g = parse_graph6(line)
        res = solve_graph(g, method, registry, None, node_budget)
        return {
            "index": idx,
            "graph": text,
            "n": g.n,
            "value": res.value,
            "method": res.method,
            "exact": res.exact,
        }, res.value if res.exact else None
    except Exception as exc:  # one bad graph must not end the batch
        error = f"{type(exc).__name__}: {exc}"
        return {"index": idx, "graph": text, "error": error}, None


def cmd_batch(args) -> int:
    if args.jobs < 1:
        raise GraphError(f"--jobs must be at least 1, got {args.jobs}")
    jobs = (
        (idx, line, args.method, args.registry, args.node_budget)
        for idx, line in graph6_lines(read_input(args.corpus))
    )
    histogram: dict[int | None, int] = {}  # None counts the skipped graphs

    def lines(answers):
        for rec, value in answers:
            histogram[value] = histogram.get(value, 0) + 1
            yield json.dumps(rec, sort_keys=True) + "\n"

    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # no other command needs it

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            _write_out(lines(pool.map(_batch_worker, jobs, chunksize=64)), args.output)
    else:
        _write_out(lines(map(_batch_worker, jobs)), args.output)
    skipped = histogram.pop(None, 0)
    if args.histogram:
        if args.histogram.endswith(".json"):
            payload = {
                "histogram": {str(k): v for k, v in sorted(histogram.items())},
                "total": sum(histogram.values()),
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


def cmd_gen(args) -> int:
    if args.dot and not args.prefix:
        raise GraphError("--dot writes <prefix>.dot and needs a prefix")
    g, t = generate_member(
        args.seed,
        args.parts,
        args.c,
        profile=args.profile,
        part_order=(args.order_min, args.order_max),
        registry=args.registry,
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


def cmd_cnf(args) -> int:
    g = _one_graph(args, "cnf")
    lines = cnf_lines(g, args.k)  # checks k before any output is opened
    if not args.solve:
        _write_out(lines, args.output)
        return 0
    if not args.sat_solver:
        raise GraphError("--solve needs --sat-solver or a configured solver")
    sat = run_solver(lines, args.sat_solver)  # before writing: it may fail
    _write_out(cnf_lines(g, args.k), args.output)  # the same lines again
    print("SATISFIABLE" if sat else "UNSATISFIABLE", file=sys.stderr)
    return 0 if sat else 1


def cmd_validate(args) -> int:
    g = _one_graph(args, "validate")
    with open(args.structure) as fh:
        t = SimpleTreeStructure.from_json(fh.read())
    report = validate_structure(g, t, args.registry)
    rec = {
        "valid": report.valid,
        "violations": [{"rule": r, "detail": d} for r, d in report.violations],
        "mdc": report.mdc,
        "families": list(report.families),
    }
    _write_out([json.dumps(rec, indent=2, sort_keys=True) + "\n"], args.output)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(structure_to_dot(g, t))
    return 0 if report.valid else 1


def non_negative(text: str) -> int:
    """An integer of at least 0, for budget options."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and each call of `main` gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="minrank",
        description="GF(2) min-rank of graphs: exact solvers, tree-of-parts "
        "recognition, and a polynomial-time structured solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, graph_input=True, registry=True, c=True):
        if graph_input:
            p.add_argument("--format", choices=("g6", "edges"), default=None)
        if registry:
            p.add_argument("--registry", default=None, help="e.g. chordal,bounded:10")
        if c:
            p.add_argument("--c", type=int, help="connector bound (default 2; auto ignores it)")
        p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("minrank", help="solve min-rank for one or more graphs")
    p.add_argument("graph")
    common(p)
    p.add_argument("--method", choices=("auto", "bnb", "cnf"), default="auto")
    p.add_argument("--sat-solver", default=None)
    p.add_argument("--node-budget", type=non_negative, default=None)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_minrank)

    p = sub.add_parser("recognize", help="test for a tree-of-parts structure")
    p.add_argument("graph")
    common(p)
    p.add_argument("--components", action="store_true")
    p.add_argument("--structure-out", default=None)
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
    common(p, graph_input=False)
    p.add_argument("--method", choices=("auto", "bnb"), default="auto")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--node-budget", type=non_negative, default=None)
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
    common(p, registry=False, c=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--solve", action="store_true")
    p.add_argument("--sat-solver", default=None)
    p.set_defaults(func=cmd_cnf)

    p = sub.add_parser("validate", help="check a structure file against its graph")
    p.add_argument("graph")
    common(p, c=False)
    p.add_argument("--structure", required=True)
    p.add_argument("--dot", default=None, help="also write a Graphviz rendering here")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Each setting: its flag, else the config file, else the default.
        cfg = load_config()
        if "registry" in args:
            spec = args.registry or cfg.get("registry")
            args.registry = parse_registry_spec(spec) if spec else default_registry()
        if "c" in args and args.c is None:
            args.c = cfg.get("c", 2)
        if "c" in args and args.c < 1:
            raise GraphError(f"connector bound must be positive, got {args.c}")
        if "sat_solver" in args:
            args.sat_solver = args.sat_solver or cfg.get("sat_solver")
        return args.func(args)
    except (GraphError, StructureError, OSError, UnicodeDecodeError) as exc:
        # UnicodeDecodeError: an input file or stdin that is not text.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
