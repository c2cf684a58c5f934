"""End-to-end checks of the command-line front end."""

import hashlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

from minrank import (
    Graph, MinrankResult, cli, cnf, default_registry, emit_edge_list, validate_structure,
    verify_witness,
)
from minrank.cli import main
from minrank.formats import parse_edge_list, parse_graph6
from minrank.generator import generate_member
from minrank.structure import SimpleTreeStructure

from conftest import DATA_DIR, graphs_built, matrix_from_strings, solver_command
import oracles
from oracles import minrank_bruteforce

RECORD_SCHEMA = {
    "type": "object",
    "required": [
        "index", "n", "m", "value", "method", "exact", "witness", "bounds",
        "stats",
    ],
    "properties": {
        "index": {"type": "integer", "minimum": 0},
        "n": {"type": "integer", "minimum": 0},
        "m": {"type": "integer", "minimum": 0},
        "value": {"type": "integer", "minimum": 0},
        "method": {"type": "string"},
        "exact": {"type": "boolean"},
        "witness": {"type": ["array", "null"], "items": {"type": "string"}},
        "bounds": {
            "type": "object",
            "required": ["lower", "upper"],
            "properties": {
                "lower": {"type": "integer", "minimum": 0},
                "upper": {"type": "integer", "minimum": 0},
            },
        },
        "stats": {"type": "object"},
        "graph": {"type": "string"},
    },
}

EXAMPLE_EDGES = "n=5\n0 1\n0 2\n0 4\n1 2\n2 3\n3 4\n"
TWO_TRIANGLES_EDGES = "n=6\n0 1\n0 2\n1 2\n2 3\n3 4\n3 5\n4 5\n"
NO_VERDICT = f"{sys.executable} -c pass"  # a solver that prints nothing


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def check_record(rec):
    jsonschema.validate(rec, RECORD_SCHEMA)
    assert rec["bounds"]["lower"] <= rec["value"] <= rec["bounds"]["upper"]
    if rec["n"] <= 62:
        assert "graph" in rec


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_minrank_edge_list(tmp_path, capsys):
    path = write(tmp_path, "ex.edges", EXAMPLE_EDGES)
    code, out, _ = run_cli(capsys, ["minrank", path])
    assert code == 0
    (rec,) = records(out)
    check_record(rec)
    assert rec["value"] == 2
    assert rec["exact"] is True


def test_bounds_are_what_the_solver_proved(tmp_path, capsys, random1000_path):
    """Line 716 stops at the node budget with the interval [3, 4]; a fresh
    greedy sandwich over the whole graph would print {2, 5}.  An exact
    answer's bounds are its value."""
    line = Path(random1000_path).read_text().splitlines()[715]
    path = write(tmp_path, "l716.g6", line + "\n")
    code, out, _ = run_cli(
        capsys, ["minrank", path, "--method", "bnb", "--node-budget", "2000"]
    )
    (rec,) = records(out)
    assert code == 3 and (rec["value"], rec["exact"]) == (4, False)
    assert rec["bounds"] == {"lower": 3, "upper": 4} == dict(
        zip(("lower", "upper"), rec["stats"]["interval"])
    )
    path = write(tmp_path, "ex.edges", EXAMPLE_EDGES)
    code, out, _ = run_cli(capsys, ["minrank", path])
    (rec,) = records(out)
    assert code == 0 and rec["bounds"] == {"lower": 2, "upper": 2}


def package_env():
    """The environment with the package's source directory on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_runs_as_a_process(tmp_path):
    path = write(tmp_path, "ex.edges", EXAMPLE_EDGES)
    proc = subprocess.run(
        [sys.executable, "-m", "minrank.cli", "minrank", path],
        capture_output=True, text=True, timeout=60, env=package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[0])["value"] == 2


def test_importing_the_cli_loads_no_process_pool():
    """Only `batch --jobs` above 1 starts a pool, so that branch alone
    imports concurrent.futures."""
    probe = "import sys, minrank.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=60, env=package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_successive_calls_share_no_state(tmp_path, capsys):
    """One parser serves every call; options of one call must not reach
    the next."""
    path = write(tmp_path, "ex.edges", EXAMPLE_EDGES)
    first = tmp_path / "first.json"
    code, out, _ = run_cli(capsys, ["minrank", path, "--trace", "-o", str(first)])
    assert code == 0 and out == ""
    assert "trace" in json.loads(first.read_text())
    code, out, _ = run_cli(capsys, ["minrank", path, "--method", "bnb"])
    (rec,) = records(out)
    assert rec["method"] == "bnb" and "trace" not in rec
    code, out, _ = run_cli(capsys, ["recognize", path, "--explain", "--c", "1"])
    assert "explain" in records(out)[0]
    code, out, _ = run_cli(capsys, ["minrank", path])
    (rec,) = records(out)
    assert code == 0 and rec["method"] == "dp" and "trace" not in rec
    code, out, _ = run_cli(capsys, ["recognize", path])
    (rec,) = records(out)
    assert code == 0 and rec["member"] and "explain" not in rec
    assert cli.build_parser() is cli.build_parser()


def test_minrank_multi_graph_corpus(tmp_path, capsys):
    path = write(tmp_path, "three.g6", "C?\nCw\nC~\n")
    code, out, _ = run_cli(capsys, ["minrank", path])
    assert code == 0
    recs = records(out)
    assert [r["index"] for r in recs] == [0, 1, 2]
    for rec in recs:
        check_record(rec)
    assert recs[0]["value"] == 4  # 4 isolated vertices
    assert recs[2]["value"] == 1  # K4


def test_minrank_methods_agree(tmp_path, capsys):
    path = write(tmp_path, "ex.edges", EXAMPLE_EDGES)
    values = {}
    for method in ("auto", "bnb"):
        code, out, _ = run_cli(capsys, ["minrank", path, "--method", method])
        assert code == 0
        rec = records(out)[0]
        values[method] = rec["value"]
        if method == "bnb":
            assert rec["witness"] is not None
    assert set(values.values()) == {2}


def test_auto_solves_an_11_cycle_by_branch_and_bound(tmp_path, capsys):
    """The 11-cycle fits no family of the default registry, so auto goes
    from recognition to branch and bound, which proves 6 with a witness;
    brute force would enumerate 2^22 matrices."""
    c11 = Graph(11, [(i, (i + 1) % 11) for i in range(11)])
    path = write(tmp_path, "c11.edges", emit_edge_list(c11))
    code, out, _ = run_cli(capsys, ["minrank", path])
    (rec,) = records(out)
    assert code == 0
    assert (rec["value"], rec["exact"], rec["method"]) == (6, True, "bnb")
    witness = matrix_from_strings(rec["witness"])
    assert verify_witness(MinrankResult(6, "bnb", witness, True, {}), c11)


def test_minrank_cnf_needs_solver(tmp_path, capsys):
    path = write(tmp_path, "ex.edges", EXAMPLE_EDGES)
    code, _, err = run_cli(capsys, ["minrank", path, "--method", "cnf"])
    assert code == 2
    assert "solver" in err


def test_minrank_cnf_with_solver(tmp_path, capsys):
    path = write(tmp_path, "ex.edges", EXAMPLE_EDGES)
    code, out, _ = run_cli(
        capsys, ["minrank", path, "--method", "cnf", "--sat-solver", solver_command()]
    )
    assert code == 0
    (rec,) = records(out)
    assert rec["value"] == 2
    assert rec["method"] == "cnf"


def test_minrank_method_dp_points_at_subcommand(tmp_path, capsys):
    path = write(tmp_path, "ex.edges", EXAMPLE_EDGES)
    with pytest.raises(SystemExit) as exc:
        main(["minrank", path, "--method", "dp"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["minrank", "batch"])
def test_method_brute_is_refused(tmp_path, command):
    """Enumeration is no method of the program: asking for it is a usage
    error, exit 2, with argparse's message and no traceback."""
    path = write(tmp_path, "two.g6", "C?\nCw\n")
    proc = subprocess.run(
        [sys.executable, "-m", "minrank.cli", command, path, "--method", "brute"],
        capture_output=True, text=True, timeout=60, env=package_env(),
    )
    assert proc.returncode == 2
    assert "invalid choice: 'brute'" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_minrank_trace_included(tmp_path, capsys):
    path = write(tmp_path, "tt.edges", TWO_TRIANGLES_EDGES)
    code, out, _ = run_cli(capsys, ["minrank", path, "--trace"])
    assert code == 0
    (rec,) = records(out)
    assert rec["method"] == "dp"
    assert "trace" in rec and "trace" not in rec["stats"]


# `minrank TWO_TRIANGLES --trace`, as printed before component traces
# were kept.
TWO_TRIANGLES_TRACE = (
    '{"bounds": {"lower": 2, "upper": 2}, "exact": true, "graph": "ExCW", '
    '"index": 0, "m": 7, "method": "dp", "n": 6, "stats": {"oracle_calls": 3, '
    '"parts": 2}, "trace": {"nodes": [{"family": "chordal", "hub_values": {}, '
    '"m_full": 1, "m_minus": 1, "part": 1}, {"family": "chordal", '
    '"hub_values": {"2": [2, 1]}, "m_full": 2, "m_minus": null, "part": 0}], '
    '"order": [1, 0]}, "value": 2, "witness": null}\n'
)


def test_minrank_trace_per_component(tmp_path, capsys):
    """A disconnected input keeps each component's dp trace, in component
    order; a connected input prints what it printed before."""
    path = write(tmp_path, "tt.edges", TWO_TRIANGLES_EDGES)
    assert run_cli(capsys, ["minrank", path, "--trace"])[:2] == (0, TWO_TRIANGLES_TRACE)
    alone = []
    for text in ("n=3\n0 1\n0 2\n1 2\n", "n=4\n0 1\n1 2\n2 3\n0 3\n"):
        path = write(tmp_path, "one.edges", text)
        alone.append(records(run_cli(capsys, ["minrank", path, "--trace"])[1])[0])
    assert [rec["trace"]["nodes"][0]["family"] for rec in alone] == [
        "chordal", "bounded:10"
    ]
    path = write(tmp_path, "both.edges", "n=7\n0 1\n0 2\n1 2\n3 4\n4 5\n5 6\n3 6\n")
    code, out, _ = run_cli(capsys, ["minrank", path, "--trace"])
    (rec,) = records(out)
    assert code == 0 and rec["method"] == "components"
    assert rec["stats"]["methods"] == ["dp", "dp"] and "trace" not in rec["stats"]
    assert rec["trace"] == {"components": [r["trace"] for r in alone]}
    (rec,) = records(run_cli(capsys, ["minrank", path])[1])
    assert "trace" not in rec


@pytest.mark.parametrize("command", ["minrank", "batch"])
def test_negative_node_budget_exits_two(tmp_path, capsys, command):
    path = write(tmp_path, "k4.g6", "C~\n")
    with pytest.raises(SystemExit) as exc:
        main([command, path, "--node-budget", "-1"])
    assert exc.value.code == 2
    assert "--node-budget: must be at least 0, got -1" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, [command, path, "--node-budget", "0"])
    assert code == 0 and records(out)[0]["value"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["batch", "IN", "--format", "g6"],
        ["cnf", "IN", "--k", "2", "--registry", "chordal"],
        ["cnf", "IN", "--k", "2", "--c", "2"],
        ["validate", "IN", "--structure", "IN", "--c", "2"],
        ["recognize", "IN", "--debug"],
    ],
)
def test_options_a_subcommand_ignores_are_refused(tmp_path, capsys, argv):
    path = write(tmp_path, "k4.g6", "C~\n")
    with pytest.raises(SystemExit) as exc:
        main([path if a == "IN" else a for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_auto_answers_on_generated_members(tmp_path, capsys):
    """The value and merged part count pinned in members_auto.txt, written
    when auto folded the merged structure, still come out of `dp`, which
    merges at c = 2; auto folds the atoms, so it keeps the value and
    counts one part per atom."""
    rows = [
        line.split()
        for line in (Path(DATA_DIR) / "members_auto.txt").read_text().splitlines()
        if not line.startswith("#")
    ]
    assert len(rows) == 60
    assert {row[2] for row in rows} == {"mixed", "chordal", "bounded"}
    for seed, k, profile, value, parts in rows:
        g, _ = generate_member(int(seed), int(k), 2, profile=profile)
        path = write(tmp_path, "member.edges", emit_edge_list(g))
        code, out, _ = run_cli(capsys, ["dp", path])
        (rec,) = records(out)
        assert code == 0 and (rec["method"], rec["exact"]) == ("dp", True), seed
        assert (rec["value"], rec["stats"]["parts"]) == (int(value), int(parts)), seed
        code, out, _ = run_cli(capsys, ["minrank", path])
        (rec,) = records(out)
        assert code == 0 and (rec["method"], rec["exact"]) == ("dp", True), seed
        atoms = len(g.bridge_split()[0][1])
        assert (rec["value"], rec["stats"]["parts"]) == (int(value), atoms), seed


def reject_style_graph(rng: random.Random, atoms: int) -> Graph:
    """Atoms that are cycles of 6 to 8 vertices with one chord, so not
    chordal and too large for two to share a bounded:10 part, joined along a
    random tree by bridges between four attachment vertices per atom; the
    first four children of atom 0 attach at its four distinct ones, so no
    root leaves atom 0 with at most 2 downward connectors."""
    edges, pools, n = [], [], 0
    for _ in range(atoms):
        order = rng.randint(6, 8)
        edges += [(n + i, n + (i + 1) % order) for i in range(order)] + [(n, n + 2)]
        pools.append([n + x for x in rng.sample(range(order), 4)])
        n += order
    for j in range(1, atoms):
        x = pools[0][j - 1] if j <= 4 else rng.choice(pools[rng.randrange(j)])
        edges.append((x, rng.choice(pools[j])))
    return Graph(n, edges)


def test_auto_answers_a_nonmember_whose_atoms_lie_in_families(tmp_path, capsys):
    """A 25-atom graph with no structure at c = 2 is answered exactly by
    auto's atom fold, with the value of `dp --c 8`, under which no atom has
    more than 8 connectors and merging keeps the atom tree as it is."""
    g = reject_style_graph(random.Random(5), 25)
    path = write(tmp_path, "reject.edges", emit_edge_list(g))
    code, out, _ = run_cli(capsys, ["recognize", path, "--c", "2"])
    assert code == 1 and records(out)[0]["member"] is False
    code, out, _ = run_cli(capsys, ["minrank", path, "--c", "2"])
    (auto,) = records(out)
    assert (code, auto["method"], auto["exact"], auto["stats"]["parts"]) == (0, "dp", True, 25)
    code, out, _ = run_cli(capsys, ["dp", path, "--c", "8"])
    (dp,) = records(out)
    assert (code, dp["value"], dp["stats"]["parts"]) == (0, auto["value"], 25)


def test_auto_runs_no_recognition(tmp_path, capsys, monkeypatch):
    """Auto folds atoms straight off the input's bridge split: with
    recognition and merging made to fail, `minrank` and `batch` still
    answer members and non-members exactly."""
    from minrank import recognizer

    def refuse(*args, **kwargs):
        raise AssertionError("the auto path recognised")

    for name in ("recognize", "merge_phase"):
        monkeypatch.setattr(recognizer, name, refuse)
    monkeypatch.setattr(cli, "recognize", refuse)
    member, _ = generate_member(5, 40, 2, profile="mixed")
    path = write(tmp_path, "member.edges", emit_edge_list(member))
    code, out, _ = run_cli(capsys, ["minrank", path])
    assert code == 0 and (records(out)[0]["method"], records(out)[0]["exact"]) == ("dp", True)
    path = write(tmp_path, "two.g6", "ExCW\nEhcG\n")
    code, out, _ = run_cli(capsys, ["batch", path])
    assert code == 0 and [(r["method"], r["exact"]) for r in records(out)] == [("dp", True)] * 2


def test_auto_record_of_disconnected_input(tmp_path, capsys):
    """Two generated members, a 5-cycle and an isolated vertex, solved per
    component: the record is pinned."""
    a, _ = generate_member(4, 20, 2, profile="mixed")
    b, _ = generate_member(8, 10, 2, profile="chordal")
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    n = a.n + b.n
    edges += [(n + i, n + (i + 1) % 5) for i in range(5)]
    path = write(tmp_path, "four.edges", emit_edge_list(Graph(n + 6, edges)))
    code, out, _ = run_cli(capsys, ["minrank", path])
    assert code == 0
    assert out == (
        '{"bounds": {"lower": 61, "upper": 61}, "exact": true, "index": 0, '
        '"m": 145, "method": "components", "n": 121, "stats": {"components": 4, '
        '"methods": ["dp", "dp", "dp", "dp"], "nodes": 0, "rows": 0}, '
        '"value": 61, "witness": null}\n'
    )


def bridged_nonchordal(seed):
    """3-14 chordless or once-chorded cycles of order 4-7, joined by bridges
    between 2-4 attachment vertices each along a random recursive tree,
    with up to two pendant vertices and shuffled ids; the last atom is an
    11-cycle, which no default family holds, when seed % 7 == 3.  Returns
    the graph and its connector bound, 1 or 2."""
    rng = random.Random(seed)
    h = rng.randint(3, 14)
    edges, n, pools = [], 0, []
    for a in range(h):
        order = 11 if seed % 7 == 3 and a == h - 1 else rng.randint(4, 7)
        edges += [(n + i, n + (i + 1) % order) for i in range(order)]
        if order >= 5 and rng.random() < 0.5:
            edges.append((n, n + rng.randint(3, order - 2)))
        pools.append(rng.sample(range(n, n + order), rng.randint(2, 4)))
        n += order
    for j in range(1, h):
        edges.append((rng.choice(pools[rng.randrange(j)]), rng.choice(pools[j])))
    for _ in range(rng.randint(0, 2)):
        edges.append((rng.randrange(n), n))
        n += 1
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges]), 1 + seed % 2


def recognize_explain_output(tmp_path) -> str:
    """`recognize --explain` records of bridged_nonchordal(0..19), in order."""
    text = []
    for seed in range(20):
        g, c = bridged_nonchordal(seed)
        path = write(tmp_path, f"bridged{seed}.edges", emit_edge_list(g))
        out = tmp_path / f"bridged{seed}.jsonl"
        main(["recognize", path, "--explain", "--c", str(c), "-o", str(out)])
        text.append(out.read_text())
    return "".join(text)


def test_recognize_explain_output_pinned(tmp_path):
    """Splits, roots, visits and failures of recognize --explain on twenty
    bridged non-chordal graphs (twelve accepted, three of them after
    merging; three rejected by splitting, five by merging) are
    byte-identical to reject_explain.jsonl, written by this test's helper
    before splitting found bridges and atoms in one traversal; never
    regenerate it to fit a change."""
    want = (Path(DATA_DIR) / "reject_explain.jsonl").read_text()
    assert recognize_explain_output(tmp_path) == want


# (seed, k, profile) of generated members whose recognition absorbs parts.
EXPLAINED_MEMBERS = [
    (5, 10, "mixed"), (6, 10, "mixed"), (6, 20, "mixed"), (7, 20, "mixed"),
    (5, 40, "mixed"), (12, 40, "mixed"), (2, 10, "chordal"), (5, 10, "chordal"),
    (0, 20, "chordal"), (1, 20, "chordal"), (0, 40, "chordal"), (1, 40, "chordal"),
]


def members_explain_output(tmp_path) -> str:
    """`recognize --explain --c 2` records of the EXPLAINED_MEMBERS, in order."""
    text = []
    for seed, k, profile in EXPLAINED_MEMBERS:
        g, _ = generate_member(seed, k, 2, profile=profile)
        path = write(tmp_path, f"member{seed}_{k}.edges", emit_edge_list(g))
        out = tmp_path / f"member{seed}_{k}_{profile}.jsonl"
        main(["recognize", path, "--explain", "--c", "2", "-o", str(out)])
        text.append(out.read_text())
    return "".join(text)


def test_recognize_explain_members_pinned(tmp_path):
    """Splits, visits, absorptions and structures of recognize --explain on
    twelve generated members, each merging at least one part, are
    byte-identical to members_explain.jsonl, written by this test's helper
    before merge decisions carried family bitmasks; never regenerate it to
    fit a change."""
    want = (Path(DATA_DIR) / "members_explain.jsonl").read_text()
    got = members_explain_output(tmp_path)
    assert got == want
    for line in got.splitlines():
        rec = json.loads(line)
        assert rec["member"] is True
        assert any(
            v["absorbed_via"] for root in rec["explain"]["roots"] for v in root["visits"]
        )


# (seed, k, profile, part orders) of generated members for the dp pin:
# bounded parts up to order 10, and parts whose upward connector also
# serves children.
DP_MEMBERS = [
    (0, 3, "bounded", (2, 6)), (1, 5, "bounded", (2, 6)),
    (2, 8, "bounded", (2, 6)), (3, 12, "bounded", (2, 6)),
    (0, 20, "bounded", (2, 6)), (1, 40, "bounded", (2, 6)),
    (0, 3, "bounded", (4, 10)), (2, 5, "bounded", (4, 10)),
    (5, 8, "bounded", (4, 10)), (3, 12, "bounded", (4, 10)),
    (1, 20, "bounded", (4, 10)), (2, 40, "bounded", (4, 10)),
    (2, 3, "mixed", (2, 6)), (1, 5, "mixed", (2, 6)),
    (3, 8, "mixed", (2, 6)), (3, 12, "mixed", (2, 6)),
    (1, 20, "mixed", (2, 6)), (5, 30, "mixed", (2, 6)),
    (0, 3, "mixed", (4, 10)), (5, 5, "mixed", (4, 10)),
    (5, 8, "mixed", (4, 10)), (0, 12, "mixed", (4, 10)),
    (1, 20, "mixed", (4, 10)), (5, 40, "mixed", (4, 10)),
]


def members_dp_trace_output(tmp_path, stored=False) -> str:
    """`dp --c 2 --trace` records of the DP_MEMBERS, in order; with `stored`,
    `dp --structure --trace` records of the structures that `recognize --c 2
    --structure-out` wrote."""
    text = []
    for i, (seed, k, profile, orders) in enumerate(DP_MEMBERS):
        g, _ = generate_member(seed, k, 2, profile=profile, part_order=orders)
        path = write(tmp_path, f"dp{i}.edges", emit_edge_list(g))
        out = tmp_path / f"dp{i}.jsonl"
        options = ["--c", "2"]
        if stored:
            structure = str(tmp_path / f"dp{i}.structure.json")
            recognized = str(tmp_path / f"dp{i}.recognize.jsonl")
            assert main(["recognize", path, "--c", "2", "--structure-out", structure,
                         "-o", recognized]) == 0
            options = ["--structure", structure]
        assert main(["dp", path, *options, "--trace", "-o", str(out)]) == 0
        text.append(out.read_text())
    return "".join(text)


def test_dp_trace_of_members_pinned(tmp_path):
    """Values and every part's pair and hub values of dp --trace on 24
    generated members, with bounded parts of order up to 10 and parts whose
    upward connector is also a downward one, equal members_dp_trace.jsonl,
    written by this test's helper before the dp tables were indexed by
    connector bitmask; never regenerate it to fit a change.  The oracle call
    count, which that file pins for a fold that queried every connector
    subset, is dropped from both sides: the fold now queries each part twice
    and the root once.  A structure that `recognize --c 2 --structure-out`
    stored and `dp --structure --trace` folds gives the same records."""
    want = (Path(DATA_DIR) / "members_dp_trace.jsonl").read_text()
    calls = re.compile(r'"oracle_calls": \d+, ')
    for stored in (False, True):
        got = members_dp_trace_output(tmp_path, stored)
        for rec in records(got):
            assert rec["stats"]["oracle_calls"] == 2 * rec["stats"]["parts"] - 1
        assert calls.sub("", got) == calls.sub("", want), stored


def exact_records_output(tmp_path, random1000_path) -> str:
    """`minrank` records, `stats.elapsed` dropped: `--method bnb --node-budget
    2000` on lines 709-858 of random1000.g6, then the records of the
    enumeration in tests/oracles.py, as the program printed them for its
    former `--method brute`, on its first 100 lines with 2|E| <= 16."""
    lines = Path(random1000_path).read_text().splitlines()
    path = write(tmp_path, "chunk.g6", "\n".join(lines[708:858]) + "\n")
    out = tmp_path / "chunk.jsonl"
    main(["minrank", path, "--method", "bnb", "--node-budget", "2000", "-o", str(out)])
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    for rec in recs:
        rec["stats"].pop("elapsed", None)
    small = [g for g in map(parse_graph6, lines) if 2 * g.edge_count <= 16]
    recs += [
        cli._result_record(g, minrank_bruteforce(g), i) for i, g in enumerate(small[:100])
    ]
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in recs)


def test_exact_records_pinned(tmp_path, random1000_path):
    """Values, witnesses, node and row counts of branch and bound and of
    enumeration on 250 bundled graphs are byte-identical to
    exact_records.jsonl, written by this test's helper before the solvers
    shared one GF(2) row reduction and before enumeration left the program
    for tests/oracles.py; never regenerate it to fit a change."""
    want = (Path(DATA_DIR) / "exact_records.jsonl").read_text()
    assert exact_records_output(tmp_path, random1000_path) == want


# (seed, k, profile) of generated members for the auto pin, each solved
# under the default registry and under bounded:6.
AUTO_MEMBERS = [(4, 20, "bounded"), (8, 10, "bounded"), (2, 20, "mixed"), (1, 40, "mixed")]
AUTO_DIGESTS = [
    "a66c95e5d20c5acb7a3d028b3392cb5db780c8480838609581aea462b469c598",
    "56c51faff428ebfd54e0bc580bd2275f1f268b8cb5099b336dd4a1d45422d5fc",
]


def _without_elapsed(x):
    if isinstance(x, dict):
        return {k: _without_elapsed(v) for k, v in x.items() if k != "elapsed"}
    if isinstance(x, list):
        return list(map(_without_elapsed, x))
    return x


def auto_records_output(tmp_path, runs) -> str:
    """Exit codes and `minrank --trace` records, every `elapsed` dropped, of
    each argument list in `runs`, in order."""
    out, text = tmp_path / "auto.jsonl", []
    for args in runs:
        text.append(f"{main(['minrank', *args, '--trace', '-o', str(out)])}\n")
        text += [json.dumps(_without_elapsed(rec), sort_keys=True) + "\n"
                 for rec in records(out.read_text())]
    return "".join(text)


def test_auto_records_are_pinned(tmp_path, random1000_path):
    """Values, witnesses, search counts and traces of auto on random1000.g6
    with a node budget, and on generated members under the default registry
    and under bounded:6, which sends every part through the bounded-order
    oracle, hash to the SHA-256 digests taken before that oracle's search
    computed its own bounds; never regenerate them to fit a change.

    The random1000.g6 digest was re-taken once, when auto's fallback began
    to delete dominated vertices before its search: that changes witnesses
    and search counts and adds `dominated` to the stats.  Before it was
    re-taken, every one of the 1,000 values was checked equal to the old
    one, exactness was gained on lines 26, 134, 170, 334, 584, 693, 822,
    831, 904, 915 and 949 (1-based) and lost on none, and every printed
    witness passed `verify_witness`.  The members digest was not re-taken:
    the bounded-order oracle, which also deletes them, answers values only."""
    members = []
    for seed, k, profile in AUTO_MEMBERS:
        g, _ = generate_member(seed, k, 2, profile=profile)
        path = write(tmp_path, f"auto{seed}_{k}.edges", emit_edge_list(g))
        members += [[path], [path, "--registry", "bounded:6"]]
    got = [
        hashlib.sha256(auto_records_output(tmp_path, runs).encode()).hexdigest()
        for runs in ([[random1000_path, "--node-budget", "2000"]], members)
    ]
    assert got == AUTO_DIGESTS


def test_recognize_and_validate_round_trip(tmp_path, capsys):
    graph_path = write(tmp_path, "tt.edges", TWO_TRIANGLES_EDGES)
    struct_path = str(tmp_path / "tt.structure.json")
    code, out, _ = run_cli(
        capsys, ["recognize", graph_path, "--structure-out", struct_path]
    )
    assert code == 0
    (rec,) = records(out)
    assert rec["member"] is True
    assert rec["structure"] is not None
    assert os.path.exists(struct_path)

    code, out, _ = run_cli(
        capsys, ["validate", graph_path, "--structure", struct_path]
    )
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True and report["violations"] == []

    code, out, _ = run_cli(
        capsys, ["dp", graph_path, "--structure", struct_path]
    )
    assert code == 0
    assert records(out)[0]["value"] == 2


def test_recognize_nonmember_exit(tmp_path, capsys):
    c5 = "n=5\n0 1\n1 2\n2 3\n3 4\n0 4\n"
    path = write(tmp_path, "c5.edges", c5)
    code, out, _ = run_cli(capsys, ["recognize", path, "--registry", "bounded:3"])
    assert code == 1
    (rec,) = records(out)
    assert rec["member"] is False
    assert rec["failure"]


def test_recognize_components_flag(tmp_path, capsys):
    two_parts = "n=6\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n"
    path = write(tmp_path, "pair.edges", two_parts)
    code, out, _ = run_cli(capsys, ["recognize", path, "--components"])
    assert code == 0
    recs = records(out)
    assert [r["component"] for r in recs] == [0, 1]
    assert all(r["member"] for r in recs)


# A triangle with a pendant vertex, and a 4-cycle with one at vertex 6.
TWO_BRIDGED_EDGES = "n=9\n0 1\n1 2\n0 2\n2 3\n4 5\n5 6\n6 7\n7 4\n6 8\n"
# The same graph with sparse ids v -> 10 v + 5.
TWO_BRIDGED_SPARSE = "5 15\n15 25\n5 25\n25 35\n45 55\n55 65\n65 75\n75 45\n65 85\n"


def on_component(g, obj):
    """The component of g that a structure record spans, as its induced
    graph, and the structure renumbered onto that graph."""
    sub, index = oracles.induced_subgraph(g, sorted(v for part in obj["parts"] for v in part))
    return sub, SimpleTreeStructure(
        tuple(tuple(index[v] for v in part) for part in obj["parts"]),
        tuple(obj["parent"]),
        {int(j): index[v] for j, v in obj["uc"].items()},
        {int(i): {index[int(u)]: tuple(js) for u, js in m.items()}
         for i, m in obj["dc"].items()},
    )


def test_component_records_name_the_input_vertices(tmp_path, capsys):
    """`recognize --components` and `minrank --trace` name each component's
    vertices by the input's ids, every structure validates against its
    component, and a sparse-id input's structures map through `labels`."""
    path = write(tmp_path, "two.edges", TWO_BRIDGED_EDGES)
    code, out, _ = run_cli(capsys, ["recognize", path, "--components", "--explain"])
    assert code == 0
    first, second = records(out)
    assert first["structure"]["parts"] == [[0, 1, 2], [3]]
    assert second["structure"]["parts"] == [[4, 5, 6, 7], [8]]
    assert second["structure"]["uc"] == {"1": 8}
    assert second["structure"]["dc"] == {"0": {"6": [1]}}
    assert second["explain"]["splits"] == [{"bridge": [6, 8]}]
    assert (first["n"], second["n"]) == (4, 5)
    g = parse_edge_list(TWO_BRIDGED_EDGES)
    for rec in (first, second):
        assert validate_structure(*on_component(g, rec["structure"]), default_registry()).valid
    code, out, _ = run_cli(capsys, ["minrank", path, "--trace"])
    (rec,) = records(out)
    hubs = [[list(node["hub_values"]) for node in trace["nodes"]]
            for trace in rec["trace"]["components"]]
    assert code == 0 and hubs == [[[], ["2"]], [[], ["6"]]]
    # With sparse ids, each record carries the labels of its own vertices,
    # through which its structure maps to the input's ids.
    path = write(tmp_path, "sparse.edges", TWO_BRIDGED_SPARSE)
    code, out, _ = run_cli(capsys, ["recognize", path, "--components"])
    assert code == 0
    mapped = []
    for rec in records(out):
        labels, t = rec["labels"], rec["structure"]
        assert sorted(map(int, labels)) == sorted(v for part in t["parts"] for v in part)
        mapped.append({
            "parts": [[labels[str(v)] for v in part] for part in t["parts"]],
            "uc": {j: labels[str(v)] for j, v in t["uc"].items()},
            "dc": {i: {labels[u]: js for u, js in m.items()} for i, m in t["dc"].items()},
        })
    assert mapped == [
        {"parts": [["5", "15", "25"], ["35"]], "uc": {"1": "35"},
         "dc": {"0": {"25": [1]}}},
        {"parts": [["45", "55", "65", "75"], ["85"]], "uc": {"1": "85"},
         "dc": {"0": {"65": [1]}}},
    ]


def test_recognize_components_searches_once_and_copies_nothing(tmp_path, capsys, monkeypatch):
    """`recognize --components` searches the input once, copies nothing and
    validates nothing; each structure it prints validates in full against
    its component, and every component is a member."""
    g = parse_edge_list(TWO_BRIDGED_EDGES)
    path = write(tmp_path, "two.edges", TWO_BRIDGED_EDGES)
    splits, checked = [], []
    real_split = Graph.bridge_split

    def counted_split(self):
        splits.append(self.n)
        return real_split(self)

    def counted_validate(*args):
        checked.append(args)
        return validate_structure(*args)

    monkeypatch.setattr(Graph, "bridge_split", counted_split)
    built = graphs_built(monkeypatch)
    for name, module in list(sys.modules.items()):
        if name.startswith("minrank") and hasattr(module, "validate_structure"):
            monkeypatch.setattr(module, "validate_structure", counted_validate)
    code, out, _ = run_cli(capsys, ["recognize", path, "--components"])
    monkeypatch.undo()
    assert code == 0 and all(rec["member"] for rec in records(out))
    assert (splits, built, checked) == ([g.n], [g], [])
    checked = []
    for rec in records(out):
        sub, t = on_component(g, rec["structure"])
        checked.append((sub.n, validate_structure(sub, t, default_registry()).valid))
    assert checked == [(4, True), (5, True)]


@pytest.mark.parametrize(
    "text, argv",
    [("", ["minrank"]), ("", ["batch"]), ("?\n", ["recognize", "--components"])],
    ids=["minrank-empty-file", "batch-empty-corpus", "recognize-components-n0"],
)
def test_no_records_print_nothing(tmp_path, capsys, text, argv):
    """One JSON line per record: an input that yields none (no graphs, or a
    graph with no components) prints no line at all, not a blank one."""
    path = write(tmp_path, "input.g6", text)
    assert run_cli(capsys, [argv[0], path, *argv[1:]]) == (0, "", "")


def test_recognize_explain_payload(tmp_path, capsys):
    path = write(tmp_path, "tt.edges", TWO_TRIANGLES_EDGES)
    code, out, _ = run_cli(capsys, ["recognize", path, "--explain"])
    assert code == 0
    (rec,) = records(out)
    assert rec["explain"]["splits"] == [{"bridge": [2, 3]}]
    assert "roots" in rec["explain"]
    assert rec["explain"]["roots"][-1]["accepted"] is True


def test_dp_on_nonmember_exits_one(tmp_path, capsys):
    c12 = "n=12\n" + "".join(
        f"{min(i, (i + 1) % 12)} {max(i, (i + 1) % 12)}\n" for i in range(12)
    )
    path = write(tmp_path, "c12.edges", c12)
    code, out, _ = run_cli(capsys, ["dp", path])
    assert code == 1
    (rec,) = records(out)
    assert rec["member"] is False


def test_dp_folds_a_part_with_twenty_connectors(tmp_path, capsys):
    """K_20 with a pendant at each vertex, recognised at c = 20: the clique
    part has 20 downward connectors, and dp and auto answer exactly 20."""
    d = 20
    edges = [(u, v) for v in range(d) for u in range(v)] + [(v, d + v) for v in range(d)]
    path = write(tmp_path, "k20.edges", emit_edge_list(Graph(2 * d, edges)))
    for command in ("dp", "minrank"):
        code, out, _ = run_cli(capsys, [command, path, "--c", str(d)])
        (rec,) = records(out)
        assert (code, rec["method"], rec["exact"], rec["value"]) == (0, "dp", True, d)
        assert rec["stats"]["oracle_calls"] == 2 * rec["stats"]["parts"] - 1 == 41


def test_dp_on_nonmember_writes_output_file(tmp_path, capsys):
    path = write(tmp_path, "c5.edges", "n=5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    out_path = tmp_path / "dp.json"
    code, out, _ = run_cli(
        capsys, ["dp", path, "--registry", "chordal", "-o", str(out_path)]
    )
    assert code == 1
    assert out == ""
    (rec,) = records(out_path.read_text())
    assert rec["member"] is False


def test_validate_flags_wrong_graph(tmp_path, capsys):
    graph_path = write(tmp_path, "tt.edges", TWO_TRIANGLES_EDGES)
    struct_path = str(tmp_path / "tt.structure.json")
    run_cli(capsys, ["recognize", graph_path, "--structure-out", struct_path])
    # same order, different edges: the stored structure cannot fit
    c6 = "n=6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n"
    other = write(tmp_path, "c6.edges", c6)
    dot_path = str(tmp_path / "bad.dot")
    code, out, _ = run_cli(
        capsys, ["validate", other, "--structure", struct_path, "--dot", dot_path]
    )
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False and report["violations"]
    assert os.path.exists(dot_path)


def test_gen_is_deterministic(tmp_path, capsys):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    for prefix in (a, b):
        code, _, _ = run_cli(
            capsys,
            ["gen", prefix, "--seed", "9", "--parts", "3", "--dot"],
        )
        assert code == 0
    for ext in (".edges", ".structure.json", ".dot"):
        assert (tmp_path / ("a" + ext)).read_bytes() == \
            (tmp_path / ("b" + ext)).read_bytes()
    # generated pair must round-trip through dp at the exact value
    code, out, _ = run_cli(
        capsys, ["dp", a + ".edges", "--structure", a + ".structure.json"]
    )
    assert code == 0
    check_record(records(out)[0])


def test_batch_corpus_histograms(tmp_path, capsys, order4_path):
    hist_json = str(tmp_path / "hist.json")
    hist_csv = str(tmp_path / "hist.csv")
    out_a = str(tmp_path / "a.jsonl")
    out_b = str(tmp_path / "b.jsonl")
    code, _, _ = run_cli(
        capsys,
        ["batch", order4_path, "--histogram", hist_json, "-o", out_a],
    )
    assert code == 0
    recs = records(Path(out_a).read_text())
    assert len(recs) == 11
    assert all("value" in r for r in recs)
    payload = json.loads(Path(hist_json).read_text())
    assert sum(payload["histogram"].values()) == 11
    assert payload["skipped"] == 0

    code, _, _ = run_cli(
        capsys,
        ["batch", order4_path, "--jobs", "2", "--histogram", hist_csv,
         "-o", out_b],
    )
    assert code == 0
    assert Path(out_a).read_text() == Path(out_b).read_text()
    rows = Path(hist_csv).read_text().splitlines()
    assert rows[0] == "minrank,count"
    total = sum(int(r.split(",")[1]) for r in rows[1:])
    assert total == 11


# The 0-based indices of the random1000.g6 lines that auto closes only
# once dominated vertices are deleted before its search.
CLOSED_BY_DOMINATION = [25, 133, 169, 333, 583, 692, 821, 830, 903, 914, 948]


def test_batch_whole_corpus_at_node_budget(tmp_path, random1000_path):
    """All of random1000.g6 at --node-budget 2000.  Before joins were split
    and the exact clique cover became the incumbent, 808 answers were exact
    (random1000_budget2000.txt); those keep their values, and no other
    value rises.  Deleting dominated vertices before auto's search made 952
    exact answers 963: the 11 lines it closed are exact at the value that
    `random1000_bnb2000.jsonl` pins, the upper end of their old interval."""
    out = tmp_path / "out.jsonl"
    argv = ["batch", random1000_path, "--node-budget", "2000", "-o", str(out)]
    assert main(argv) == 0
    recs = records(out.read_text())
    before = [
        tuple(map(int, line.split()))
        for line in (Path(random1000_path).parent / "random1000_budget2000.txt")
        .read_text()
        .splitlines()
        if not line.startswith("#")
    ]
    assert len(recs) == len(before) == 1000
    assert sum(exact for _, exact in before) == 808
    assert sum(rec["exact"] for rec in recs) == 963
    pinned = (Path(random1000_path).parent / "random1000_bnb2000.jsonl").read_text().splitlines()
    for i in CLOSED_BY_DOMINATION:
        assert recs[i]["exact"] and recs[i]["value"] == json.loads(pinned[i])["value"], i
    for rec, (value, exact) in zip(recs, before):
        assert rec["value"] <= value, rec
        if exact:
            assert rec["exact"] and rec["value"] == value, rec


def test_bounded_twelve_answers_lines_it_once_searched_for_seconds(tmp_path, random1000_path):
    """Lines 170, 831 and 949 (1-based) of random1000.g6 have 12 vertices
    each, so bounded:12 claims them whole, and its oracle searches with no
    node budget.  Searching them as they are took from 12 s to over 20 s
    each; without their dominated vertices each is answered exactly by the
    dp fold, at the value auto gives under the default registry."""
    lines = Path(random1000_path).read_text().splitlines()
    path = write(tmp_path, "three.g6", "".join(lines[i] + "\n" for i in (169, 830, 948)))
    out = tmp_path / "out.jsonl"
    argv = ["minrank", path, "--registry", "chordal,bounded:12", "--node-budget", "2000"]
    assert main([*argv, "-o", str(out)]) == 0
    got = [(r["n"], r["value"], r["method"], r["exact"]) for r in records(out.read_text())]
    assert got == [(12, 4, "dp", True), (12, 3, "dp", True), (12, 4, "dp", True)]


def test_batch_survives_malformed_line(tmp_path, capsys):
    path = write(tmp_path, "mixed.g6", "C~\nnot-a-graph\nCw\n")
    hist = str(tmp_path / "hist.json")
    code, out, _ = run_cli(capsys, ["batch", path, "--histogram", hist])
    assert code == 0
    recs = records(out)
    assert len(recs) == 3
    assert "error" in recs[1] and "value" in recs[0] and "value" in recs[2]
    assert json.loads(Path(hist).read_text())["skipped"] == 1


def test_graph6_skips_blank_and_comment_lines(tmp_path, capsys):
    """A graph6 file's blank lines and lines starting with `#` hold no
    graph: `batch` numbers its record by the line (0-based), `minrank` by
    the graph's place among the graphs, and `recognize` reads the one
    graph."""
    path = write(tmp_path, "commented.g6", "# header\n\nBw\n")
    code, out, _ = run_cli(capsys, ["batch", path])
    assert code == 0 and [(r["index"], r["graph"]) for r in records(out)] == [(2, "Bw")]
    code, out, _ = run_cli(capsys, ["minrank", path])
    assert code == 0 and [(r["index"], r["graph"]) for r in records(out)] == [(0, "Bw")]
    code, out, _ = run_cli(capsys, ["recognize", path])
    assert code == 0 and (records(out)[0]["member"], records(out)[0]["n"]) == (True, 3)


def test_a_late_failure_keeps_the_records_made_so_far(tmp_path, capsys):
    """Each record goes out as it is made: a line that does not parse ends
    the run with exit 2, after the records of the lines before it, on
    stdout and in the `-o` file."""
    head = write(tmp_path, "head.g6", "Bw\nC~\n")
    path = write(tmp_path, "late.g6", "Bw\nC~\nnot-graph6\nBw\n")
    code, want, _ = run_cli(capsys, ["minrank", head])
    assert code == 0 and len(records(want)) == 2
    code, out, err = run_cli(capsys, ["minrank", path])
    assert code == 2 and err.startswith("error:") and out == want
    dest = tmp_path / "out.json"
    code, out, err = run_cli(capsys, ["minrank", path, "-o", str(dest)])
    assert (code, out) == (2, "") and err.startswith("error:")
    assert dest.read_text() == want


@pytest.mark.parametrize("command", ["batch", "minrank"])
def test_memory_does_not_grow_with_the_corpus(tmp_path, command):
    """Records are written as they are made, and no list of graphs or
    records is kept, so the traced peak grows by far less than a record
    (a few hundred bytes) per added line."""
    out = str(tmp_path / "out.json")
    peaks = []
    for lines in (250, 2000):
        path = write(tmp_path, f"{lines}.g6", "Bw\nC~\n" * (lines // 2))
        tracemalloc.start()
        try:
            assert main([command, path, "-o", out]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (2000 - 250) < 256, peaks


def test_batch_turns_any_exception_into_an_error_record(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "three.g6", "C~\nCw\nCF\n")
    solve = cli.solve_graph

    def failing_on_second(g, *args):
        if cli.emit_graph6(g) == "Cw":
            raise RuntimeError("solver fault")
        return solve(g, *args)

    monkeypatch.setattr(cli, "solve_graph", failing_on_second)
    code, out, _ = run_cli(capsys, ["batch", path, "--jobs", "1"])
    assert code == 0
    recs = records(out)
    assert [r["index"] for r in recs] == [0, 1, 2]
    assert recs[1]["error"] == "RuntimeError: solver fault"
    assert "value" in recs[0] and "value" in recs[2]


def test_cnf_export_and_solve(tmp_path, capsys):
    tri = write(tmp_path, "tri.edges", "n=3\n0 1\n0 2\n1 2\n")
    code, out, _ = run_cli(capsys, ["cnf", tri, "--k", "2"])
    assert code == 0
    assert "p cnf" in out

    code, _, err = run_cli(
        capsys,
        ["cnf", tri, "--k", "1", "--solve", "--sat-solver", solver_command()],
    )
    assert code == 0
    assert "SATISFIABLE" in err

    # After the verdict, --solve writes the same formula the export does.
    formula = tmp_path / "tri.cnf"
    argv = ["cnf", tri, "--k", "1", "--solve", "--sat-solver", solver_command()]
    code, out, _ = run_cli(capsys, [*argv, "-o", str(formula)])
    assert (code, out) == (0, "")
    assert formula.read_text() == run_cli(capsys, ["cnf", tri, "--k", "1"])[1]

    p3 = write(tmp_path, "p3.edges", "n=3\n0 1\n1 2\n")
    code, _, err = run_cli(
        capsys,
        ["cnf", p3, "--k", "1", "--solve", "--sat-solver", solver_command()],
    )
    assert code == 1
    assert "UNSATISFIABLE" in err


def test_config_file_sets_defaults(tmp_path, capsys, monkeypatch):
    c5 = "n=5\n0 1\n1 2\n2 3\n3 4\n0 4\n"
    path = write(tmp_path, "c5.edges", c5)
    cfg = write(tmp_path, "cfg.json", json.dumps({"registry": "bounded:3"}))
    monkeypatch.setenv("MINRANK_CONFIG", cfg)
    code, _, _ = run_cli(capsys, ["recognize", path])
    assert code == 1  # config registry rejects a 5-cycle
    code, _, _ = run_cli(capsys, ["recognize", path, "--registry", "bounded:10"])
    assert code == 0  # explicit flag wins over the config file


def test_auto_sends_an_inexact_component_to_the_sat_solver(tmp_path, capsys, monkeypatch):
    """Under auto, a component that recognition rejects and branch and
    bound leaves inexact goes to the SAT solver, encoded in place: the one
    graph built is the parsed input, with or without a solver."""
    g = Graph(8, [(0, 1), (1, 2), (0, 2)] + [(3 + i, 3 + (i + 1) % 5) for i in range(5)])
    path = write(tmp_path, "two.edges", emit_edge_list(g))
    formulas = []
    real_run = cnf.run_solver

    def recorded(dimacs, solver_path):
        formulas.append(list(dimacs))
        return real_run(formulas[-1], solver_path)

    monkeypatch.setattr(cnf, "run_solver", recorded)
    built = graphs_built(monkeypatch)
    argv = ["minrank", path, "--registry", "chordal", "--node-budget", "0"]
    code, out, _ = run_cli(capsys, argv)
    (rec,) = records(out)
    assert code == 3 and not rec["exact"] and built == [g] and formulas == []
    built.clear()
    code, out, _ = run_cli(capsys, [*argv, "--sat-solver", solver_command()])
    (rec,) = records(out)
    assert code == 0 and rec["exact"] and rec["value"] == 1 + 3  # mr(C5) = 3
    assert rec["stats"]["methods"] == ["dp", "cnf"]
    assert built == [g] and "n=5 m=5" in formulas[0][0]


def test_config_solver_used_by_cnf_method(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "ex.edges", EXAMPLE_EDGES)
    cfg = write(
        tmp_path, "cfg.json", json.dumps({"sat_solver": solver_command()})
    )
    monkeypatch.setenv("MINRANK_CONFIG", cfg)
    code, out, _ = run_cli(capsys, ["minrank", path, "--method", "cnf"])
    assert code == 0
    assert records(out)[0]["value"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["minrank", "/nonexistent/input.edges"],
        ["minrank", "IN", "--registry", "nosuchfamily"],
        ["minrank", "IN", "--registry", "bounded:0"],
        ["recognize", "IN", "--c", "0"],
        ["batch", "IN", "--registry", "nosuchfamily"],
        ["batch", "IN", "--c", "0"],
        ["gen", "--seed", "1", "--parts", "0"],
        ["gen", "--seed", "1", "--parts", "3", "--order-min", "5", "--order-max", "2"],
        ["cnf", "IN", "--k", "0"],
        ["cnf", "IN", "--k", "9"],
        # k is checked before the output file is opened.
        ["cnf", "IN", "--k", "0", "-o", "OUT"],
        ["cnf", "IN", "--k", "9", "-o", "OUT"],
        # BAD names a file, and stdin holds bytes, that are not UTF-8.
        ["minrank", "BAD"],
        ["minrank", "-"],
        ["recognize", "BAD"],
        ["recognize", "-"],
        ["dp", "BAD"],
        ["dp", "IN", "--structure", "BAD"],
        ["batch", "BAD"],
        ["batch", "-"],
        ["cnf", "BAD", "--k", "1"],
        ["validate", "BAD", "--structure", "IN"],
        ["validate", "IN", "--structure", "BAD"],
        # One structure file cannot hold one structure per component.
        ["recognize", "IN", "--components", "--structure-out", "OUT"],
        # A batch runs in at least one process.
        ["batch", "IN", "--jobs", "0"],
        ["batch", "IN", "--jobs", "-2"],
        # A solver that cannot be run, or that gives no verdict; C5's
        # bounds leave a gap, so its solve calls the solver.
        *[
            [*args, "--sat-solver", solver]
            for solver in (" ", NO_VERDICT)
            for args in (
                ["cnf", "IN", "--k", "2", "--solve", "-o", "OUT"],
                ["minrank", "C5", "--method", "cnf"],
                ["minrank", "C5", "--registry", "chordal", "--node-budget", "0"],
            )
        ],
        # Method cnf with no solver set fails before the first record.
        ["minrank", "C5", "--method", "cnf", "-o", "OUT"],
        # A registry that names a family twice.
        ["minrank", "IN", "--registry", "chordal,chordal"],
        ["minrank", "IN", "--registry", "bounded,bounded:10"],
        ["recognize", "IN", "--registry", "chordal,chordal"],
        ["dp", "IN", "--registry", "bounded,bounded:10"],
        ["batch", "IN", "--registry", "chordal,chordal"],
        ["gen", "--seed", "1", "--parts", "2", "--registry", "bounded,bounded:10"],
        ["validate", "IN", "--structure", "IN", "--registry", "chordal,chordal"],
        # Parts of orders that no family of the default registry holds.
        ["gen", "--seed", "1", "--parts", "3", "--profile", "bounded",
         "--order-min", "12", "--order-max", "12"],
        ["gen", "--seed", "1", "--parts", "3", "--profile", "mixed",
         "--order-min", "11", "--order-max", "14"],
        # --dot writes <prefix>.dot, so it needs a prefix.
        ["gen", "--seed", "1", "--parts", "2", "--dot"],
        # A structure of the path 0-1-2 whose uc key is no canonical decimal.
        ["validate", "P3", "--structure", "KEY"],
        # Commands that take a single graph, given a file of two.
        ["recognize", "TWO"],
        ["dp", "TWO"],
        ["cnf", "TWO", "--k", "1"],
        ["validate", "TWO", "--structure", "IN"],
    ],
)
def test_usage_errors_exit_two(tmp_path, capsys, monkeypatch, argv):
    path = write(tmp_path, "ex.edges", EXAMPLE_EDGES)
    c5 = write(tmp_path, "c5.edges", "n=5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    p3 = write(tmp_path, "p3.edges", "n=3\n0 1\n1 2\n")
    key = json.dumps({"parts": [[0, 1], [2]], "parent": [-1, 0], "uc": {" +1 ": 2}})
    key = write(tmp_path, "key.json", key)
    bad = tmp_path / "bad.edges"
    bad.write_bytes(b"\xff\xfe\n")
    # Under Python's UTF-8 mode stdin escapes bytes that do not decode.
    stdin = io.TextIOWrapper(
        io.BytesIO(b"\xff\xfe\n"), encoding="utf-8", errors="surrogateescape"
    )
    monkeypatch.setattr(sys, "stdin", stdin)
    two = write(tmp_path, "two.g6", "A_\nA_\n")
    out = tmp_path / "out.json"
    names = {"IN": path, "C5": c5, "P3": p3, "KEY": key, "BAD": str(bad), "TWO": two,
             "OUT": str(out)}
    argv = [names.get(a, a) for a in argv]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("command", ["minrank", "recognize", "dp", "batch", "gen"])
def test_connector_bound_below_one_exits_two_before_reading_input(
    tmp_path, capsys, monkeypatch, command
):
    """A connector bound below 1, from --c or from the config file, is
    refused once with the other settings, before the input is read: the
    input named here does not exist."""
    missing = str(tmp_path / "missing.g6")
    argv = ["gen", "--seed", "1", "--parts", "2"] if command == "gen" else [command, missing]
    code, out, err = run_cli(capsys, [*argv, "--c", "0"])
    assert (code, out, err) == (2, "", "error: connector bound must be positive, got 0\n")
    monkeypatch.setenv("MINRANK_CONFIG", write(tmp_path, "cfg.json", '{"c": 0}'))
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", "error: connector bound must be positive, got 0\n")


@pytest.mark.parametrize("command", ["dp", "validate"])
@pytest.mark.parametrize("connectors", [{"uc": {"x": 1}}, {"dc": {"0": 5}}])
def test_bad_structure_connectors_exit_two(tmp_path, capsys, command, connectors):
    path = write(tmp_path, "ex.edges", EXAMPLE_EDGES)
    structure = {"parts": [[0, 1, 2, 3, 4]], "parent": [-1], **connectors}
    struct_path = write(tmp_path, "s.json", json.dumps(structure))
    code, out, err = run_cli(capsys, [command, path, "--structure", struct_path])
    assert code == 2 and out == ""
    assert err.startswith("error: bad structure JSON")


def test_repeated_registry_family_in_config_exits_two(tmp_path, capsys, monkeypatch):
    """Refused with the other settings, before the input (missing here) is read."""
    missing = str(tmp_path / "missing.edges")
    cfg = write(tmp_path, "cfg.json", '{"registry": "bounded,bounded:10"}')
    monkeypatch.setenv("MINRANK_CONFIG", cfg)
    code, out, err = run_cli(capsys, ["minrank", missing])
    assert (code, out) == (2, "")
    assert err.startswith("error: duplicate family names")


@pytest.mark.parametrize("command", ["dp", "validate"])
def test_structure_with_non_integer_id_exits_two(tmp_path, capsys, command):
    """A float id is refused, not truncated to a vertex of the path 0-1-2."""
    path = write(tmp_path, "path.edges", "n=3\n0 1\n1 2\n")
    struct_path = write(tmp_path, "s.json", '{"parts": [[0, 1], [2.5]], "parent": [-1, 0]}')
    code, out, err = run_cli(capsys, [command, path, "--structure", struct_path])
    assert (code, out) == (2, "")
    assert err.startswith("error: bad structure JSON: id 2.5 is not an integer")


def test_gen_parts_of_order_12_need_a_registry_that_holds_them(capsys):
    argv = ["gen", "--seed", "1", "--parts", "3", "--profile", "bounded",
            "--order-min", "12", "--order-max", "12"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "of order 12 is in no family of registry chordal,bounded:10" in err
    code, out, _ = run_cli(capsys, [*argv, "--registry", "bounded:12"])
    assert code == 0 and out.startswith("n=36\n")


def test_bad_config_file_exits_two(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "ex.edges", EXAMPLE_EDGES)
    cfg = write(tmp_path, "cfg.json", "{broken")
    monkeypatch.setenv("MINRANK_CONFIG", cfg)
    code, _, err = run_cli(capsys, ["minrank", path])
    assert code == 2
    assert "config" in err


def test_config_file_of_no_object_exits_two(tmp_path, capsys, monkeypatch):
    """A config file must hold a JSON object: an array is refused."""
    path = write(tmp_path, "ex.edges", EXAMPLE_EDGES)
    monkeypatch.setenv("MINRANK_CONFIG", write(tmp_path, "cfg.json", '["c", 2]'))
    code, out, err = run_cli(capsys, ["minrank", path])
    assert code == 2 and out == ""
    assert err.startswith("error: config file") and "must hold a JSON object" in err


@pytest.mark.parametrize("config", [{"c": "x"}, {"registry": 5}, {"sat_solver": 1}])
def test_config_value_of_wrong_type_exits_two(tmp_path, capsys, monkeypatch, config):
    path = write(tmp_path, "ex.edges", EXAMPLE_EDGES)
    monkeypatch.setenv("MINRANK_CONFIG", write(tmp_path, "cfg.json", json.dumps(config)))
    code, out, err = run_cli(capsys, ["recognize", path])
    assert code == 2 and out == ""
    key = next(iter(config))
    assert err.startswith("error: bad config file") and key in err


def test_records_carry_the_input_vertex_ids(tmp_path, capsys):
    """An edge list with ids other than 0..n-1 is solved on dense ids, and
    every record maps them back; a dense input's records have no labels."""
    sparse = write(tmp_path, "sparse.edges", "5 7\n7 9\n9 5\n9 11\n")
    dense = write(tmp_path, "dense.edges", "0 1\n1 2\n2 0\n2 3\n")
    labels = {"0": "5", "1": "7", "2": "9", "3": "11"}
    for argv in (["recognize"], ["recognize", "--components"], ["minrank"], ["dp"]):
        code, out, _ = run_cli(capsys, [*argv, sparse])
        assert code == 0
        rec = records(out)[0]
        assert rec["labels"] == labels
        code, out, _ = run_cli(capsys, [*argv, dense])
        assert code == 0 and "labels" not in records(out)[0]
        rec.pop("labels")
        assert records(out)[0] == rec
    assert rec["value"] == 2


def test_console_script_entry_point(tmp_path):
    exe = shutil.which("minrank")
    if exe is None:
        pytest.skip("console script not on PATH")
    path = write(tmp_path, "ex.edges", EXAMPLE_EDGES)
    proc = subprocess.run(
        [exe, "minrank", str(path)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.splitlines()[0])["value"] == 2


def test_stdin_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", __import__("io").StringIO("Cw\nC~\n"))
    code, out, _ = run_cli(capsys, ["minrank", "-", "--format", "g6"])
    assert code == 0
    assert [r["value"] for r in records(out)] == [2, 1]
