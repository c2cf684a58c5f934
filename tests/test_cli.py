"""End-to-end checks of the command-line front end."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from minrank import cli
from minrank.cli import main

from conftest import solver_command

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
    for method in ("auto", "brute", "bnb"):
        code, out, _ = run_cli(capsys, ["minrank", path, "--method", method])
        assert code == 0
        rec = records(out)[0]
        values[method] = rec["value"]
        if method in ("brute", "bnb"):
            assert rec["witness"] is not None
    assert set(values.values()) == {2}


def test_minrank_brute_budget_exit(tmp_path, capsys):
    c13 = "n=13\n" + "".join(f"{i} {(i + 1) % 13}\n".replace("12 0", "0 12")
                             for i in range(13))
    path = write(tmp_path, "c13.edges", c13)
    code, out, _ = run_cli(capsys, ["minrank", path, "--method", "brute"])
    assert code == 3
    (rec,) = records(out)
    assert "error" in rec


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
    code, _, err = run_cli(capsys, ["minrank", path, "--method", "dp"])
    assert code == 2
    assert "dp subcommand" in err


def test_minrank_trace_included(tmp_path, capsys):
    path = write(tmp_path, "tt.edges", TWO_TRIANGLES_EDGES)
    code, out, _ = run_cli(capsys, ["minrank", path, "--trace"])
    assert code == 0
    (rec,) = records(out)
    assert rec["method"] == "dp"
    assert "trace" in rec and "trace" not in rec["stats"]


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


def test_batch_survives_malformed_line(tmp_path, capsys):
    path = write(tmp_path, "mixed.g6", "C~\nnot-a-graph\nCw\n")
    hist = str(tmp_path / "hist.json")
    code, out, _ = run_cli(capsys, ["batch", path, "--histogram", hist])
    assert code == 0
    recs = records(out)
    assert len(recs) == 3
    assert "error" in recs[1] and "value" in recs[0] and "value" in recs[2]
    assert json.loads(Path(hist).read_text())["skipped"] == 1


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
    ],
)
def test_usage_errors_exit_two(tmp_path, capsys, argv):
    path = write(tmp_path, "ex.edges", EXAMPLE_EDGES)
    argv = [path if a == "IN" else a for a in argv]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err.startswith("error:")


def test_bad_config_file_exits_two(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "ex.edges", EXAMPLE_EDGES)
    cfg = write(tmp_path, "cfg.json", "{broken")
    monkeypatch.setenv("MINRANK_CONFIG", cfg)
    code, _, err = run_cli(capsys, ["minrank", path])
    assert code == 2
    assert "config" in err


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
