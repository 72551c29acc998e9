"""Command-line surface: output formats, exit codes, record files."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from exfree.cli import main


def run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse error paths
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_count_prints_bare_number():
    code, out, _ = run("count", "--graph", "gen:complete:5", "--pattern", "K3")
    assert code == 0
    assert out == "10\n"


def test_count_blowup_literal():
    code, out, _ = run("count", "--graph", "gen:complete:4", "--pattern", "K2(2)")
    assert code == 0
    assert out == "3\n"


def test_contains_yes_no():
    code, out, _ = run(
        "contains", "--graph", "gen:complete:5", "--forbid", "gen:cycle:5"
    )
    assert (code, out) == (0, "yes\n")
    code, out, _ = run(
        "contains", "--graph", "gen:cycle:5", "--forbid", "gen:complete:3"
    )
    assert (code, out) == (0, "no\n")


def test_generate_emits_graph6_and_summary():
    code, out, _ = run("generate", "--spec", "gen:turan:6:3")
    assert code == 0
    assert out == "E]~o\nn=6 edges=12 min-degree=4\n"


def test_formula_prints_named_fraction_with_float():
    code, out, _ = run("formula", "aes-threshold", "--k", "3")
    assert code == 0
    assert out == "threshold: 2/5 (0.4)\n"
    code, out, _ = run(
        "formula", "predict-clique", "--n", "8", "--k", "3", "--m", "2"
    )
    assert code == 0
    assert out == "prediction: 16 (16)\n"


def test_formula_requires_its_arguments():
    code, _, err = run("formula", "predict-clique", "--n", "8")
    assert code == 1
    assert "predict-clique" in err


def test_color_modes_and_missing_flag():
    code, out, _ = run("color", "--graph", "g6:Dhc", "--colors", "2")
    assert (code, out) == (0, "no\n")
    code, out, _ = run("color", "--graph", "g6:Dhc", "--chromatic")
    assert code == 0
    assert out == "chromatic-number: 3\ncoloring: 0 1 0 1 2\n"
    code, _, err = run("color", "--graph", "g6:Dhc")
    assert code == 1
    assert "--colors" in err


def test_solve_reports_count_proof_witness():
    code, out, _ = run(
        "solve", "--graph", "gen:complete:6", "--pattern", "K2",
        "--forbid", "gen:complete:3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "count: 9"
    assert lines[1] == "proof: branch-and-bound"
    assert lines[2] == "witness: Es\\o"
    assert lines[3].startswith("edges: 0-1 0-2 0-3")


def test_solve_ties_listing():
    code, out, _ = run(
        "solve", "--graph", "gen:complete:5", "--pattern", "K2",
        "--forbid", "gen:complete:3", "--ties",
    )
    assert code == 0
    assert "count: 6" in out
    assert "optima: 10" in out
    assert out.count("\n  ") == 10  # one indented graph6 line per optimum


def test_solve_is_byte_deterministic():
    argv = (
        "solve", "--graph", "gen:complete:7", "--pattern", "K2",
        "--forbid", "gen:complete:3",
    )
    assert run(*argv) == run(*argv)


def test_partite_output():
    code, out, _ = run(
        "partite", "--graph", "gen:complete:6", "--parts", "3", "--pattern", "K3"
    )
    assert code == 0
    assert out == "count: 8\npart 0: 0 1\npart 1: 2 3\npart 2: 4 5\n"


def test_peel_output():
    code, out, _ = run(
        "peel", "--graph", "gen:complete:6", "--k", "3", "--pattern", "K2"
    )
    assert code == 0
    assert "core-size: 6" in out
    assert "stop: degree-threshold-met" in out
    assert "exceeded-half: no" in out


def test_rebuild_output():
    code, out, _ = run(
        "rebuild", "--graph", "gen:complete:9", "--k", "3", "--pattern", "K2",
        "--forbid", "gen:complete:3",
    )
    assert code == 0
    assert "count: 20" in out
    assert "core-count: 20" in out
    assert "part 0:" in out


def test_error_exit_codes_and_messages():
    code, _, err = run("count", "--graph", "g6:!!bogus", "--pattern", "K2")
    assert code == 1
    assert "invalid graph6 character" in err
    code, _, err = run("count", "--graph", "gen:complete:4", "--pattern", "Q9")
    assert code == 1
    assert "unrecognized pattern literal" in err
    code, _, err = run(
        "solve", "--graph", "gen:complete:4", "--pattern", "K2", "--forbid", "gen:empty:2"
    )
    assert code == 1
    assert "no edges" in err


def test_budget_exhaustion_exits_two():
    code, _, err = run(
        "solve", "--graph", "gen:complete:9", "--pattern", "K2",
        "--forbid", "gen:complete:3", "--engine", "exhaustive",
    )
    assert code == 2
    assert "budget exceeded" in err


def test_unknown_verdict_exits_two():
    code, out, _ = run(
        "verify", "--claim", "extremal-colorable", "--graph", "gen:complete:12",
        "--forbid", "gen:complete:3", "--pattern", "K2", "--k", "3",
    )
    assert code == 2
    assert "verdict[witness-colorable]: unknown" in out


def test_verify_extremal_colorable_output():
    code, out, _ = run(
        "verify", "--claim", "extremal-colorable", "--graph", "gen:complete:6",
        "--forbid", "gen:complete:3", "--pattern", "K2", "--k", "3",
    )
    assert code == 0
    assert "optimum: 9" in out
    assert "witness: Es\\o" in out
    assert "verdict[witness-colorable]: holds" in out
    assert "verdict[all-optima-colorable]: holds" in out


def test_verify_near_colorable_output():
    code, out, _ = run(
        "verify", "--claim", "near-colorable", "--graph", "gen:complete:6",
        "--forbid", "gen:complete:3", "--pattern", "K2", "--k", "3",
    )
    assert code == 0
    assert "deletions: 0" in out
    assert "verdict[deletion-distance]: holds" in out


def test_verify_prediction_table_output():
    code, out, _ = run(
        "verify", "--claim", "prediction", "--n-min", "4", "--n-max", "6",
        "--k", "3", "--m", "2", "--t", "1", "--forbid", "gen:complete:3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n exact prediction ratio"
    assert lines[1:4] == ["4 4 4 1", "5 6 25/4 24/25", "6 9 9 1"]
    assert "verdict[table-complete]: holds" in out


def test_scan_replay_round_trip(tmp_path):
    recfile = str(tmp_path / "runs.jsonl")
    scan_argv = (
        "scan", "--forbid", "gen:complete:3", "--pattern", "K2", "--k", "3",
        "--n", "5", "--fractions", "0,1/2", "--trials", "4", "--seed", "9",
        "--out", recfile,
    )
    code, out, _ = run(*scan_argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "fraction floor passing failing unknown rate"
    assert lines[1] == "0 0 3 1 0 3/4"
    assert lines[2] == "1/2 3 4 0 0 1"
    assert "verdict[completed]: holds" in out

    code, out, _ = run("replay", "--record", recfile, "--index", "0", "--threads", "8")
    assert code == 0
    assert out.endswith("threshold-scan: match\n")

    # a second record, then replay the whole file
    code, _, _ = run(
        "verify", "--claim", "dichotomy", "--graph", "gen:complete:5",
        "--forbid", "gen:complete:3", "--pattern", "K2", "--k", "3",
        "--gamma", "9/10", "--out", recfile,
    )
    assert code == 0
    code, out, _ = run("replay", "--record", recfile)
    assert code == 0
    assert out.count(": match") == 2

    # tampering with a stored result must surface as a mismatch
    stored = open(recfile).read().splitlines()
    blob = json.loads(stored[0])
    blob["results"]["fractions"][0]["passing"] = 99
    stored[0] = json.dumps(blob, sort_keys=True, separators=(",", ":"))
    open(recfile, "w").write("\n".join(stored) + "\n")
    code, out, _ = run("replay", "--record", recfile, "--index", "0")
    assert code == 1
    assert "MISMATCH" in out


def test_scan_stdout_is_thread_and_run_invariant():
    argv = (
        "scan", "--forbid", "gen:complete:3", "--pattern", "K2", "--k", "3",
        "--n", "5", "--fractions", "0", "--trials", "4", "--seed", "9",
    )
    first = run(*argv)
    second = run(*argv, "--threads", "8")
    assert first[0] == second[0] == 0
    assert first[1] == second[1]


def test_dichotomy_verify_output():
    code, out, _ = run(
        "verify", "--claim", "dichotomy", "--graph", "gen:complete:5",
        "--forbid", "gen:complete:3", "--pattern", "K2", "--k", "3",
        "--gamma", "9/10",
    )
    assert code == 0
    assert "optimum: 6" in out
    assert "maximal-subgraphs: 27" in out
    assert "verdict[frontier-complete]: holds" in out


def test_missing_required_verify_argument():
    code, _, err = run(
        "verify", "--claim", "dichotomy", "--graph", "gen:complete:5",
        "--forbid", "gen:complete:3", "--pattern", "K2", "--k", "3",
    )
    assert code == 1
    assert "gamma" in err


def test_replay_rejects_bad_records_and_indices(tmp_path):
    recfile, one = tmp_path / "runs.jsonl", tmp_path / "one.jsonl"
    code, out, err = run("replay", "--record", str(recfile))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "No such file" in err

    recfile.write_text('{"version":1}\n')
    code, out, err = run("replay", "--record", str(recfile))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "lacks field(s) experiment_id" in err

    code, _, _ = run(
        "verify", "--claim", "dichotomy", "--graph", "gen:complete:4",
        "--forbid", "gen:complete:3", "--pattern", "K2", "--k", "3",
        "--gamma", "1/2", "--out", str(one),
    )
    assert code == 0
    code, out, err = run("replay", "--record", str(one), "--index", "5")
    assert (code, out) == (1, "")
    assert err == f"error: --index 5 is out of range: {one} holds 1 record(s)\n"

    blob = json.loads(one.read_text())
    blob["version"] = 7
    recfile.write_text(json.dumps(blob) + "\n")
    code, out, err = run("replay", "--record", str(recfile))
    assert (code, out) == (1, "")
    assert "record version 7 is not supported" in err

    # version-1 records still replay
    code, out, _ = run("replay", "--record", str(one), "--index", "0")
    assert code == 0
    assert out.endswith("dichotomy: match\n")
