"""Command-line surface: output formats, exit codes, record files."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from exfree import cli, graphs, harness
from exfree.cli import main
from exfree.graph6 import to_graph6


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


def test_generate_out_appends_the_printed_line_encoded_once(tmp_path, monkeypatch):
    encoded = []
    monkeypatch.setattr(cli, "to_graph6", lambda g: encoded.append(g) or to_graph6(g))
    path = tmp_path / "hosts.g6"
    code, out, _ = run("generate", "--spec", "gen:gnp:30:0.5:1", "--out", str(path))
    assert code == 0
    assert len(encoded) == 1
    assert path.read_text() == out.splitlines()[0] + "\n"


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


def test_color_long_cycle_at_default_recursion_limit():
    import sys

    assert sys.getrecursionlimit() <= 1000
    code, out, err = run("color", "--graph", "gen:cycle:3000", "--colors", "2")
    assert (code, err) == (0, "")
    assert out == "yes\ncoloring: " + " ".join(str(v % 2) for v in range(3000)) + "\n"


def test_color_forced_vertices_and_huge_color_counts():
    # vertices 1..16 joined only to the last one, beside a triangle that it
    # touches twice: the canonical search settles the last vertex once it
    # has one color left, instead of trying every coloring of 1..16
    code, out, _ = run("color", "--graph", "g6:S??????????????????????A??C??J~~{", "--colors", "3")
    assert (code, out) == (0, "yes\ncoloring: 0" + " 1" * 17 + " 2 0\n")
    # no structure grows with the number of colors
    code, out, err = run("color", "--graph", "gen:complete:3", "--colors", "100000000")
    assert (code, out, err) == (0, "yes\ncoloring: 0 1 2\n", "")


def test_color_refuses_a_negative_budget():
    for argv in (("--colors", "3", "--budget", "-5"), ("--chromatic", "--budget", "-1")):
        code, out, err = run("color", "--graph", "gen:complete:4", *argv)
        assert (code, out) == (1, "")
        assert err == f"error: node budget must be >= 0, got {argv[-1]}\n"
    # a budget of 0 is spent by the first node
    code, out, _ = run("color", "--graph", "gen:complete:4", "--colors", "4", "--budget", "0")
    assert (code, out) == (2, "unknown\n")
    code, _, err = run("color", "--graph", "gen:complete:4", "--chromatic", "--budget", "0")
    assert (code, err) == (2, "budget exceeded: chromatic number undecided within budget\n")


def test_a_generic_pattern_past_the_counter_budget_exits_2_under_branch_and_bound():
    # the incumbent seed counts the 13-vertex pattern first and raises the
    # error the search itself would raise, with its message
    code, out, err = run("solve", "--graph", "gen:cycle:13", "--pattern", "g6:LhCGGC@?G?_@_@",
                         "--forbid", "gen:complete:3")
    assert (code, out) == (2, "")
    assert err == "budget exceeded: generic counting limited to 12 pattern vertices, got 13\n"


def test_solve_edge_budget_flags():
    k5 = ("solve", "--graph", "gen:complete:5", "--pattern", "K2", "--forbid", "gen:complete:3")
    code, out, err = run(*k5, "--bnb-edges", "9")
    assert (code, out) == (2, "")
    assert err == "budget exceeded: branch-and-bound engine limited to 9 edges, got 10\n"
    code, out, _ = run(*k5, "--bnb-edges", "10")
    assert code == 0
    assert out.splitlines()[:2] == ["count: 6", "proof: branch-and-bound"]
    # branch-and-bound is the one exact engine: choosing one, or the retired
    # exhaustive engine's budget, is a usage error
    for flags in (("--engine", "exhaustive"), ("--engine", "branch-and-bound"),
                  ("--exhaustive-edges", "9")):
        code, out, err = run(*k5, *flags)
        assert (code, out) == (1, ""), flags
        assert err.startswith("usage: exfree") and f"unrecognized arguments: {flags[0]}" in err
        assert "Traceback" not in err
    # the solve lines come first, then the tie budget stops the listing
    code, out, err = run(*k5, "--ties", "--ties-edges", "9")
    assert code == 2
    assert out.splitlines()[0] == "count: 6"
    assert "optima:" not in out
    assert err == "budget exceeded: tie enumeration limited to 9 edges, got 10\n"
    code, out, _ = run("solve", "--graph", "gen:complete:7", "--pattern", "K2",
                       "--forbid", "gen:complete:3", "--ties", "--ties-edges", "21")
    assert code == 0
    assert "optima: 35\n" in out


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


def test_a_reader_closing_stdout_early_is_not_an_error(tmp_path):
    # the read end of the pipe is closed before the child starts, so its
    # first write fails with EPIPE: exit 0 and nothing on stderr, not
    # "error: [Errno 32] Broken pipe" and exit 1
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "exfree", "solve", "--graph", "gen:complete:7",
             "--pattern", "K2", "--forbid", "gen:complete:3", "--ties", "--ties-edges", "21"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")
    # a record file that cannot be written is still bad input
    code, _, err = run("generate", "--spec", "gen:complete:3", "--out", str(tmp_path))
    assert code == 1 and err.startswith("error: "), err


def test_usage_errors_exit_one():
    # exit 2 means a budget-limited result, so a bad command line exits 1,
    # an old one passing a removed pruning flag included
    solve = ("solve", "--graph", "gen:complete:4", "--pattern", "K2", "--forbid", "gen:complete:3")
    for argv, message in (
        (solve + ("--rule-neighborhood",), "unrecognized arguments: --rule-neighborhood"),
        (solve + ("--no-rule-forbid",), "unrecognized arguments: --no-rule-forbid"),
        (("count", "--pattern", "K2"), "the following arguments are required: --graph"),
        (("bogus",), "argument command: invalid choice: 'bogus'"),
    ):
        code, out, err = run(*argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("usage: exfree") and f"error: {message}" in err, argv
    code, out, _ = run("--help")
    assert code == 0
    assert out.startswith("usage: exfree")


def test_rationals_refuse_exponents_before_building_them(monkeypatch):
    # Fraction("1e999999999") would build 10**999999999; the text is
    # refused before any value is computed, while integers, p/q and plain
    # decimals stay accepted
    built = []
    real = graphs.Fraction
    monkeypatch.setattr(graphs, "Fraction", lambda text: built.append(text) or real(text))
    for text in ("1e999999999", "1E5", "2e-3", "1.5e2"):
        code, out, err = run("formula", "sparse-bound", "--n", "12", "--d", "1/4", "--m", "2",
                             "--t", "2", "--eps", text)
        assert (code, out) == (1, ""), text
        assert err.startswith("usage: exfree") and f"not a rational: {text!r}" in err, text
    code, _, err = run("scan", "--forbid", "gen:complete:3", "--k", "3", "--n", "4",
                       "--pattern", "K2", "--fractions", "1/2,1e999999999", "--trials", "1")
    assert code == 1 and "not a rational: '1e999999999'" in err
    assert "1e999999999" not in "".join(built)
    for text, want in (("3", Fraction(3)), ("2/5", Fraction(2, 5)),
                       ("0.1", Fraction(1, 10)), ("-0.25", Fraction(-1, 4))):
        assert cli._fraction(text) == want, text


def test_generator_literals_refuse_exponents():
    for text in ("1e999999999", "1e-999999999"):
        code, out, err = run("generate", "--spec", f"gen:min_degree_random:9:{text}:1")
        assert (code, out) == (1, ""), text
        assert err.startswith("error: bad min_degree_random arguments"), text


def test_empty_fraction_list_and_small_k_exit_1():
    # an empty scan would record a vacuous "holds"; k < 2 would record a
    # refutation of 0-colorability
    scan = ("scan", "--forbid", "gen:complete:3", "--n", "4", "--pattern", "K2",
            "--trials", "1", "--seed", "1")
    code, out, err = run(*scan, "--k", "3", "--fractions", ",")
    assert (code, out) == (1, "") and "at least one degree fraction" in err
    for k in ("1", "0"):
        code, out, err = run(*scan, "--k", k, "--fractions", "1")
        assert (code, out) == (1, "") and "k must be at least 2" in err
    code, out, err = run("verify", "--claim", "extremal-colorable", "--graph", "gen:complete:4",
                         "--forbid", "gen:complete:3", "--k", "1")
    assert (code, out) == (1, "") and "k must be at least 2" in err


def test_replay_reports_a_forged_experiment_id(tmp_path):
    records = tmp_path / "scan.jsonl"
    assert run(
        "scan", "--forbid", "gen:complete:3", "--k", "3", "--n", "4", "--pattern", "K2",
        "--fractions", "1/2", "--trials", "2", "--seed", "1", "--out", str(records),
    )[0] == 0
    blob = json.loads(records.read_text())
    code, out, _ = run("replay", "--record", str(records))
    assert (code, out) == (0, f"{blob['experiment_id']} threshold-scan: match\n")
    blob["experiment_id"] = "0000000000000000"
    records.write_text(json.dumps(blob) + "\n")
    code, out, _ = run("replay", "--record", str(records))
    assert (code, out) == (1, "0000000000000000 threshold-scan: MISMATCH\n")


def test_main_reuses_one_parser_without_leaking_state(monkeypatch):
    built = []
    fresh_parser = cli.build_parser

    def counted():
        built.append(1)
        return fresh_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    solve = ("solve", "--graph", "gen:complete:5", "--pattern", "K3", "--forbid", "gen:complete:4")
    commands = [
        ("solve", "--bogus"),
        ("--help",),
        solve + ("--ties",),
        solve,
        # --pattern left to its default, K2, after commands that gave K3
        ("verify", "--claim", "near-colorable", "--graph", "gen:complete:5",
         "--forbid", "gen:complete:3", "--k", "3"),
    ]
    alone = []
    for argv in commands:
        monkeypatch.setattr(cli, "_parser", None)
        alone.append(run(*argv)[:2])
    assert [code for code, _ in alone] == [1, 0, 0, 0, 0]
    assert "optima:" in alone[2][1] and "optima:" not in alone[3][1]
    assert "optimum: 6\n" in alone[4][1]  # the edges of a 5-vertex triangle-free graph

    monkeypatch.setattr(cli, "_parser", None)
    built.clear()
    order = [0, 2, 1, 3, 4, 2, 3, 0, 4]
    assert [run(*commands[i])[:2] for i in order] == [alone[i] for i in order]
    assert len(built) == 1


def test_budget_exhaustion_exits_two():
    code, _, err = run(
        "solve", "--graph", "gen:complete:9", "--pattern", "K2",
        "--forbid", "gen:complete:3", "--bnb-edges", "35",
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


def test_empty_prediction_range_is_refused(tmp_path):
    # n-max below n-min leaves no row: exit 1, not "holds" over an empty
    # table; a record whose n_range was emptied is refused on replay too
    args = ("verify", "--claim", "prediction", "--k", "3", "--m", "2",
            "--forbid", "gen:complete:3")
    code, out, err = run(*args, "--n-min", "5", "--n-max", "4")
    assert (code, out, err) == (1, "", "error: need at least one host size n\n")
    recfile = tmp_path / "prediction.jsonl"
    assert run(*args, "--n-min", "4", "--n-max", "4", "--out", str(recfile))[0] == 0
    blob = json.loads(recfile.read_text())
    blob["spec"]["n_range"] = []
    recfile.write_text(json.dumps(blob) + "\n")
    code, out, err = run("replay", "--record", str(recfile))
    assert (code, out, err) == (1, "", "error: need at least one host size n\n")


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


def test_replay_index_parses_only_the_selected_record(tmp_path):
    # --index decodes and parses only the record it replays, so corrupt
    # lines elsewhere, one of them not even ASCII, leave it replayable;
    # replaying the whole file, or a corrupt record, names the bad line
    one = tmp_path / "one.jsonl"
    assert run(
        "verify", "--claim", "dichotomy", "--graph", "gen:complete:4",
        "--forbid", "gen:complete:3", "--pattern", "K2", "--k", "3",
        "--gamma", "1/2", "--out", str(one),
    )[0] == 0
    recfile = tmp_path / "runs.jsonl"
    recfile.write_bytes(b'{"version":\n\n' + one.read_bytes() + b"\xff not a record\n")
    for index in ("1", "-2"):
        code, out, err = run("replay", "--record", str(recfile), "--index", index)
        assert (code, err) == (0, ""), index
        assert out == run("replay", "--record", str(one))[1], index
        assert out.endswith(": match\n"), index
    code, out, err = run("replay", "--record", str(recfile))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {recfile} line 1: ")
    code, out, err = run("replay", "--record", str(recfile), "--index", "2")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {recfile} line 4: ")
    code, out, err = run("replay", "--record", str(recfile), "--index", "-4")
    assert (code, out) == (1, "")
    assert err == f"error: --index -4 is out of range: {recfile} holds 3 record(s)\n"


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

    # every top-level field present, but the spec damaged: a dichotomy, a
    # scan and an extremal-colorable record, so every codec sees bad input
    scan, extremal = tmp_path / "scan.jsonl", tmp_path / "extremal.jsonl"
    assert run(
        "scan", "--forbid", "gen:complete:3", "--k", "3", "--n", "4", "--pattern", "K2",
        "--fractions", "1/2", "--trials", "2", "--seed", "1", "--out", str(scan),
    )[0] == 0
    assert run(
        "verify", "--claim", "extremal-colorable", "--graph", "gen:complete:4",
        "--forbid", "gen:complete:3", "--k", "3", "--eps", "1/2", "--out", str(extremal),
    )[0] == 0
    blobs = {path: json.loads(path.read_text()) for path in (one, scan, extremal)}

    def spec_with(path, **fields):
        return {**blobs[path], "spec": {**blobs[path]["spec"], **fields}}

    def budgets_with(path, **fields):
        return spec_with(path, budgets={**blobs[path]["spec"]["budgets"], **fields})

    for blob, message in (
        ({**blobs[one], "spec": {}}, "spec lacks field 'budgets'"),
        (spec_with(one, host=5), "spec is malformed"),
        ({**blobs[one], "spec": {"budgets": {"no_such_budget": 1}}}, "spec is malformed"),
        (spec_with(one, k="3"), "spec is malformed: k must be"),
        (spec_with(one, gamma="1/0"), "spec is malformed: gamma must be a rational"),
        (spec_with(one, gamma=[1]), "spec is malformed: gamma must be a string"),
        (spec_with(one, gamma="1e3"), "spec is malformed: gamma must be a rational"),
        (budgets_with(one, ties_edges="x"), "spec is malformed: budgets.ties_edges must be"),
        (budgets_with(one, ties_edges=1.5), "spec is malformed: budgets.ties_edges must be"),
        (budgets_with(one, bnb_edges="9"), "spec is malformed: budgets.bnb_edges must be"),
        # the retired exhaustive engine's keys are read as integers too
        (budgets_with(one, exhaustive_edges="28"),
         "spec is malformed: budgets.exhaustive_edges must be"),
        (budgets_with(extremal, auto_exhaustive_max=1.5),
         "spec is malformed: budgets.auto_exhaustive_max must be"),
        (spec_with(extremal, engine=7), "spec is malformed: engine must be a string"),
        ({**blobs[extremal], "spec": {key: value for key, value in blobs[extremal]["spec"].items()
                                      if key != "engine"}}, "spec lacks field 'engine'"),
        (spec_with(scan, fractions=["1/0"]), "spec is malformed: fractions entry must be"),
        (spec_with(scan, fractions=[1]), "spec is malformed: fractions entry must be"),
        (spec_with(scan, fractions="1/2"), "spec is malformed: fractions must be a list"),
        (spec_with(extremal, eps="1/0"), "spec is malformed: eps must be a rational"),
        (spec_with(extremal, eps=[1]), "spec is malformed: eps must be a string"),
        # the scan's own checks run on replay too
        (spec_with(scan, trials=0), "need at least one trial per fraction, got 0"),
        (spec_with(scan, fractions=["3/2"]), "degree fraction 3/2 outside [0, 1]"),
        ({**blobs[one], "kind": ["dichotomy"]}, "unknown record kind ['dichotomy']"),
    ):
        recfile.write_text(json.dumps(blob) + "\n")
        code, out, err = run("replay", "--record", str(recfile))
        assert (code, out) == (1, ""), message
        assert err.startswith("error: record " if "spec" in message else "error: "), err
        assert message in err, err

    # version-1 records still replay
    code, out, _ = run("replay", "--record", str(one), "--index", "0")
    assert code == 0
    assert out.endswith("dichotomy: match\n")


# two version-1 records written while auto picked the exhaustive engine up
# to 14 host edges: K2 under K3 on K7 (21 edges, branch-and-bound) and on
# K4 (6 edges, whose proof named the exhaustive engine)
V1_BNB_RECORD = (
    '{"experiment_id":"932d3bd7c6852586","kind":"near-colorable",'
    '"results":{"deletion_ratio_to_n2":"0","deletions":0,"n":7,"partite_exact":true,'
    '"partite_kept_edges":12,"partition":[[0,0],[1,1],[2,1],[3,1],[4,1],[5,0],[6,0]],'
    '"solve":{"all_optima_colorable":null,"num_optima":null,"optimum":12,'
    '"proof":"branch-and-bound","status":"ok","ties_checked":false,"witness":{"edges":[[0,'
    '1],[0,2],[0,3],[0,4],[1,5],[1,6],[2,5],[2,6],[3,5],[3,6],[4,5],[4,6]],'
    '"graph6":"Fs`zo"},"witness_colorable":true,"witness_coloring":[0,1,1,1,1,0,0]},'
    '"witness_edges_total":12},"spec":{"budgets":{"auto_exhaustive_max":14,"bnb_edges":60,'
    '"exhaustive_edges":28,"ls_moves_per_vertex":10,"ls_restarts":20,"partite_exact_n":14,'
    '"ties_edges":16},"engine":"auto","forbidden":"Bw","host":"F~~~w","k":3,'
    '"pattern":"K2"},"timings":{"total_s":0.0017846219998318702},'
    '"verdicts":{"deletion-distance":"holds","within-edge-bound":"holds"},"version":1}'
)
V1_EXHAUSTIVE_RECORD = (
    '{"experiment_id":"8fda557b784f0e8b","kind":"extremal-colorable",'
    '"results":{"chi_forbidden":3,"chi_matches_k":true,"critical_edge":[0,1],'
    '"forbidden_edge_critical":true,"host_count":6,"host_edges":6,"hypothesis_met":null,'
    '"min_degree":3,"n":4,"rebuild_count":4,"rebuild_notes":[],'
    '"solve":{"all_optima_colorable":true,"num_optima":3,"optimum":4,"proof":"exhaustive",'
    '"status":"ok","ties_checked":true,"witness":{"edges":[[0,1],[0,2],[1,3],[2,3]],'
    '"graph6":"Cr"},"witness_colorable":true,"witness_coloring":[0,1,1,0]}},'
    '"spec":{"budgets":{"auto_exhaustive_max":14,"bnb_edges":60,"exhaustive_edges":28,'
    '"ls_moves_per_vertex":10,"ls_restarts":20,"partite_exact_n":14,"ties_edges":16},'
    '"engine":"auto","eps":null,"forbidden":"Bw","host":"C~","k":3,"pattern":"K2"},'
    '"timings":{"total_s":0.0010621099936543033},'
    '"verdicts":{"all-optima-colorable":"holds","witness-colorable":"holds"},"version":1}'
)


def test_version_1_records_replay_under_one_exact_engine(tmp_path):
    # every spec still writes the exhaustive engine's two budget keys and
    # engine "auto", so a branch-and-bound record keeps its id and matches;
    # a record whose proof says exhaustive keeps its id but no longer
    # matches, since its host is now solved by branch-and-bound
    recfile = tmp_path / "v1.jsonl"
    recfile.write_text(V1_BNB_RECORD + "\n" + V1_EXHAUSTIVE_RECORD + "\n")
    code, out, err = run("replay", "--record", str(recfile))
    assert (code, err) == (1, "")
    assert out == ("932d3bd7c6852586 near-colorable: match\n"
                   "8fda557b784f0e8b extremal-colorable: MISMATCH\n")
    old = harness.ExperimentRecord.from_json_line(V1_EXHAUSTIVE_RECORD)
    same, fresh = harness.replay(old)
    assert not same and fresh.experiment_id == old.experiment_id
    assert (old.results["solve"]["proof"], fresh.results["solve"]["proof"]) == (
        "exhaustive", "branch-and-bound")
    # the proof label is the whole difference
    fresh.results["solve"]["proof"] = "exhaustive"
    assert fresh.comparable() == old.comparable()


def test_replay_refuses_budgets_local_search_cannot_run(tmp_path):
    # records carry their budgets; with partite_exact_n 0 the rebuild
    # partitions by local search, which needs a restart and no negative
    # move count
    recfile, bad = tmp_path / "extremal.jsonl", tmp_path / "bad.jsonl"
    assert run(
        "verify", "--claim", "extremal-colorable", "--graph", "gen:complete:6",
        "--forbid", "gen:complete:3", "--pattern", "K2", "--k", "3", "--out", str(recfile),
    )[0] == 0
    blob = json.loads(recfile.read_text())
    for field, value in (("ls_restarts", 0), ("ls_moves_per_vertex", -1)):
        budgets = {**blob["spec"]["budgets"], "partite_exact_n": 0, field: value}
        bad.write_text(json.dumps({**blob, "spec": {**blob["spec"], "budgets": budgets}}) + "\n")
        code, out, err = run("replay", "--record", str(bad), "--index", "0")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"error: record {blob['experiment_id']} spec is malformed: ")
        assert f"{field} must be >= " in err


def test_count_accepts_patterns_at_the_generic_vertex_budget():
    # 11- and 12-vertex patterns: |Aut| comes from orbit-stabilizer
    for n, g6 in ((11, "JhCGGC@?K?_"), (12, "KhCGGC@?G?o@")):
        assert run("count", "--graph", f"gen:cycle:{n}", "--pattern", "g6:" + g6)[:2] == (0, "1\n")
    code, _, err = run("count", "--graph", "gen:cycle:13", "--pattern", "g6:LhCGGC@?G?_@_@")
    assert code == 2 and "generic counting limited to 12" in err
