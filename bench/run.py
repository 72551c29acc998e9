"""Benchmark runner for the exfree package.

    python3 bench/run.py --workload exact-clique --seed 1 --seconds 30 --trace 0

Runs one workload's ops (see workloads.py) in this process through
``exfree.cli.main(argv)`` with stdout captured, checks every op's output,
and prints one JSON object as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 repeats the op batch while another batch fits in --seconds and
reports the end-to-end metrics from each op's fastest batch, with every
time scaled to a reference machine speed (see calibrate). --trace 1 runs the batch once untraced and
once traced and reports the per-layer metrics. The package is imported from
``src/`` next to this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 9
# time of calibrate() on the machine the benchmark was tuned on (2 cores,
# Python 3.11): scaled times read as seconds at that speed
CAL_REF_S = 0.003
DIGESTS = BENCH / "digests.json"
RUN_DIR = ROOT / ".bench_run"


def import_package():
    """Import exfree from this checkout's src/, or exit 2 without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import exfree
    except ImportError as exc:
        print(f"cannot import exfree from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not Path(exfree.__file__).resolve().is_relative_to(src.resolve()):
        print(f"exfree imported from {exfree.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return exfree


# ---------------------------------------------------------------------------
# running ops


@dataclass
class OpResult:
    label: str
    wall_s: float
    cal_s: float  # calibrate() just before the op
    rc: int | None
    stdout: str
    error: str | None = None  # set when the op failed

    @property
    def scaled_s(self) -> float:
        return self.wall_s * CAL_REF_S / self.cal_s

    @property
    def digest(self) -> str:
        return hashlib.sha256(f"{self.rc}\n{self.stdout}".encode()).hexdigest()[:16]


@dataclass
class Pass:
    results: list[OpResult] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)


def calibrate() -> float:
    """Wall time of a fixed interpreter-bound loop on big integers.

    The machine is shared: other tenants slow every op down by up to a
    factor of two for seconds at a time, with CPU time tracking wall time.
    The loop slows with them, so an op's wall time times CAL_REF_S over the
    loop time measured just before it is the op's time at the reference
    speed. The loop calls nothing from the package.
    """
    t0 = time.perf_counter()
    x, mask = 1, (1 << 256) - 1
    for i in range(6000):
        x = (x * 2654435761 + i) & mask
        x ^= x >> 7
        i += (x & 0xFFFF).bit_count()
    return time.perf_counter() - t0


def run_op(main, argv: list[str]) -> tuple[float, int | None, str, str | None]:
    """Call main(argv) with stdout and stderr captured. Returns wall time,
    exit code, stdout and an error string when it raised or exited non-zero."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"raised {type(exc).__name__}: {str(exc)[:200]}"
    wall = time.perf_counter() - t0
    if error is None and rc != 0:
        error = f"exit code {rc}: {err.getvalue().strip()[:200]}"
    if error is None and "MISMATCH" in out.getvalue():
        error = "printed MISMATCH"
    return wall, rc, out.getvalue(), error


def run_pass(ops, main, tmp: str, runner=run_op) -> Pass:
    """Run every op once, in order, in the empty directory tmp, each through
    runner(main, argv) (the traced pass puts an op span around run_op)."""
    outputs: dict[str, str] = {}
    p = Pass()
    for op in ops:
        cal = calibrate()
        wall, rc, stdout, error = runner(main, op.resolve(outputs))
        outputs[op.label] = stdout.replace(tmp, "<tmp>")
        p.results.append(OpResult(op.label, wall, cal, rc, outputs[op.label], error))
    return p


def fresh(tmp: Path) -> str:
    """Empty the run's own record directory before a batch."""
    shutil.rmtree(tmp)
    tmp.mkdir()
    return str(tmp)


def check_pass(ops, p: Pass, reference: dict[str, str] | None) -> None:
    """Run every op's check; a failed check marks the op failed. reference
    maps labels to the stdout digests this pass must reproduce."""
    outputs = {r.label: r.stdout for r in p.results}
    for op, r in zip(ops, p.results):
        if r.error is not None:
            continue
        try:
            op.check(r.stdout, outputs)
        except Exception as exc:  # CheckFailed, or a check tripping on bad output
            r.error = f"check failed: {type(exc).__name__}: {str(exc)[:200]}"
            continue
        if reference is not None and reference.get(r.label) != r.digest:
            r.error = "stdout digest differs from the reference"


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it. With 40 values, p75 leaves ten above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def fail_ratio(passes: list[Pass]) -> tuple[int, int]:
    """(attempted, failed) over every op run in every pass."""
    results = [r for p in passes for r in p.results]
    return len(results), sum(r.error is not None for r in results)


# ---------------------------------------------------------------------------
# set-up time


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that start the interpreter, import
    exfree and generate the workload's inputs, then exit; each scaled by the
    median of five calibrate() taken just before it (one probe is as long as
    hundreds of ops, so it gets a steadier scale)."""
    walls = []
    for _ in range(SETUP_PROBES):
        scale = CAL_REF_S / statistics.median(calibrate() for _ in range(5))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
        )
        walls.append((time.perf_counter() - t0) * scale)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-300:]}")
    return walls


def peak_rss_mib() -> float:
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, child_kib) / 1024


# ---------------------------------------------------------------------------
# known defects


def run_known_defects(workload: str, main, known, check) -> tuple[int, int]:
    """Run the workload's documented-defect ops once. Returns (still
    failing, fixed but wrong); each is reported, none is a timed op."""
    failing = wrong = 0
    for label, argv in known.get(workload, {}).items():
        _, _, stdout, error = run_op(main, argv)
        if error is None:
            try:
                check(stdout)
                print(f"known defect {label}: fixed")
            except Exception as exc:
                wrong += 1
                print(f"known defect {label}: exits 0 but {exc}", file=sys.stderr)
        else:
            failing += 1
            print(f"known defect {label}: still fails ({error})")
    return failing, wrong


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and generate inputs, then exit (set-up probe)")
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's stdout digests as the reference (seed 0)")
    args = ap.parse_args(argv)

    import_package()
    import workloads
    from exfree import cli

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.record_digests and args.seed != workloads.DEFAULT_SEED:
        ap.error(f"--record-digests needs --seed {workloads.DEFAULT_SEED}")
    RUN_DIR.mkdir(exist_ok=True)
    tmp = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir()
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, str(tmp))
        if args.setup_only:
            return 0
        reference = None
        if args.seed == workloads.DEFAULT_SEED and not args.record_digests:
            reference = json.loads(DIGESTS.read_text())[args.workload]
        if args.trace:
            result = traced_run(args, ops, cli, tmp, reference)
        else:
            result = timed_run(args, ops, cli, tmp, reference,
                               measure_setup(args.workload, args.seed))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return finish(args, workloads, cli, result)


@dataclass
class Result:
    passes: list[Pass]
    metrics: dict[str, tuple[float, str, int]]  # name -> (value, unit, samples)


def timed_run(args, ops, cli, tmp, reference, setup_walls) -> Result:
    deadline = time.perf_counter() + args.seconds
    passes: list[Pass] = []
    while True:
        p = run_pass(ops, cli.main, fresh(tmp))
        check_pass(ops, p, reference if not passes else _digests(passes[0]))
        passes.append(p)
        if time.perf_counter() + p.wall_s > deadline:
            break
    # Other tenants of the machine only ever slow an op down, and they come
    # and go within seconds, so each op's latency is its fastest batch.
    per_op = [min(p.results[i].scaled_s for p in passes) for i in range(len(ops))]
    cals = [r.cal_s for p in passes for r in p.results]
    print(f"unscaled: fastest batch {min(p.wall_s for p in passes):.4f} s; "
          f"calibrate() median {statistics.median(cals):.6f} s, reference {CAL_REF_S} s")
    m = {
        "wall_s": (sum(per_op), "s", len(passes)),
        "op_p50_s": (percentile(per_op, 50), "s", len(per_op)),
        "op_p75_s": (percentile(per_op, 75), "s", len(per_op)),
        "setup_s": (statistics.median(setup_walls), "s", len(setup_walls)),
        "peak_rss_mib": (peak_rss_mib(), "MiB", 1),
    }
    return Result(passes, m)


def _digests(p: Pass) -> dict[str, str]:
    return {r.label: r.digest for r in p.results}


def traced_run(args, ops, cli, tmp, reference) -> Result:
    import layers

    plain = run_pass(ops, cli.main, fresh(tmp))
    check_pass(ops, plain, reference)
    tracer, restore, side = layers.install()
    try:
        traced = run_pass(ops, cli.main, fresh(tmp),
                          runner=lambda main, argv: tracer.span("cli", run_op, main, argv))
    finally:
        restore()
    check_pass(ops, traced, _digests(plain))
    m = layers.metrics(tracer, side, plain, traced)
    layers.write_spans(tracer, RUN_DIR / f"trace-{args.workload}-{args.seed}.json")
    return Result([plain, traced], m)


def finish(args, workloads, cli, result: Result) -> int:
    failing, wrong = run_known_defects(
        args.workload, cli.main, workloads.KNOWN_DEFECTS, workloads.check_known_defect
    )
    if args.trace:
        result.metrics["known_defects.failing"] = (failing, "count", 1)
    attempted, failed = fail_ratio(result.passes)
    failed += wrong
    for p in result.passes:
        for r in p.results:
            if r.error is not None:
                print(f"FAILED {r.label}: {r.error}", file=sys.stderr)
    if args.record_digests:
        stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        stored[args.workload] = _digests(result.passes[0])
        DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    ops = len(result.passes[0].results)
    print(f"workload {args.workload} seed {args.seed}: {ops} ops x {len(result.passes)} passes, "
          f"{failed} of {attempted} failed (fail_ratio {failed / attempted:.4f})")
    for name, (value, unit, samples) in result.metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit:6s} n={samples}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
