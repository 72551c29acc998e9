"""Self-test of the benchmark's own logic (stdlib only, a few seconds).

    python3 bench/selftest.py
"""

from __future__ import annotations

import sys
import tempfile
import threading
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from tracer import CALLS, SELF, TOTAL, Tracer, union_length  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)

        def leaf():
            clock.now += 1  # 3 -> 4

        def middle():
            clock.now += 1  # 2 -> 3
            traced_leaf()
            clock.now += 1  # 4 -> 5

        def op():
            clock.now += 2  # 0 -> 2
            traced_middle()
            traced_middle()  # 5 -> 8
            clock.now += 2  # 8 -> 10

        traced_leaf = tr.wrap("leaf", leaf)
        traced_middle = tr.wrap("middle", middle)
        tr.span("op", op)
        tot = tr.totals()
        self.assertEqual(tot["op"][TOTAL], 10)
        self.assertEqual(tot["op"][SELF], 4)
        self.assertEqual(tot["middle"][CALLS], 2)
        self.assertEqual(tot["middle"][TOTAL], 6)
        self.assertEqual(tot["middle"][SELF], 4)
        self.assertEqual(tot["leaf"][SELF], 2)
        # op and its layer entries are kept; the leaves (depth 2) are not
        self.assertEqual(sorted(s.name for s in tr.spans), ["middle", "middle", "op"])

    def test_worker_threads_inside_a_region(self):
        clock = FakeClock()
        cpu = {"a": 0.0, "b": 0.0}  # per-thread CPU: each worker runs 1.5 s

        def cpu_clock():
            return cpu[threading.current_thread().name]

        tr = Tracer(regions=["harness.scan"], clock=clock, cpu_clock=cpu_clock)
        entered = {"a": threading.Event(), "b": threading.Event()}
        go = {"a": threading.Event(), "b": threading.Event()}

        def work(name):
            entered[name].set()
            go[name].wait(10)
            cpu[name] += 1.5

        traced_work = tr.wrap("solver.solve", work)

        def scan():
            threads = {}
            for name, start in (("a", 1), ("b", 3)):
                clock.now = start
                threads[name] = threading.Thread(target=traced_work, args=(name,), name=name)
                threads[name].start()
                self.assertTrue(entered[name].wait(10))
            for name, end in (("a", 5), ("b", 7)):
                clock.now = end
                go[name].set()
                threads[name].join(10)
                self.assertFalse(threads[name].is_alive())
            clock.now = 8

        tr.span("cli", tr.wrap("harness.scan", scan))
        tot = tr.totals()
        # worker spans [1,5] and [3,7] overlap: they cover 6 of the scan's 8
        self.assertEqual(tot["harness.scan"][TOTAL], 8)
        self.assertEqual(tot["harness.scan"][SELF], 2)
        self.assertEqual(tot["solver.solve"][CALLS], 2)
        self.assertEqual(tot["solver.solve"][SELF], 8)
        # the overlap counts worker CPU time, not wall time spent waiting
        self.assertEqual(tr.region_child_s["harness.scan"], {"solver.solve": 3})
        self.assertEqual(tr.region_wall_s["harness.scan"], 8)
        # the scan is a child of the op span on the main thread
        self.assertEqual(tot["cli"][SELF], 0)

    def test_union_length(self):
        self.assertEqual(union_length([]), 0)
        self.assertEqual(union_length([(0, 2), (1, 3), (5, 6)]), 4)
        self.assertEqual(union_length([(0, 10, "x"), (2, 3, "y")]), 10)


class Percentile(unittest.TestCase):
    def test_pick_at_40_ops(self):
        values = list(range(40, 0, -1))
        self.assertEqual(run.percentile(values, 50), 20)
        p75 = run.percentile(values, 75)
        self.assertEqual(p75, 30)
        self.assertEqual(sum(v > p75 for v in values), 10)


class FailRatio(unittest.TestCase):
    def test_raise_exit_mismatch_and_failed_check(self):
        def fake_main(argv):
            kind = argv[0]
            if kind == "raise":
                raise RecursionError("deep")
            print("out", kind)
            if kind == "mismatch":
                print("abc: MISMATCH")
            return 1 if kind == "exit" else 0

        def bad_check(out, outputs):
            raise CheckFailed("wrong")

        def ok_check(out, outputs):
            pass

        ops = [workloads.Op(k, [k], bad_check if k == "badcheck" else ok_check)
               for k in ("ok", "raise", "badcheck", "exit", "mismatch", "ok2")]
        with tempfile.TemporaryDirectory() as tmp:
            p = run.run_pass(ops, fake_main, tmp)
        run.check_pass(ops, p, None)
        self.assertEqual(run.fail_ratio([p]), (6, 4))
        errors = {r.label: r.error for r in p.results}
        self.assertIsNone(errors["ok"])
        self.assertIn("RecursionError", errors["raise"])
        self.assertIn("check failed", errors["badcheck"])
        self.assertIn("exit code 1", errors["exit"])
        self.assertIn("MISMATCH", errors["mismatch"])
        # a digest that differs from the reference fails the op too
        with tempfile.TemporaryDirectory() as tmp:
            p2 = run.run_pass(ops[:1], fake_main, tmp)
        run.check_pass(ops[:1], p2, {"ok": "0" * 16})
        self.assertEqual(run.fail_ratio([p2]), (1, 1))


class SeedDeterminism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, build in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                first = [op.argv for op in build(3, "TMP")]
                again = [op.argv for op in build(3, "TMP")]
                other = [op.argv for op in build(4, "TMP")]
                plain = [a for a in first if not callable(a)]
                self.assertEqual(plain, [a for a in again if not callable(a)])
                self.assertNotEqual(plain, [a for a in other if not callable(a)])
                self.assertGreaterEqual(len(first), 40)


if __name__ == "__main__":
    unittest.main()
