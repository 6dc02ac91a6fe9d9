#!/usr/bin/env python3
"""Tests of the benchmark itself: metric names, sampler attribution and the
compare tool. Run from the repository root:

    python3 perfbench/test_perfbench.py

The sampler tests build perfbench_runner the way run.py does (into
$CARGO_TARGET_DIR, default .bench_build) and run its self-test loops.
"""

import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402
import run  # noqa: E402


def scratch_dir():
    os.makedirs(run.build_dir(), exist_ok=True)
    return tempfile.mkdtemp(prefix="perfbench-test-", dir=run.build_dir())


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()
        self.e2e = [m["name"] for m in self.spec["end_to_end"]]
        self.layer = [m["name"] for m in self.spec["per_layer"]]

    def test_declared_names_are_well_formed_unique_and_few(self):
        names = self.e2e + self.layer
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertTrue(run.NAME_RE.match(name), name)
        self.assertLessEqual(len(self.e2e), 16)
        self.assertLessEqual(len(self.layer), 128)

    def test_end_to_end_set(self):
        self.assertEqual(set(self.e2e), {"host_us_per_op", "setup_s",
                                         "peak_rss_mb", "completed_op_ratio"})
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = next(m for m in self.spec["end_to_end"]
                     if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))

    def test_check_names_reports_both_directions(self):
        problems = run.check_names({"a": 1, "b c": 2}, {"a", "d"})
        self.assertIn("undeclared metric b c", problems)
        self.assertIn("declared metric not emitted d", problems)
        self.assertIn("bad metric name b c", problems)
        self.assertEqual(run.check_names({"a": 1}, {"a"}), [])

    def test_emitted_names_match_declared_in_both_modes(self):
        # run.py fails the run (correct=false, exit 1) on any mismatch. The
        # two modes must also agree on the workload's result digest.
        digests = set()
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
                 "--workload", "paper_sweep", "--seed", "7",
                 "--seconds", "0.1", "--trace", str(trace)],
                cwd=run.ROOT, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True)
            self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                              "metrics"])
            self.assertTrue(result["correct"])
            declared = self.layer if trace else self.e2e
            self.assertEqual(set(result["metrics"]), set(declared))
            digests.update(w.split("=", 1)[1] for w in proc.stdout.split()
                           if w.startswith("digest="))
        self.assertEqual(len(digests), 1, digests)


class Sampler(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()
        cls.tmp = scratch_dir()
        cls.dumps = {}
        for loop in ("selftest_aes", "selftest_libc"):
            path = os.path.join(cls.tmp, loop + ".stacks")
            subprocess.run([cls.exe, "--workload", loop, "--seconds", "3",
                            "--stacks", path], check=True,
                           stdout=subprocess.DEVNULL)
            with open(path) as f:
                cls.dumps[loop] = f.read()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def test_aes_loop_lands_in_crypto(self):
        metrics, _ = run.profile_from_dump(self.exe, self.dumps["selftest_aes"])
        self.assertEqual(metrics["profile.reliable"], 1.0)
        self.assertGreaterEqual(metrics["crypto.self_pct"], 90.0)

    def test_libc_samples_land_in_runtime_or_src_caller(self):
        stacks = run.parse_stacks(self.dumps["selftest_libc"])
        offsets = [f for _p, _c, fr in stacks for f in fr if f is not None]
        symbols = run.symbolise(self.exe, offsets)
        in_libc = [s for s in stacks if s[2][0] is None]
        buckets, _fns, libc_total = run.attribute(in_libc, symbols,
                                                  run.src_modules())
        _b, _f, total = run.attribute(stacks, symbols, run.src_modules())
        # The loop is memmove under sc::appendBytes: most samples are in libc.
        self.assertGreaterEqual(libc_total, total / 2)
        self.assertEqual(set(buckets) - {"util", "runtime"}, set())
        # The unwinder finds the src/ caller for most of them.
        self.assertGreaterEqual(buckets.get("util", 0), 0.9 * libc_total)

    def test_too_few_samples_is_unreliable(self):
        lines = self.dumps["selftest_aes"].splitlines()
        few = "\n".join(lines[:3])
        metrics, _ = run.profile_from_dump(self.exe, few)
        self.assertLess(metrics["profile.samples"], run.MIN_SAMPLES)
        self.assertEqual(metrics["profile.reliable"], 0.0)

    def test_missing_debug_info_is_unreliable(self):
        stripped = os.path.join(self.tmp, "runner.nodebug")
        subprocess.run(["objcopy", "--strip-debug", self.exe, stripped],
                       check=True)
        metrics, _ = run.profile_from_dump(stripped,
                                           self.dumps["selftest_aes"])
        self.assertEqual(metrics["profile.reliable"], 0.0)
        self.assertEqual(metrics["crypto.self_pct"], 0.0)

    def test_end_to_end_metrics_ignore_the_profile(self):
        # The e2e metrics are a function of the runner's result alone.
        res = {"attempted": 200, "failed": 4, "host_us_per_op": 12.5,
               "setup_s": 0.002, "peak_rss_mb": 9.5}
        self.assertEqual(run.e2e_metrics(res), {
            "host_us_per_op": 12.5, "setup_s": 0.002, "peak_rss_mb": 9.5,
            "completed_op_ratio": 0.98})


def fake_run(host_us, setup_s=0.001, correct=True):
    return {"correct": correct, "attempted": 100, "failed": 0, "metrics": {
        "host_us_per_op": {"value": host_us, "unit": "us"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": 8.0, "unit": "MiB"},
        "completed_op_ratio": {"value": 1.0, "unit": "ratio"}}}


class CompareTool(unittest.TestCase):
    def setUp(self):
        self.tmp = scratch_dir()

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def write_set(self, name, runs):
        d = tempfile.mkdtemp(prefix=name, dir=self.tmp)
        with open(os.path.join(d, "paper_sweep.trace0.jsonl"), "w") as f:
            for r in runs:
                f.write(json.dumps(r) + "\n")
        return d

    def verdict(self, a_vals, b_vals, setup_b=0.001):
        a = self.write_set("a", [fake_run(v) for v in a_vals])
        b = self.write_set("b", [fake_run(v, setup_b) for v in b_vals])
        out = io.StringIO()
        with redirect_stdout(out):
            status = compare.report(a, b)
        rows = {line.split()[0]: line.split()[-1]
                for line in out.getvalue().splitlines()
                if line.startswith("  ") and "|" in line}
        return status, rows

    def test_within_bound_is_ok(self):
        status, rows = self.verdict([100, 101, 99, 100, 102],
                                    [103, 104, 102, 103, 105])
        self.assertEqual(rows["host_us_per_op"], "ok")
        self.assertEqual(status, 0)

    def test_beyond_bound_is_worse(self):
        status, rows = self.verdict([100, 101, 99, 100, 102],
                                    [140, 141, 139, 140, 142])
        self.assertEqual(rows["host_us_per_op"], "worse")
        self.assertEqual(status, 1)

    def test_wide_spread_is_unresolved_unless_all_better(self):
        noisy = [60, 100, 140, 80, 120]
        status, rows = self.verdict(noisy, [100, 101, 99, 100, 102])
        self.assertEqual(rows["host_us_per_op"], "unresolved")
        self.assertEqual(status, 1)
        status, rows = self.verdict(noisy, [50, 51, 49, 50, 52])
        self.assertEqual(rows["host_us_per_op"], "ok")

    def test_setup_spread_is_not_gated_but_its_median_is(self):
        a = self.write_set("a", [fake_run(100, s) for s in
                                 (0.001, 0.002, 0.0005, 0.001, 0.0015)])
        b = self.write_set("b", [fake_run(100, 0.0021) for _ in range(5)])
        out = io.StringIO()
        with redirect_stdout(out):
            compare.report(a, b)
        row = next(l for l in out.getvalue().splitlines()
                   if l.strip().startswith("setup_s"))
        self.assertTrue(row.endswith("worse"), row)

    def test_incorrect_run_fails_the_report(self):
        a = self.write_set("a", [fake_run(100), fake_run(100, correct=False)])
        with redirect_stdout(io.StringIO()):
            self.assertEqual(compare.report(a, None), 1)


if __name__ == "__main__":
    unittest.main()
