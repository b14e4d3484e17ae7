"""Tests of the benchmark's own code.

    python3 -m unittest discover -s coverbench/tests       # from the checkout root

The smoke tests build the benchmark (first time: a few minutes) and run each
workload once at a tiny size. The fast tests alone:

    (cd coverbench/tests && python3 -m unittest test_run.StatsTest test_run.SummariseTest)
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def op(i, phase="timed", ok=True, digest="d1", size=10, cover_s=1.0, layers=None):
    if not ok:
        return {"event": "op", "op": i, "phase": phase, "ok": False, "reason": "oom: boom"}
    return {"event": "op", "op": i, "phase": phase, "ok": True, "cover_s": cover_s,
            "cover_size": size, "digest": digest, "n": 5, "m": 7, "layers": layers or {}}


SETUP = {"event": "setup", "spark_start_s": 4.0, "generate_s": [3.0, 1.0, 2.0], "edges": 7}
CHECK = {"event": "check", "ok": True, "digest": "d1", "check_s": [2.0, 1.0, 4.0],
         "layers": {"check.valid_s": 1.5}}
DONE = {"event": "done", "spans": None}


class StatsTest(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
        self.assertEqual(run.median(xs), 5.5)
        q = statistics.quantiles(xs, n=4)
        self.assertEqual(run.quartiles(xs), (q[0], q[2]))
        self.assertEqual(run.describe(xs), {"n": 10, "q1": q[0], "median": 5.5, "q3": q[2]})

    def test_describe_a_single_sample(self):
        self.assertEqual(run.describe([2.0]), {"n": 1, "q1": 2.0, "median": 2.0, "q3": 2.0})

    def test_samples_are_the_timed_ones(self):
        events = [SETUP, op(0, "warmup", cover_s=9.0), op(1, cover_s=1.0), op(2, cover_s=3.0),
                  op(3, "traced", cover_s=5.0), CHECK, DONE]
        self.assertEqual(run.samples(events), {"cover_s": [1.0, 3.0], "check_s": [2.0, 1.0, 4.0],
                                               "generate_s": [3.0, 1.0, 2.0]})


class SummariseTest(unittest.TestCase):
    def test_end_to_end_metrics_are_medians_of_timed_samples(self):
        events = [SETUP, op(0, "warmup", cover_s=9.0), op(1, cover_s=1.0), op(2, cover_s=3.0),
                  op(3, cover_s=2.0), CHECK, DONE]
        correct, attempted, failed, m, failures = run.summarise(events, 0, None)
        self.assertEqual((correct, attempted, failed, failures), (True, 4, 0, []))
        self.assertEqual(m["cover_s"]["value"], 2.0)
        self.assertEqual(m["check_s"]["value"], 2.0)
        self.assertEqual(m["cover_size"], {"value": 10, "unit": "count"})
        self.assertEqual(m["setup_s"]["value"], 6.0)
        self.assertEqual(m["ok_ratio"]["value"], 1.0)
        self.assertEqual(set(m), set(run.END_TO_END))

    def test_guard_mismatch_and_failed_op_count_as_failures(self):
        events = [SETUP, op(0, ok=False), op(1), op(2), CHECK, DONE]
        guard = {"cover_size": 10, "digest": "other"}
        correct, attempted, failed, m, failures = run.summarise(events, 0, guard)
        self.assertFalse(correct)
        self.assertEqual((attempted, failed), (3, 3))
        self.assertTrue(failures[0][1].startswith("oom"))
        self.assertTrue(failures[1][1].startswith("guard_mismatch"))
        self.assertEqual(m["ok_ratio"]["value"], 0.0)

    def test_identity_and_determinism_are_checked(self):
        ident = {"event": "identity", "cover_size": 10, "digest": "d1"}
        events = [SETUP, ident, op(0), op(1, digest="d2"), CHECK, DONE]
        _, _, failed, _, failures = run.summarise(events, 0, None)
        self.assertEqual(failed, 1)
        self.assertTrue(failures[0][1].startswith("identity_mismatch"))
        _, _, failed, _, failures = run.summarise(
            [SETUP, op(0), op(1, digest="d2"), CHECK, DONE], 0, None)
        self.assertTrue(failures[0][1].startswith("nondeterministic_cover"))

    def test_rejected_check_fails_every_op_and_drops_check_s(self):
        rejected = {"event": "check", "ok": False, "digest": "d1",
                    "reason": "check_invalid: a constrained cycle survives the cover"}
        correct, attempted, failed, m, failures = run.summarise(
            [SETUP, op(0), op(1), rejected, DONE], 0, None)
        self.assertEqual((correct, attempted, failed), (False, 2, 2))
        self.assertTrue(all(why.startswith("check_invalid") for _, why in failures))
        self.assertNotIn("check_s", m)

    def test_unfinished_run_adds_a_failed_op(self):
        correct, attempted, failed, m, failures = run.summarise(
            [SETUP, op(0), op(1), CHECK], 0, None, "wall_limit: killed after 150 s")
        self.assertEqual((correct, attempted, failed), (False, 3, 1))
        self.assertEqual(failures, [(None, "wall_limit: killed after 150 s")])
        self.assertAlmostEqual(m["ok_ratio"]["value"], 2 / 3)

    def test_traced_run_reports_layer_medians_and_overhead(self):
        events = [SETUP, op(0, cover_s=1.0), op(1, cover_s=1.2),
                  op(2, "traced", cover_s=1.5, layers={"topdown.cover_s": 0.4}),
                  op(3, "traced", cover_s=1.3, layers={"topdown.cover_s": 0.6}), CHECK, DONE]
        correct, _, _, m, _ = run.summarise(events, 1, None)
        self.assertTrue(correct)
        self.assertAlmostEqual(m["topdown.cover_s"]["value"], 0.5)
        self.assertEqual(m["check.valid_s"]["value"], 1.5)
        self.assertAlmostEqual(m["trace.overhead_s"]["value"], 1.4 - 1.1)
        self.assertEqual(m["graphgen.generate_s"]["value"], 2.0)
        self.assertEqual(m["graphgen.edges"]["value"], 7)
        self.assertNotIn("cover_s", m)


class BuildCacheTest(unittest.TestCase):
    """The cached classpath keeps the classes of the sources it was built from."""

    FAKE_SBT = """#!/bin/sh
mkdir -p target
printf '%s:%s\\n-Dopt=1\\n' "$FAKE_CLASSES" "$FAKE_JAR" > target/launch.txt
"""

    def test_cache_owns_its_classes(self):
        with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
            root = Path(tmp)
            bench, bin_dir, classes = root / "coverbench", root / "bin", root / "target" / "classes"
            for d in (root / "src" / "main" / "scala", bench, bin_dir, classes):
                d.mkdir(parents=True)
            (root / "build.sbt").write_text("v1")
            (bench / "build.sbt").write_text("")
            (bin_dir / "sbt").write_text(self.FAKE_SBT)
            (bin_dir / "sbt").chmod(0o755)
            (root / "spark.jar").write_text("")
            env = {"PATH": f"{bin_dir}{os.pathsep}{os.environ['PATH']}", "FAKE_CLASSES": str(classes),
                   "FAKE_JAR": str(root / "spark.jar")}
            with mock.patch.multiple(run, ROOT=root, BENCH=bench, OUT=root / "out"), \
                    mock.patch.dict(os.environ, env):
                (classes / "A.class").write_text("built from v1")
                _, cp, opts = run.build()
                self.assertEqual(opts, ["-Dopt=1"])
                owned, jar = cp.split(os.pathsep)
                self.assertTrue(owned.startswith(str(root / "out" / "classes-")))
                self.assertEqual(jar, str(root / "spark.jar"))
                # Another source tree is built in the same checkout and
                # overwrites sbt's classes; the cache for v1 is unaffected.
                (classes / "A.class").write_text("built from v2")
                self.assertEqual(run.build()[1], cp)
                self.assertEqual((Path(owned) / "A.class").read_text(), "built from v1")
                (root / "build.sbt").write_text("v2")
                owned2 = run.build()[1].split(os.pathsep)[0]
                self.assertNotEqual(owned2, owned)
                self.assertEqual((Path(owned2) / "A.class").read_text(), "built from v2")


class SmokeTest(unittest.TestCase):
    """Each workload end to end at a tiny size: build, run, check, report."""

    def smoke(self, workload, trace):
        r = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
             "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
            cwd=BENCH.parent, capture_output=True, text=True, timeout=900)
        self.assertEqual(r.returncode, 0, r.stderr[-3000:])
        res = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], r.stderr[-3000:])
        self.assertEqual(res["failed"], 0)
        return res["metrics"]

    def test_fringe_k5(self):
        m = self.smoke("fringe-k5", 0)
        self.assertEqual(set(m), set(run.END_TO_END))

    def test_fringe_k5_traced(self):
        m = self.smoke("fringe-k5", 1)
        self.assertGreater(m["topdown.validations"]["value"], 0)
        self.assertEqual(m["dist.spark_jobs"]["value"], 0)

    def test_dist_k5(self):
        m = self.smoke("dist-k5", 1)
        self.assertGreater(m["dist.spark_jobs"]["value"], 0)
        self.assertEqual(m["dist.core_edges"]["value"], m["ingest.m"]["value"])


if __name__ == "__main__":
    unittest.main()
