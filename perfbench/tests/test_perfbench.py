"""Tests of the benchmark itself: every workload at a tiny size.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace, cwd=ROOT, env=None, extra=()):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    cmd += list(extra)
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=900)


class Workloads(unittest.TestCase):
    def check(self, workload):
        counts = {}
        for trace in (0, 1):
            p = run(workload, trace)
            self.assertEqual(p.returncode, 0, p.stderr[-4000:])
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            expected = SPEC["per_layer" if trace else "end_to_end"]
            self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
            for m in expected:
                got = result["metrics"][m["name"]]
                self.assertEqual(got["unit"], m["unit"], m["name"])
                self.assertIsInstance(got["value"], (int, float), m["name"])
                if not trace:  # end-to-end metrics never read 0
                    self.assertGreater(got["value"], 0, m["name"])
            found = [l for l in lines if l.startswith("# counts ")]
            self.assertEqual(len(found), 1, "one counts line per run")
            counts[trace] = json.loads(found[0][len("# counts "):])
        # The traced run's reference counts equal the untraced run's.
        self.assertEqual(counts[0], counts[1])

    def test_tcp_bulk(self):
        self.check("tcp_bulk")

    def test_udp_small(self):
        self.check("udp_small")

    def test_rether_ring(self):
        self.check("rether_ring")

    def test_chaos_campaign(self):
        self.check("chaos_campaign")


class Spans(unittest.TestCase):
    def test_spans_are_written_out(self):
        path = os.path.join(ROOT, ".bench_build", "spans_test.csv")
        if os.path.exists(path):
            os.remove(path)
        try:
            p = run("rether_ring", 1, extra=["--spans-out", path])
            self.assertEqual(p.returncode, 0, p.stderr[-4000:])
            with open(path) as f:
                rows = f.read().splitlines()
            self.assertEqual(rows[0].split(","),
                             ["bucket", "start_ns", "dur_ns", "self_ns",
                              "pkt_span", "pkt_parent", "parent_index"])
            buckets = {r.split(",")[0] for r in rows[1:]}
            # Root spans, every layer of the default stack and Rether.
            self.assertTrue({"sim", "phy_tx", "rll", "trace", "control",
                             "engine", "rether", "stack_above"} <= buckets,
                            buckets)
        finally:
            if os.path.exists(path):
                os.remove(path)


class Isolation(unittest.TestCase):
    def test_fails_without_the_library_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark must
        # fail without printing a result.
        isolated = os.path.join(ROOT, ".bench_build", "isolation_test")
        shutil.rmtree(isolated, ignore_errors=True)
        os.makedirs(isolated)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(isolated, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            p = run("udp_small", 0, cwd=isolated, env=env)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)
        finally:
            shutil.rmtree(isolated, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
