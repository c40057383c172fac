#!/usr/bin/env python3
"""Self-test of tools/bench_compare.py on the fixtures in bench_compare/.

A self-compare must pass, a 2x slowdown must be flagged, and results
from hosts with a different CPU count must be refused — for a saved
perfbench output and for a google-benchmark JSON file.  A perfbench
metric is judged against its BENCHMARK.json bound, and google-benchmark
files from hosts with different caches are refused.  Variants of the
two fixtures are derived into a temporary directory.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(os.path.dirname(HERE), "tools", "bench_compare.py")
PERF = os.path.join(HERE, "bench_compare", "perfbench_long_chip.txt")
GBENCH = os.path.join(HERE, "bench_compare", "gbench_sim_throughput.json")


def run(old, new):
    p = subprocess.run([sys.executable, TOOL, old, new],
                       capture_output=True, text=True)
    return p.returncode, p.stdout, p.stderr


class BenchCompare(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, text):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            f.write(text)
        return path

    def perf_variant(self, name, wall_factor=1.0, nproc=4):
        with open(PERF) as f:
            lines = f.read().splitlines()
        out = []
        for line in lines:
            if line.startswith("host: nproc "):
                line = "host: nproc %d, worker threads 2" % nproc
            elif line.startswith("{"):
                obj = json.loads(line)
                obj["metrics"]["wall_s"]["value"] *= wall_factor
                line = json.dumps(obj)
            out.append(line)
        return self.write(name, "\n".join(out) + "\n")

    def gbench_variant(self, name, rate_factor=1.0, num_cpus=4, l3=None):
        with open(GBENCH) as f:
            obj = json.load(f)
        obj["context"]["num_cpus"] = num_cpus
        if l3 is not None:
            obj["context"]["caches"] = [{"type": "Unified", "level": 3,
                                         "size": l3, "num_sharing": 4}]
        for b in obj["benchmarks"]:
            b["items_per_second"] *= rate_factor
            b["real_time"] /= rate_factor
        return self.write(name, json.dumps(obj))

    def test_self_compare_passes(self):
        for path in (PERF, GBENCH):
            code, out, err = run(path, path)
            self.assertEqual(code, 0, out + err)
            self.assertNotIn("worse", out)

    def test_perfbench_slowdown_is_flagged(self):
        code, out, _ = run(PERF, self.perf_variant("slow.txt", 2.0))
        self.assertEqual(code, 1)
        wall = [l for l in out.splitlines() if l.startswith("wall_s")]
        self.assertEqual(len(wall), 1)
        self.assertIn("2.000", wall[0])
        self.assertIn("worse", wall[0])

    def test_perfbench_speedup_is_better_not_worse(self):
        code, out, _ = run(PERF, self.perf_variant("fast.txt", 0.5))
        self.assertEqual(code, 0)
        self.assertIn("better", out)

    def test_perfbench_band_is_the_benchmark_bound(self):
        # BENCHMARK.json bounds wall_s at 0.25: +20 % is noise, +30 % not.
        base = self.perf_variant("base.txt")
        code, out, _ = run(base, self.perf_variant("w120.txt", 1.2))
        self.assertEqual(code, 0, out)
        self.assertNotIn("worse", out)
        code, out, _ = run(base, self.perf_variant("w130.txt", 1.3))
        self.assertEqual(code, 1, out)
        wall = [l for l in out.splitlines() if l.startswith("wall_s")]
        self.assertIn("0.25", wall[0])
        self.assertIn("worse", wall[0])

    def test_gbench_slowdown_is_flagged(self):
        code, out, _ = run(GBENCH, self.gbench_variant("slow.json", 0.5))
        self.assertEqual(code, 1)
        for line in out.splitlines():
            if line.startswith("BM_"):
                self.assertIn("worse", line)

    def test_negative_metric_is_judged_by_direction(self):
        sys.dont_write_bytecode = True  # keep tools/ free of caches
        sys.path.insert(0, os.path.dirname(TOOL))
        import bench_compare
        # An overhead of -5 % falling to -11 % is an improvement.
        self.assertEqual(bench_compare.classify(-5.0, -11.0, "lower", 0.1),
                         "better")
        self.assertEqual(bench_compare.classify(-5.0, -1.0, "lower", 0.1),
                         "worse")
        self.assertEqual(bench_compare.classify(2.0, 2.1, "lower", 0.1), "")

    def test_cpu_count_mismatch_is_refused(self):
        for old, new in ((PERF, self.perf_variant("8.txt", nproc=8)),
                         (GBENCH, self.gbench_variant("8.json",
                                                      num_cpus=8))):
            code, out, err = run(old, new)
            self.assertEqual(code, 2, out + err)
            self.assertIn("num_cpus", err)
            self.assertEqual(out, "")

    def test_gbench_cache_mismatch_is_refused(self):
        old = self.gbench_variant("l3a.json", l3=110100480)
        code, out, _ = run(old, old)
        self.assertEqual(code, 0, out)
        code, out, err = run(old, self.gbench_variant("l3b.json",
                                                      l3=314572800))
        self.assertEqual(code, 2, out + err)
        self.assertIn("caches", err)
        self.assertEqual(out, "")

    def test_bare_result_line_is_refused(self):
        with open(PERF) as f:
            last = f.read().splitlines()[-1]
        bare = self.write("bare.txt", last + "\n")
        code, _, err = run(bare, bare)
        self.assertEqual(code, 2)
        self.assertIn("header", err)


if __name__ == "__main__":
    unittest.main()
