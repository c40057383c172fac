#!/usr/bin/env python3
"""Compare two benchmark results and flag ratios outside a noise band.

    tools/bench_compare.py OLD NEW

OLD and NEW are either

  * two saved outputs of ``perfbench/run.py`` (its standard output: the
    ``perfbench``/``host:``/``build:`` header lines and the final JSON
    result line), or
  * two google-benchmark JSON files such as ``BENCH_sim_throughput.json``.

For every metric both files report, the tool prints old, new and the
ratio new/old.  A change (new - old) / |old| outside [-band, +band] is
flagged ``better`` or ``worse`` using the metric's direction (``BENCHMARK.json``
for perfbench metrics; items/s is higher-is-better and times are
lower-is-better for google-benchmark entries), or ``changed`` when the
direction is unknown.  The band is the metric's ``bound`` in
``BENCHMARK.json`` when it has one, and ``NOISE_BAND`` otherwise.

The tool refuses (exit 2) to compare results from hosts with a
different CPU count or (google-benchmark) different caches, from
different build types, from different perfbench workloads, or of
different kinds, and it refuses a perfbench result line saved without
its header (nothing to check the host against).  Exit status: 0 when
no ratio is outside its band or all such ratios are ``better``, 1 when
any is ``worse`` or ``changed``.
Standard library only.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# Relative noise band for metrics without a bound of their own.
NOISE_BAND = 0.10


class Refusal(Exception):
    """The two inputs cannot be compared meaningfully."""


def perfbench_specs():
    """Metric name -> (direction, band) from the repo's BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    out = {}
    for key in ("end_to_end", "per_layer"):
        for m in spec.get(key, []):
            out[m["name"]] = (m.get("better"), m.get("bound", NOISE_BAND))
    return out


def load_perfbench(text, path):
    """Parse a saved perfbench output into (context, metrics)."""
    ctx = {}
    result = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("perfbench "):
            ctx["workload"] = line.split()[1].rstrip(":")
        elif line.startswith("host: nproc "):
            ctx["num_cpus"] = int(line.split()[2].rstrip(","))
        elif line.startswith("build: "):
            parts = line[len("build: "):].split(", ")
            if len(parts) >= 2:
                ctx["build_type"] = parts[1]
        elif line.startswith("{"):
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict) and "metrics" in obj:
                result = obj
    if result is None:
        raise Refusal("%s: no perfbench result line" % path)
    for key in ("num_cpus", "build_type"):
        if key not in ctx:
            raise Refusal("%s: no perfbench header (%s unknown); save the "
                          "whole output of perfbench/run.py" % (path, key))
    specs = perfbench_specs()
    metrics = {}
    for name, m in result["metrics"].items():
        better, band = specs.get(name, (None, NOISE_BAND))
        metrics[name] = (float(m["value"]), m.get("unit", ""), better, band)
    return ctx, metrics


def load_gbench(obj, path):
    """Parse a google-benchmark JSON file into (context, metrics)."""
    c = obj.get("context", {})
    if "num_cpus" not in c:
        raise Refusal("%s: context has no num_cpus" % path)
    ctx = {"num_cpus": int(c["num_cpus"]),
           "caches": ", ".join("L%d %s %d KiB" % (x["level"], x["type"],
                                                   x["size"] // 1024)
                               for x in c.get("caches", [])),
           "build_type": (c.get("sim_build_type"),
                          c.get("library_build_type"))}
    # Repetitions of one benchmark are reduced to their median; the
    # library's own aggregate rows (mean, stddev, ...) are skipped.
    samples = {}
    for b in obj.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b.get("run_name", b["name"])
        if "items_per_second" in b:
            key = (name + " items/s", "items/s", "higher")
            value = b["items_per_second"]
        else:
            key = (name + " real_time", b.get("time_unit", "ns"), "lower")
            value = b["real_time"]
        samples.setdefault(key, []).append(float(value))
    metrics = {}
    for (name, unit, better), values in samples.items():
        metrics[name] = (statistics.median(values), unit, better, NOISE_BAND)
    return ctx, metrics


def load(path):
    """Return (kind, context, metrics) for one input file."""
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise Refusal("%s: %s" % (path, e.strerror))
    try:
        obj = json.loads(text)
    except ValueError:
        obj = None
    if isinstance(obj, dict) and "benchmarks" in obj:
        return ("google-benchmark",) + load_gbench(obj, path)
    return ("perfbench",) + load_perfbench(text, path)


def classify(old, new, better, band):
    """Flag for one metric, or "" when its change is inside the band.

    The change is taken relative to |old|, so a metric that can be
    negative (an overhead percentage) is judged by which way it moved,
    not by the sign of the ratio."""
    if old == new:
        return ""
    if old == 0.0:
        rel = float("inf") if new > 0.0 else float("-inf")
    else:
        rel = (new - old) / abs(old)
    if abs(rel) <= band:
        return ""
    if better == "lower":
        return "better" if rel < 0.0 else "worse"
    if better == "higher":
        return "better" if rel > 0.0 else "worse"
    return "changed"


def compare(old_path, new_path):
    """Print the comparison table; return the exit status."""
    kind_a, ctx_a, old = load(old_path)
    kind_b, ctx_b, new = load(new_path)
    if kind_a != kind_b:
        raise Refusal("cannot compare a %s result with a %s result"
                      % (kind_a, kind_b))
    for key in ("num_cpus", "caches", "build_type", "workload"):
        if ctx_a.get(key) != ctx_b.get(key):
            raise Refusal("%s differs: %r vs %r"
                          % (key, ctx_a.get(key), ctx_b.get(key)))

    names = [n for n in old if n in new]
    width = max([len(n) for n in names] + [6])
    print("%-*s %14s %14s %8s %6s  %s"
          % (width, "metric", "old", "new", "ratio", "band", "flag"))
    status = 0
    for name in names:
        a, unit, better, band = old[name]
        b = new[name][0]
        ratio = 1.0 if a == b else (b / a if a != 0.0 else float("inf"))
        flag = classify(a, b, better, band)
        if flag in ("worse", "changed"):
            status = 1
        print("%-*s %14.6g %14.6g %8.3f %6.2f  %s%s"
              % (width, name, a, b, ratio, band, flag,
                 "" if not unit else "  [%s]" % unit))
    only = sorted(set(old) ^ set(new))
    if only:
        print("in one file only: " + ", ".join(only))
    return status


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    try:
        return compare(args.old, args.new)
    except Refusal as e:
        print("bench_compare: refusing to compare: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
