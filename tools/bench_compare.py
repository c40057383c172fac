#!/usr/bin/env python3
"""Compare benchmark results and flag changes outside a noise band.

    tools/bench_compare.py OLD NEW
    tools/bench_compare.py --old F1 F2 ... --new G1 G2 ...

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

Pair mode (``--old``/``--new``) takes N perfbench outputs per side,
paired in the order given (run them alternating: old, new, old, ...).
For each end-to-end metric of ``BENCHMARK.json`` it prints each side's
quartiles and median, how many pairs each side won (ties count for
neither), and a verdict: ``gain`` when the new side won at least nine
tenths of the pairs and its median is better by more than the old
side's interquartile range, ``worse`` when the new median is past the
metric's bound, else ``within bound``.  It refuses the same mismatches
as above, across all 2N files; exit 1 when any verdict is ``worse``.
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


def benchmark_spec():
    """The repo's BENCHMARK.json, or {} when it cannot be read."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def perfbench_specs():
    """Metric name -> (direction, band) from the repo's BENCHMARK.json."""
    spec = benchmark_spec()
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


def check_comparable(a, b):
    """Refuse unless two loaded results (kind, context, metrics) match."""
    kind_a, ctx_a, _ = a
    kind_b, ctx_b, _ = b
    if kind_a != kind_b:
        raise Refusal("cannot compare a %s result with a %s result"
                      % (kind_a, kind_b))
    for key in ("num_cpus", "caches", "build_type", "workload"):
        if ctx_a.get(key) != ctx_b.get(key):
            raise Refusal("%s differs: %r vs %r"
                          % (key, ctx_a.get(key), ctx_b.get(key)))


def compare(old_path, new_path):
    """Print the comparison table; return the exit status."""
    a = load(old_path)
    b = load(new_path)
    check_comparable(a, b)
    old, new = a[2], b[2]

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


def quartiles(values):
    """(q1, median, q3), interpolating linearly between order statistics."""
    xs = sorted(values)

    def at(p):
        pos = p * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def pair_verdict(olds, news, better, band):
    """(wins_old, wins_new, verdict) for one metric over paired runs."""
    wins_old = wins_new = 0
    for a, b in zip(olds, news):
        flag = classify(a, b, better, 0.0)
        if flag == "better":
            wins_new += 1
        elif flag == "worse":
            wins_old += 1
    q1_old, med_old, q3_old = quartiles(olds)
    med_new = quartiles(news)[1]
    if classify(med_old, med_new, better, band) == "worse":
        verdict = "worse"
    elif (10 * wins_new >= 9 * len(olds)
          and classify(med_old, med_new, better, 0.0) == "better"
          and abs(med_new - med_old) > q3_old - q1_old):
        verdict = "gain"
    else:
        verdict = "within bound"
    return wins_old, wins_new, verdict


def compare_pairs(old_paths, new_paths):
    """Print the pair-mode table; return the exit status."""
    if len(old_paths) != len(new_paths):
        raise Refusal("%d old but %d new results: pair mode needs one new "
                      "run per old run" % (len(old_paths), len(new_paths)))
    olds = [load(p) for p in old_paths]
    news = [load(p) for p in new_paths]
    for r in olds + news:
        if r[0] != "perfbench":
            raise Refusal("pair mode compares perfbench outputs, not %s "
                          "results" % r[0])
        check_comparable(olds[0], r)
    names = [m["name"] for m in benchmark_spec().get("end_to_end", [])
             if all(m["name"] in r[2] for r in olds + news)]
    if not names:
        raise Refusal("no end-to-end metric of BENCHMARK.json is in every "
                      "file (pair mode reads untraced runs)")

    def fmt(q):
        return "%.4g / %.4g / %.4g" % q

    print("%d pairs (old, new in run order); each side q1 / median / q3"
          % len(olds))
    width = max(len(n) for n in names + ["metric"])
    print("%-*s %-33s %-33s %9s %6s  %s"
          % (width, "metric", "old", "new", "wins o:n", "bound", "verdict"))
    status = 0
    for name in names:
        _, unit, better, band = olds[0][2][name]
        a = [r[2][name][0] for r in olds]
        b = [r[2][name][0] for r in news]
        wins_old, wins_new, verdict = pair_verdict(a, b, better, band)
        if verdict == "worse":
            status = 1
        print("%-*s %-33s %-33s %4d:%-4d %6.2f  %s%s"
              % (width, name, fmt(quartiles(a)), fmt(quartiles(b)),
                 wins_old, wins_new, band, verdict,
                 "" if not unit else "  [%s]" % unit))
    return status


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", nargs="?")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--old", dest="old_runs", nargs="+", metavar="F",
                    help="pair mode: the old side's perfbench outputs")
    ap.add_argument("--new", dest="new_runs", nargs="+", metavar="G",
                    help="pair mode: the new side's, in the same run order")
    args = ap.parse_args(argv)
    pair_mode = args.old_runs is not None or args.new_runs is not None
    if pair_mode == (args.old is not None or args.new is not None):
        ap.error("give OLD NEW, or --old F... --new G...")
    if not pair_mode and args.new is None:
        ap.error("give OLD NEW")
    if pair_mode and (args.old_runs is None or args.new_runs is None):
        ap.error("pair mode needs both --old and --new")
    try:
        if pair_mode:
            return compare_pairs(args.old_runs, args.new_runs)
        return compare(args.old, args.new)
    except Refusal as e:
        print("bench_compare: refusing to compare: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
