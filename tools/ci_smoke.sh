#!/usr/bin/env bash
# End-to-end smoke gates that are not gtest cases: the service daemon
# exchange, the governor export round trip and scenario runs, and the
# --verify gates of the service, sampling, warm-start and search
# benches, plus an in-process and a loopback optimization query.
#
#   tools/ci_smoke.sh <build-dir>
#
# Runs the gates in order and stops at the first failure (non-zero
# exit).  CI runs it against the ASan/UBSan tree, where any sanitizer
# finding aborts the offending binary (-fno-sanitize-recover) and so
# fails the gate.  Scratch output goes to a temporary directory that is
# removed on exit; daemons started here are stopped on any exit.
# Uses loopback ports 7425 and 7430.

set -euo pipefail

if [ $# -ne 1 ] || [ ! -d "$1" ]; then
    echo "usage: $0 <build-dir>" >&2
    exit 2
fi
build=$(cd "$1" && pwd)
repo=$(cd "$(dirname "$0")/.." && pwd)
tools="$build/tools"
bench="$build/bench"
ctl="$tools/piton-servectl"
work=$(mktemp -d)
server_pid=""
blocker_pid=""
cleanup() {
    for pid in $server_pid $blocker_pid; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$work"
}
trap cleanup EXIT
cd "$work"

step() { echo "ci_smoke: $*"; }

# Poll until the daemon on port $1 answers a ping.
await_server() {
    for _ in $(seq 100); do
        if "$ctl" --port "$1" ping >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.2
    done
    echo "server on port $1 never came up" >&2
    return 1
}

# Every numeric flag is bounded by its destination: an out-of-range
# value exits with status 2 before any server starts or any socket is
# opened (it once wrapped, e.g. --port 70000 bound port 4464).  The
# timeout turns a regression into a failure instead of a hang.
step "tools: out-of-range numeric flags exit 2"
expect_usage_error() {
    local rc=0
    timeout 10 "$@" >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "expected exit 2 from: $*, got $rc" >&2
        exit 1
    fi
}
expect_usage_error "$tools/piton-served" --port 70000
expect_usage_error "$tools/piton-served" --max-pending 18446744073709551616
expect_usage_error "$tools/piton-servectl" --port 65536 ping
expect_usage_error "$tools/piton-searchctl" minimize-epi --budget 4294967297
expect_usage_error "$tools/piton-searchctl" minimize-epi --chip 2147483648

# A binary rejects a flag it does not read (checkpoint and governor
# flags are allowed only where they are read, --samples only where
# samples are taken), a count below its minimum (a search budget of 0,
# a sample count of 0) or above its range (tile 25 of a 25-tile chip),
# and a value that is not a number; bench_ablation_warmstart's
# --checkpoint-every needs --checkpoint-out.
step "benches and examples: flags a binary does not accept exit 2"
expect_usage_error "$bench/bench_fig10_static_idle" --resume-from x
expect_usage_error "$bench/bench_fig10_static_idle" --governor none
expect_usage_error "$bench/bench_ablation_warmstart" --checkpoint-every 3
expect_usage_error "$bench/bench_table6_latencies" --bogus
expect_usage_error "$bench/bench_fig9_vf_scaling" --samples 1
expect_usage_error "$bench/bench_search" --budget 0
expect_usage_error "$tools/piton-searchctl" minimize-epi --budget 0
expect_usage_error "$bench/bench_ablation_sampling" \
    --sampled --samples 1 --interval-insns x
expect_usage_error "$build/examples/memory_hierarchy_probe" --tile 25
expect_usage_error "$build/examples/epi_explorer" --samples -1

# A path a binary cannot create or read ends it with one error line on
# stderr and exit 1 (bench::guardedMain), keeping what it already
# printed: fig16 prints its table before it exports.
step "benches and examples: unusable paths exit 1"
expect_runtime_error() {
    local rc=0
    timeout 120 "$@" >"$work/stdout" 2>"$work/stderr" || rc=$?
    if [ "$rc" -ne 1 ] || [ ! -s "$work/stderr" ]; then
        echo "expected exit 1 and an error line from: $*, got $rc" >&2
        exit 1
    fi
}
touch "$work/file"
expect_runtime_error "$bench/bench_fig16_timeseries" --out "$work/file/x"
if ! grep -q "Summary over" "$work/stdout"; then
    echo "bench_fig16_timeseries lost its table on a bad --out" >&2
    exit 1
fi
expect_runtime_error "$build/examples/export_open_data" "$work/file/y"
expect_runtime_error "$bench/bench_ablation_warmstart" \
    --resume-from "$work/missing.ckpt"
expect_runtime_error "$bench/bench_governor_compare" \
    --scenario "$work/missing.kv"

# The daemon runs for the whole exchange; a sanitizer finding aborts
# it, which fails the final `wait`.  The burst covers: liveness (ping),
# deadline expiry of a queued request, cold/warm byte-identity
# (--expect-identical), a warm-started sweep, stats, and graceful
# shutdown.
step "service: serve, burst, verify, shut down"
"$tools/piton-served" --port 7425 --threads 1 &
server_pid=$!
await_server 7425
# Deadline expiry: occupy the single worker with a long cold run
# (~8 s without sanitizers, longer under them), then queue a request
# with a 100 ms deadline behind it.  It must come back deadline-expired
# (exit 1), never late or partial.
"$ctl" --port 7425 run fig13 --samples 3000 > blocker.log 2>&1 &
blocker_pid=$!
sleep 1
if out=$("$ctl" --port 7425 run table5 --deadline-ms 100); then
    echo "expected deadline expiry, got:"
    echo "$out"
    exit 1
fi
echo "$out" | grep -q "deadline-expired"
wait "$blocker_pid"
blocker_pid=""
# Cold/warm bursts: every repeat must be byte-identical to the first
# response and served from the cache (fig17 is the warm-started sweep
# path).
"$ctl" --port 7425 run table5 --samples 16 --repeat 3 --expect-identical
"$ctl" --port 7425 run fig17 --samples 4 --repeat 2 --expect-identical
"$ctl" --port 7425 run fig9 --repeat 2 --expect-identical
"$ctl" --port 7425 stats
"$ctl" --port 7425 shutdown
wait "$server_pid"
server_pid=""

# Same properties in-process and over an ephemeral TCP port: --verify
# exits non-zero unless every warm body is byte-identical to its cold
# counterpart and every repeat hits the cache.
step "service: load driver (cold/warm/TCP bursts, --verify)"
"$bench/bench_service_throughput" \
    --requests 16 --samples 4 --threads 2 --verify --tcp

# Determinism is part of the telemetry contract: two identical governed
# comparisons must export byte-identical CSV/JSONL files (the
# governor.* epoch series and power.rail.* gauges included).
step "governor: scenario runs + bit-exact export round trip"
"$bench/bench_governor_compare" --out gov_a
"$bench/bench_governor_compare" --out gov_b
"$bench/bench_governor_compare" \
    --scenario "$repo/scenarios/theas_placement.kv" \
    --governor theas --out gov_sc
"$bench/bench_ablation_dvfs" --scenario "$repo/scenarios/cap_schedule.kv"
for f in gov_a/governor_compare_*.csv gov_a/governor_compare_*.jsonl; do
    [ -f "gov_b/$(basename "$f")" ] || continue
    cmp "$f" "gov_b/$(basename "$f")"
done
python3 - <<'EOF'
import csv, glob, sys

paths = sorted(glob.glob("gov_a/governor_compare_*.csv"))
if len(paths) < 4:
    sys.exit(f"expected one export per policy, got {paths}")
for path in paths:
    with open(path) as f:
        series = {row["series"] for row in csv.DictReader(f)}
    missing = [s for s in ("governor.freq_mhz", "governor.vdd_v",
                           "governor.power_w", "governor.epochs",
                           "power.rail.vdd_w", "power.rail.vdd_a")
               if s not in series]
    if "_none" not in path and missing:
        sys.exit(f"{path}: missing governor series {missing}")
print(f"validated {len(paths)} governed exports")
EOF

# End-to-end accuracy gate: --verify hard-fails unless the stitched EPI
# lands within the committed tolerance of the exact full-run value, the
# 95% CI covers it, at most 10% of the instructions were re-simulated,
# every replayed slice bitwise-reproduced its profiled interval, and
# the profile's packed images take at most half their unpacked bytes.
# 24 reps keeps the sanitized run short; the speedup headline (>10x) is
# measured on the default 96-rep Release configuration (EXPERIMENTS.md).
step "sampling: stitched-estimate accuracy gate (--verify)"
"$bench/bench_ablation_sampling" --verify --samples 24

# Warm-start gate: every sweep point forked from the restored prefix
# image must match re-simulating the prefix cold, bit for bit (power
# samples, die temperature, telemetry CSV bytes).
step "sampling: warm-start bit-identity gate (--verify)"
"$bench/bench_ablation_warmstart" --verify

# The bench's own gates: same seed → bit-identical best candidate and
# trajectory across reruns, engines, scheduler thread counts, and
# transports (LocalClient vs loopback TcpClient); cache hits on
# revisits; sa/ga no worse than random at equal budget.
step "search: determinism + quality gauntlet (--verify)"
"$bench/bench_search" --verify

# The same query in process: an ExperimentScheduler behind a
# LocalClient, batches pipelined across two workers.
step "search: in-process optimization query (piton-searchctl)"
"$tools/piton-searchctl" minimize-epi --threads 2 \
    --engine sa --budget 18 --cores 3 \
    --explore-iterations 1 --out trajectory_local.csv
head -1 trajectory_local.csv | grep -q '^oracle_calls,best_score$'

# The EXPERIMENTS.md "optimization queries" loopback example, end to
# end: a worker daemon serves a minimize-epi query over TCP and the
# trajectory CSV lands on disk.
step "search: loopback optimization query (piton-searchctl)"
"$tools/piton-served" --port 7430 --threads 2 &
server_pid=$!
await_server 7430
"$tools/piton-searchctl" minimize-epi --port 7430 \
    --engine sa --budget 18 --cores 3 \
    --explore-iterations 1 --out trajectory.csv
head -1 trajectory.csv | grep -q '^oracle_calls,best_score$'
[ "$(wc -l < trajectory.csv)" -gt 1 ]
# Both transports drive the search to the same trajectory.
cmp trajectory_local.csv trajectory.csv
"$ctl" --port 7430 shutdown
wait "$server_pid"
server_pid=""

step "all smoke gates passed"
