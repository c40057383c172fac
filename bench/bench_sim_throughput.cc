/**
 * @file
 * Engineering microbenchmarks (google-benchmark): simulator throughput
 * of the pieces that dominate experiment runtime — core issue loop,
 * memory-system transactions, NoC packet routing, thermal stepping,
 * a full measurement window and chip construction.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "arch/piton_chip.hh"
#include "chip/chip_instance.hh"
#include "common/parallel.hh"
#include "isa/assembler.hh"
#include "sampling/profiler.hh"
#include "sampling/sampled_run.hh"
#include "service/client.hh"
#include "service/request.hh"
#include "service/scheduler.hh"
#include "sim/system.hh"
#include "thermal/thermal_model.hh"
#include "workloads/microbenchmarks.hh"

namespace
{

using namespace piton;

void
BM_CoreIssueLoop(benchmark::State &state)
{
    config::PitonParams params;
    power::EnergyModel energy;
    arch::PitonChip chip(params, chip::makeChip(2), energy);
    const isa::Program p = isa::assemble(R"(
        set 0, %r1
    loop:
        add %r1, 1, %r1
        xor %r1, %r2, %r3
        ba loop
    )");
    chip.loadProgram(0, 0, &p);
    chip.run(10000); // warm the I-cache
    for (auto _ : state)
        chip.run(10000);
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_CoreIssueLoop);

/** Full-chip throughput: 25 cores x 2 T/C Int, every core busy, so
 *  the fast path runs run-ahead rounds throughout (DESIGN.md §9). */
void
BM_FullChipInt(benchmark::State &state)
{
    sim::System sys;
    const auto programs = workloads::loadMicrobench(
        sys, workloads::Microbench::Int, 25, 2, /*iterations=*/0);
    sys.pitonChip().run(50000);
    for (auto _ : state)
        sys.pitonChip().run(5000);
    state.SetItemsProcessed(state.iterations() * 5000 * 25);
}
BENCHMARK(BM_FullChipInt);

/**
 * A partly loaded chip: 4 cores x 1 T/C HP, the shape of a service
 * MeasurePower/EnergyRun miss and of Fig. 13/14's small points.  Its
 * one-thread cores issue ALU stretches with stores in flight, and its
 * charge replay walks 4 of 25 logs (DESIGN.md §9).  An item is one
 * core-cycle (chip cycles x 4).
 */
void
BM_PartialChipHP(benchmark::State &state)
{
    sim::System sys;
    const auto programs = workloads::loadMicrobench(
        sys, workloads::Microbench::HP, 4, 1, /*iterations=*/0);
    sys.pitonChip().run(50000);
    for (auto _ : state)
        sys.pitonChip().run(5000);
    state.SetItemsProcessed(state.iterations() * 5000 * 4);
}
BENCHMARK(BM_PartialChipHP);

/**
 * The memory phase of makePhasedEnergyProgram on 25 cores x 2 T/C
 * (two L1-resident loads and two stores every seven instructions per
 * thread), looping for ever.  The eight-entry store buffer stays full,
 * so most store issues roll back (Fig. 11's stx(F)): those run inside
 * the cores' run-ahead stretches, while the loads and the stores that
 * enter the buffer pause them (DESIGN.md §9).  An item is one
 * core-cycle (chip cycles x 25).
 */
void
BM_StoreBurstChip(benchmark::State &state)
{
    sim::System sys;
    const isa::Program p = isa::assemble(R"(
        set 0xAAAAAAAAAAAAAAAA, %r9
        set 0x5555555555555555, %r11
    top:
        set 0, %r20
    memp:
        ldx [%r1 + 0], %r12
        stx %r11, [%r1 + 16]
        ldx [%r1 + 32], %r13
        stx %r9, [%r1 + 48]
        add %r20, 1, %r20
        cmp %r20, 300
        bl memp
        ba top
    )");
    for (TileId tile = 0; tile < 25; ++tile)
        for (ThreadId tid = 0; tid < 2; ++tid)
            sys.loadProgram(tile, tid, &p,
                            {{1, workloads::kMixedDataBase
                                     + (tile * 2 + tid) * Addr{0x1000}}});
    sys.pitonChip().run(50000);
    for (auto _ : state)
        sys.pitonChip().run(5000);
    state.SetItemsProcessed(state.iterations() * 5000 * 25);
}
BENCHMARK(BM_StoreBurstChip);

void
BM_MemorySystemL2Miss(benchmark::State &state)
{
    config::PitonParams params;
    power::EnergyModel energy;
    power::EnergyLedger ledger;
    arch::MainMemory memory;
    arch::MemorySystem mem(params, energy, ledger, memory);
    Cycle now = 0;
    Addr a = 0;
    for (auto _ : state) {
        RegVal data;
        mem.load(0, a, data, now);
        a += 409600; // always a fresh L2 set alias
        now += 424;
        benchmark::DoNotOptimize(data);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemorySystemL2Miss);

void
BM_NocPacket8Hops(benchmark::State &state)
{
    config::PitonParams params;
    power::EnergyModel energy;
    power::EnergyLedger ledger;
    arch::MainMemory memory;
    arch::MemorySystem mem(params, energy, ledger, memory);
    const std::vector<RegVal> payload(6, 0xAAAAAAAAAAAAAAAAULL);
    for (auto _ : state)
        benchmark::DoNotOptimize(mem.injectPacket(24, payload));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NocPacket8Hops);

void
BM_ThermalStep(benchmark::State &state)
{
    thermal::ThermalModel tm;
    for (auto _ : state)
        tm.step(2.0, 0.001);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ThermalStep);

void
BM_MeasurementWindow(benchmark::State &state)
{
    sim::System sys;
    const auto programs = workloads::loadMicrobench(
        sys, workloads::Microbench::HP, 25, 2, /*iterations=*/0);
    sys.pitonChip().run(50000);
    for (auto _ : state)
        benchmark::DoNotOptimize(sys.windowTruePowers(2000));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeasurementWindow);

/**
 * Chip construction: what every sweep point, service miss and sampled
 * slice pays before it simulates.  A System with a loaded 25 x 2 T/C
 * Int workload, built and torn down (perfbench paper_sweep's set-up
 * step).
 */
void
BM_SystemConstruct(benchmark::State &state)
{
    for (auto _ : state) {
        sim::System sys;
        const auto programs = workloads::loadMicrobench(
            sys, workloads::Microbench::Int, 25, 2, /*iterations=*/0);
        benchmark::DoNotOptimize(programs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SystemConstruct)->Unit(benchmark::kMicrosecond);

/**
 * Sweep throughput: eight V-f operating points, each a full System
 * (warmup + measurement) on an independent simulated chip — the shape
 * of every figure-producing experiment.  Arg is the worker-thread
 * count; the sweep result is bit-identical at every arg, so the only
 * thing that changes is wall-clock time.
 */
void
BM_SweepVfOperatingPoints(benchmark::State &state)
{
    const unsigned threads = static_cast<unsigned>(state.range(0));
    constexpr std::size_t kPoints = 8;
    std::vector<double> power_w(kPoints);
    for (auto _ : state) {
        parallelFor(kPoints, threads, [&](std::size_t i) {
            sim::SystemOptions o;
            o.seed = deriveTaskSeed(0x517, i);
            o.vddV = 0.80 + 0.05 * static_cast<double>(i);
            o.vcsV = o.vddV + 0.05;
            sim::System sys(o);
            const auto programs = workloads::loadMicrobench(
                sys, workloads::Microbench::Int, 25, 2,
                /*iterations=*/0);
            power_w[i] = sys.measure(8).onChipMeanW();
        });
        benchmark::DoNotOptimize(power_w);
    }
    state.SetItemsProcessed(state.iterations() * kPoints);
}
BENCHMARK(BM_SweepVfOperatingPoints)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Sampled-run estimate from a standing profile: the per-estimate cost
 * of sampled simulation (DESIGN.md §14) — cluster the interval BBVs,
 * fork each representative slice from its checkpoint image, re-simulate
 * the slices, stitch.  The profile itself is paid once outside the
 * timing loop, exactly as a sweep reusing one profile would pay it.
 * Items processed counts the instructions the estimate *stands for*,
 * so the rate is directly comparable to BM_FullChipInt's.
 */
void
BM_SampledFullChip(benchmark::State &state)
{
    sim::SystemOptions opts;
    opts.bbvBuckets = 128;
    sim::System sys(opts);
    const isa::Program kernel = workloads::makePhasedEnergyProgram(24);
    for (TileId tile = 0; tile < 25; ++tile)
        for (ThreadId tid = 0; tid < 2; ++tid) {
            const RegVal hwid = tile * 2 + tid;
            sys.loadProgram(tile, tid, &kernel,
                            {{1, workloads::kMixedDataBase + hwid * 4096}});
        }
    sampling::ProfilerOptions popts;
    popts.intervalInsns = 100'000;
    sampling::IntervalProfiler prof(sys, popts);
    prof.run(4'000'000'000ULL);

    sampling::SampledOptions sopts;
    sopts.threads = 1;
    std::uint64_t total = 0;
    for (auto _ : state) {
        const sampling::SampledEstimate est =
            sampling::runSampled(prof.intervals(), opts, sopts);
        total += est.totalInsns;
        benchmark::DoNotOptimize(est.energyJ);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total));
}
BENCHMARK(BM_SampledFullChip)->UseRealTime()->Unit(benchmark::kMillisecond);

/** A small power request for the service-path benchmarks: 2 cores,
 *  short warmup, a handful of monitor samples. */
service::ExperimentRequest
smallServiceRequest(std::uint64_t seed)
{
    service::ExperimentRequest req;
    req.kind = service::Kind::MeasurePower;
    req.workload.bench =
        static_cast<std::uint16_t>(workloads::Microbench::Int);
    req.workload.cores = 2;
    req.workload.threadsPerCore = 1;
    req.workload.totalElements = 256;
    req.samples = 4;
    req.warmupCycles = 4000;
    req.seed = seed;
    return req;
}

/**
 * Service fast path: an exact result-cache hit.  Measures the full
 * serve path (canonicalize, hash, LRU lookup, CRC verify) minus the
 * simulation itself — the latency a repeated experiment pays.
 */
void
BM_ServiceLocalCacheHit(benchmark::State &state)
{
    service::SchedulerConfig cfg;
    cfg.threads = 1;
    service::ExperimentScheduler sched(cfg);
    service::LocalClient client(sched);
    const service::ExperimentRequest req = smallServiceRequest(0x517);
    client.run(req); // populate the cache
    for (auto _ : state) {
        const service::ClientResult r = client.run(req);
        benchmark::DoNotOptimize(r.body.data());
    }
    state.SetItemsProcessed(state.iterations());
}
// A hit completes on this thread; wall clock keeps the recording
// comparable with ones from when hits ran on the worker thread.
BENCHMARK(BM_ServiceLocalCacheHit)->UseRealTime();

/**
 * Service slow path: every iteration uses a fresh seed, so every
 * request misses and simulates — scheduling + execution + cache
 * publish end to end.
 */
void
BM_ServiceLocalColdMiss(benchmark::State &state)
{
    service::SchedulerConfig cfg;
    cfg.threads = 1;
    service::ExperimentScheduler sched(cfg);
    service::LocalClient client(sched);
    std::uint64_t seed = 1;
    for (auto _ : state) {
        const service::ClientResult r =
            client.run(smallServiceRequest(seed++));
        benchmark::DoNotOptimize(r.body.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceLocalColdMiss)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

/**
 * BENCHMARK_MAIN() plus provenance stamps.  `library_build_type` in
 * the JSON context only describes how the google-benchmark *library*
 * was compiled; the number that actually governs the recorded rates is
 * how the simulator objects in this binary were compiled.  Stamping it
 * here lets the perf-smoke job (and anyone reading the checked-in
 * baseline) reject debug-build recordings mechanically instead of by
 * eyeballing flags.
 */
int
main(int argc, char **argv)
{
#ifdef NDEBUG
    benchmark::AddCustomContext("sim_build_type", "release");
#else
    benchmark::AddCustomContext("sim_build_type", "debug");
#endif
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
