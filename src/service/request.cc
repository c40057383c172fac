#include "service/request.hh"

#include <algorithm>
#include <cmath>

#include "checkpoint/archive.hh"
#include "core/vf_experiments.hh"
#include "power/vf_model.hh"
#include "service/response.hh"
#include "workloads/microbenchmarks.hh"

namespace piton::service
{

namespace
{

constexpr std::uint16_t kMaxBench =
    static_cast<std::uint16_t>(workloads::Microbench::Phased);

/** Canonical duty denominator: windows per duty period at this chip
 *  clock (the PLL-grid step count of the clock).  Matches
 *  sim::System::initStaticDuty so a clamped tileFreqSteps entry maps
 *  onto exactly the duty numerator the simulation will run. */
std::uint32_t
dutyDenominator(double core_clock_mhz)
{
    const double step = power::VfParams{}.freqStepMhz;
    return static_cast<std::uint32_t>(
        std::max<long long>(1, std::llround(core_clock_mhz / step)));
}

/** Default interval size for sampled service runs (retired insns). */
constexpr std::uint64_t kDefaultSampledIntervalInsns = 100'000;
constexpr std::uint64_t kMinSampledIntervalInsns = 1'000;
constexpr std::uint32_t kMaxSampledSlices = 64;

/** Hard bound on sweep fan-out and voltage grids: a request is one
 *  scheduler slot, so its internal fan-out must stay boundable. */
constexpr std::size_t kMaxTails = 256;
constexpr std::size_t kMaxVoltages = 256;

template <typename T>
T
clampRange(T v, T lo, T hi)
{
    return std::min(std::max(v, lo), hi);
}

} // namespace

const char *
kindName(Kind k)
{
    switch (k) {
    case Kind::MeasurePower:
        return "measure-power";
    case Kind::MeasureStatic:
        return "measure-static";
    case Kind::EnergyRun:
        return "energy-run";
    case Kind::Sweep:
        return "sweep";
    case Kind::VfCurve:
        return "vf-curve";
    case Kind::PlacedRun:
        return "placed-run";
    case Kind::KindCount:
        break;
    }
    return "?";
}

sim::SystemOptions
ExperimentRequest::systemOptions() const
{
    sim::SystemOptions opts;
    opts.chipId = chipId;
    opts.vddV = vddV;
    opts.vcsV = vcsV;
    opts.vioV = vioV;
    opts.coreClockMhz = coreClockMhz;
    opts.seed = seed;
    opts.cyclesPerSample = std::max<std::uint64_t>(1, cyclesPerSample);
    opts.warmupCycles = warmupCycles;
    if (!placement.empty()) {
        // PlacedRun: unplaced tiles hard-gate (<= 0), placed tiles run
        // their PLL step.  step_i * freqStepMhz round-trips through
        // initStaticDuty back to exactly step_i windows per period.
        const double step = power::VfParams{}.freqStepMhz;
        opts.tileFreqMhz.assign(opts.cfg.piton.tileCount, 0.0);
        for (std::size_t i = 0; i < placement.size(); ++i) {
            const double f = i < tileFreqSteps.size()
                                 ? step * tileFreqSteps[i]
                                 : coreClockMhz;
            opts.tileFreqMhz[placement[i]] = f;
        }
    }
    if (sampledSlices > 0)
        opts.bbvBuckets = kSampledBbvBuckets;
    return opts;
}

void
ExperimentRequest::canonicalize()
{
    if (static_cast<std::uint16_t>(kind)
        >= static_cast<std::uint16_t>(Kind::KindCount))
        throw ServiceError("unknown experiment kind");
    if (workload.bench > kMaxBench)
        throw ServiceError("unknown workload bench");
    if (tails.size() > kMaxTails)
        throw ServiceError("too many sweep tails");
    if (voltages.size() > kMaxVoltages)
        throw ServiceError("too many voltage points");
    if (placement.size() > kMaxPlacementTiles)
        throw ServiceError("placement exceeds the tile count");

    // Phased always halts after its reps, so the infinite (power)
    // variants cannot run it.
    if (workload.bench
            == static_cast<std::uint16_t>(workloads::Microbench::Phased)
        && (kind == Kind::MeasurePower || kind == Kind::Sweep))
        throw ServiceError("Phased is finite-only (energy kinds)");

    workload.cores = clampRange<std::uint32_t>(workload.cores, 1, 25);
    workload.threadsPerCore =
        clampRange<std::uint32_t>(workload.threadsPerCore, 1, 2);
    cyclesPerSample = std::max<std::uint64_t>(1, cyclesPerSample);

    const auto zeroWorkload = [this] {
        workload = WorkloadSpec{0, 1, 1, 0, 0};
    };

    // Placement and sampling are PlacedRun/EnergyRun concerns; forcing
    // them off everywhere else keeps them out of other kinds' cache
    // identities.
    if (kind != Kind::PlacedRun) {
        placement.clear();
        tileFreqSteps.clear();
    }
    if (kind != Kind::EnergyRun && kind != Kind::PlacedRun)
        sampledSlices = 0;
    if (sampledSlices == 0) {
        sampledIntervalInsns = 0;
    } else {
        sampledSlices = clampRange(sampledSlices, 1u, kMaxSampledSlices);
        if (sampledIntervalInsns == 0)
            sampledIntervalInsns = kDefaultSampledIntervalInsns;
        sampledIntervalInsns =
            std::max(sampledIntervalInsns, kMinSampledIntervalInsns);
    }

    switch (kind) {
    case Kind::MeasurePower:
        samples = std::max<std::uint32_t>(1, samples);
        workload.iterations = 0; // steady-state: infinite variant
        maxCycles = 0;
        tails.clear();
        voltages.clear();
        break;
    case Kind::MeasureStatic:
        samples = std::max<std::uint32_t>(1, samples);
        zeroWorkload();
        warmupCycles = 0; // nothing runs before a static measurement
        maxCycles = 0;
        tails.clear();
        voltages.clear();
        break;
    case Kind::EnergyRun:
        if (workload.iterations == 0)
            throw ServiceError(
                "energy run requires finite workload iterations");
        maxCycles = std::max<std::uint64_t>(1, maxCycles);
        samples = 0;
        tails.clear();
        voltages.clear();
        break;
    case Kind::Sweep:
        if (tails.empty())
            throw ServiceError("sweep request with no tails");
        workload.iterations = 0;
        samples = 0;
        maxCycles = 0;
        voltages.clear();
        for (SweepTail &t : tails) {
            t.fanEffectiveness = clampRange(t.fanEffectiveness, 0.0, 1.0);
            t.windows = std::max<std::uint32_t>(1, t.windows);
        }
        break;
    case Kind::PlacedRun: {
        if (workload.iterations == 0)
            throw ServiceError(
                "placed run requires finite workload iterations");
        if (placement.empty())
            throw ServiceError("placed run requires a placement");
        std::uint32_t seen = 0;
        for (const std::uint16_t t : placement) {
            if (t >= kMaxPlacementTiles)
                throw ServiceError("placement tile out of range");
            if ((seen >> t) & 1u)
                throw ServiceError("placement tiles must be distinct");
            seen |= 1u << t;
        }
        // The placement *is* the core list; a divergent cores field
        // must not split the cache (or confuse the loader).
        workload.cores = static_cast<std::uint32_t>(placement.size());
        const std::uint32_t den = dutyDenominator(coreClockMhz);
        const auto full =
            static_cast<std::uint16_t>(std::min<std::uint32_t>(den, 0xFFFF));
        tileFreqSteps.resize(placement.size(), full);
        for (std::uint16_t &s : tileFreqSteps)
            s = clampRange<std::uint16_t>(s, 1, full);
        maxCycles = std::max<std::uint64_t>(1, maxCycles);
        samples = 0;
        tails.clear();
        voltages.clear();
        break;
    }
    case Kind::VfCurve:
        zeroWorkload();
        samples = 0;
        maxCycles = 0;
        seed = 0;
        cyclesPerSample = 1;
        warmupCycles = 0;
        vddV = vcsV = vioV = coreClockMhz = 0.0;
        tails.clear();
        if (voltages.empty())
            voltages = core::VfScalingExperiment::voltageGrid();
        break;
    case Kind::KindCount:
        break;
    }
}

void
ExperimentRequest::encode(WireWriter &w) const
{
    w.u16(static_cast<std::uint16_t>(kind));
    w.f64(vddV);
    w.f64(vcsV);
    w.f64(vioV);
    w.f64(coreClockMhz);
    w.u32(static_cast<std::uint32_t>(chipId));
    w.u64(seed);
    w.u64(cyclesPerSample);
    w.u64(warmupCycles);
    w.u16(workload.bench);
    w.u32(workload.cores);
    w.u32(workload.threadsPerCore);
    w.u64(workload.iterations);
    w.u64(workload.totalElements);
    w.u32(samples);
    w.u64(maxCycles);
    w.u32(static_cast<std::uint32_t>(tails.size()));
    for (const SweepTail &t : tails) {
        w.f64(t.fanEffectiveness);
        w.u32(t.windows);
    }
    w.u32(static_cast<std::uint32_t>(voltages.size()));
    for (const double v : voltages)
        w.f64(v);
    w.u16(static_cast<std::uint16_t>(placement.size())); // wire v4
    for (const std::uint16_t t : placement)
        w.u16(t);
    w.u16(static_cast<std::uint16_t>(tileFreqSteps.size()));
    for (const std::uint16_t s : tileFreqSteps)
        w.u16(s);
    w.u32(sampledSlices);
    w.u64(sampledIntervalInsns);
    w.u32(deadlineMs);
}

ExperimentRequest
ExperimentRequest::decode(WireReader &r)
{
    ExperimentRequest req;
    req.kind = static_cast<Kind>(r.u16());
    req.vddV = r.f64();
    req.vcsV = r.f64();
    req.vioV = r.f64();
    req.coreClockMhz = r.f64();
    req.chipId = static_cast<int>(r.u32());
    req.seed = r.u64();
    req.cyclesPerSample = r.u64();
    req.warmupCycles = r.u64();
    req.workload.bench = r.u16();
    req.workload.cores = r.u32();
    req.workload.threadsPerCore = r.u32();
    req.workload.iterations = r.u64();
    req.workload.totalElements = r.u64();
    req.samples = r.u32();
    req.maxCycles = r.u64();
    const std::uint32_t n_tails = r.u32();
    if (n_tails > kMaxTails)
        throw ServiceError("too many sweep tails");
    req.tails.resize(n_tails);
    for (SweepTail &t : req.tails) {
        t.fanEffectiveness = r.f64();
        t.windows = r.u32();
    }
    const std::uint32_t n_volts = r.u32();
    if (n_volts > kMaxVoltages)
        throw ServiceError("too many voltage points");
    req.voltages.resize(n_volts);
    for (double &v : req.voltages)
        v = r.f64();
    const std::uint16_t n_place = r.u16(); // wire v4
    if (n_place > kMaxPlacementTiles)
        throw ServiceError("placement exceeds the tile count");
    req.placement.resize(n_place);
    for (std::uint16_t &t : req.placement)
        t = r.u16();
    const std::uint16_t n_steps = r.u16();
    if (n_steps > kMaxPlacementTiles)
        throw ServiceError("too many tile frequency steps");
    req.tileFreqSteps.resize(n_steps);
    for (std::uint16_t &s : req.tileFreqSteps)
        s = r.u16();
    req.sampledSlices = r.u32();
    req.sampledIntervalInsns = r.u64();
    req.deadlineMs = r.u32();
    return req;
}

std::vector<std::uint8_t>
ExperimentRequest::canonicalBytes() const
{
    ExperimentRequest canon = *this;
    canon.canonicalize();
    canon.deadlineMs = 0; // QoS, not identity
    WireWriter w;
    canon.encode(w);
    return w.take();
}

Hash128
ExperimentRequest::cacheKey(std::uint32_t version_salt) const
{
    Hasher h;
    h.update("piton-service-result");
    h.updateU32(kWireVersion);
    h.updateU32(kResultFormatVersion);
    h.updateU32(version_salt);
    h.update(canonicalBytes());
    return h.digest();
}

Hash128
ExperimentRequest::prefixKey(std::uint32_t version_salt) const
{
    ExperimentRequest canon = *this;
    canon.canonicalize();
    Hasher h;
    h.update("piton-service-prefix");
    h.updateU32(kWireVersion);
    // Prefix images are checkpoint files; their layout is governed by
    // the checkpoint format version, not the response layout.
    h.updateU32(ckpt::kFormatVersion);
    h.updateU32(version_salt);
    WireWriter w;
    w.f64(canon.vddV);
    w.f64(canon.vcsV);
    w.f64(canon.vioV);
    w.f64(canon.coreClockMhz);
    w.u32(static_cast<std::uint32_t>(canon.chipId));
    w.u64(canon.seed);
    w.u64(canon.cyclesPerSample);
    w.u64(canon.warmupCycles);
    w.u16(canon.workload.bench);
    w.u32(canon.workload.cores);
    w.u32(canon.workload.threadsPerCore);
    w.u64(canon.workload.iterations);
    w.u64(canon.workload.totalElements);
    h.update(w.bytes());
    return h.digest();
}

ExperimentRequest
presetRequest(const std::string &name)
{
    ExperimentRequest req;
    const auto microbench = [&req](workloads::Microbench b) {
        req.workload.bench =
            static_cast<std::uint16_t>(b);
    };
    if (name == "fig9") {
        req.kind = Kind::VfCurve;
    } else if (name == "fig10") {
        req.kind = Kind::MeasureStatic;
        req.samples = 16;
    } else if (name == "fig11") {
        req.kind = Kind::EnergyRun;
        microbench(workloads::Microbench::Int);
        req.workload.iterations = 2000;
        req.maxCycles = 50'000'000;
    } else if (name == "fig13") {
        req.kind = Kind::MeasurePower;
        microbench(workloads::Microbench::HP);
        req.samples = 16;
    } else if (name == "fig14") {
        req.kind = Kind::EnergyRun;
        microbench(workloads::Microbench::Hist);
        req.workload.iterations = 4;
        req.maxCycles = 100'000'000;
    } else if (name == "fig16") {
        req.kind = Kind::MeasurePower;
        microbench(workloads::Microbench::Int);
        req.samples = 32;
    } else if (name == "fig17") {
        req.kind = Kind::Sweep;
        microbench(workloads::Microbench::HP);
        req.workload.cores = 8;
        req.warmupCycles = 64 * req.cyclesPerSample;
        req.tails = {{1.0, 16}, {0.75, 16}, {0.5, 16}, {0.25, 16},
                     {0.0, 16}};
    } else if (name == "table5") {
        req.kind = Kind::MeasurePower;
        microbench(workloads::Microbench::Int);
        req.samples = 16;
    } else if (name == "table7") {
        req.kind = Kind::EnergyRun;
        microbench(workloads::Microbench::HP);
        req.workload.iterations = 1000;
        req.maxCycles = 50'000'000;
    } else {
        throw ServiceError("unknown preset '" + name
                           + "' (see presetNames())");
    }
    req.canonicalize();
    return req;
}

std::vector<std::string>
presetNames()
{
    return {"fig9",  "fig10", "fig11", "fig13",  "fig14",
            "fig16", "fig17", "table5", "table7"};
}

} // namespace piton::service
