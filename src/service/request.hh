/**
 * @file
 * Characterization requests: what a client asks the experiment service
 * to run, in a canonical, hashable form.
 *
 * A request selects an experiment kind, an operating point, a workload,
 * and the measurement parameters.  Two requests that would provably
 * produce the same result must hash to the same cache key, so the key
 * is computed from `canonicalBytes()` — the wire encoding of the
 * *canonicalized* request:
 *
 *  - fields the kind does not consume are forced to fixed values
 *    (e.g. `samples` for an energy run, the whole workload for a
 *    static measurement), so irrelevant differences cannot split the
 *    cache;
 *  - fields with a constrained domain are clamped the same way the
 *    executor clamps them (cores to [1,25], threads/core to {1,2});
 *  - `deadlineMs` is excluded entirely — a deadline is delivery QoS,
 *    not part of what the result *is*.
 *
 * There is no engine field: the service always runs the fast path,
 * which is bit-identical to the legacy engine by contract (DESIGN.md
 * §9, enforced by the equiv suite), so an engine choice could only
 * select a speed, never a result.
 *
 * The cache key additionally folds in the wire version and the result
 * format version (response.hh), so bumping either invalidates every
 * stored entry instead of replaying stale encodings (DESIGN.md §11).
 */

#ifndef PITON_SERVICE_REQUEST_HH
#define PITON_SERVICE_REQUEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "service/wire.hh"
#include "sim/system.hh"

namespace piton::service
{

enum class Kind : std::uint16_t
{
    /** Steady-state power of a microbenchmark: System::measure(). */
    MeasurePower = 0,
    /** Leakage-only static power: System::measureStatic().  Ignores
     *  the workload entirely. */
    MeasureStatic = 1,
    /** Finite run to completion: energy + execution time
     *  (System::runToCompletion()); requires iterations > 0. */
    EnergyRun = 2,
    /** Warm-started fan sweep (the Fig. 17 shape): shared workload +
     *  warmup prefix, then per-point divergent tails.  Prefix images
     *  are cached content-addressed and forked per point. */
    Sweep = 3,
    /** Fig. 9 V-f curve: fmax at each requested VDD (fmax solver; no
     *  chip simulation).  Ignores workload and measurement fields. */
    VfCurve = 4,
    /** Finite run with an explicit thread→tile placement and per-tile
     *  PLL steps (the search subsystem's evaluation unit, DESIGN.md
     *  §16).  Like EnergyRun, but the workload loads onto
     *  `placement` via loadMicrobenchOnTiles, placed tiles duty-gate
     *  to `tileFreqSteps` on the PLL grid, and unplaced tiles are
     *  hard-gated (local clock grid stopped).  Requires
     *  iterations > 0. */
    PlacedRun = 5,

    KindCount // bound for validation
};

const char *kindName(Kind k);

/** Workload selection (workloads::Microbench + mapping parameters). */
struct WorkloadSpec
{
    std::uint16_t bench = 0; ///< workloads::Microbench underlying value
    std::uint32_t cores = 25;
    std::uint32_t threadsPerCore = 2;
    std::uint64_t iterations = 0; ///< 0 = infinite (power variants)
    std::uint64_t totalElements = 4096;
};

/** Hard bound on PlacedRun placements (the 5x5 mesh). */
inline constexpr std::uint32_t kMaxPlacementTiles = 25;

/** BBV buckets a sampled service run profiles with.  Fixed (not a
 *  request field) so equal sampled requests cluster identically —
 *  changing it changes stitched results, so bump the result format
 *  version with it. */
inline constexpr std::uint32_t kSampledBbvBuckets = 64;

/** One divergent tail of a Sweep request (applied after the shared
 *  prefix; everything before it is byte-shared across points). */
struct SweepTail
{
    double fanEffectiveness = 1.0;
    std::uint32_t windows = 16;
};

struct ExperimentRequest
{
    Kind kind = Kind::MeasurePower;

    // Operating point.
    double vddV = 1.00;
    double vcsV = 1.05;
    double vioV = 1.80;
    double coreClockMhz = 500.05;
    int chipId = 2;

    // Simulation parameters.
    std::uint64_t seed = 0x517;
    std::uint64_t cyclesPerSample = 2000;
    std::uint64_t warmupCycles = 30000;

    WorkloadSpec workload;

    /** Monitor samples (MeasurePower / MeasureStatic). */
    std::uint32_t samples = 128;
    /** Cycle budget for EnergyRun. */
    std::uint64_t maxCycles = 4'000'000'000ULL;
    /** Sweep tails (Kind::Sweep only). */
    std::vector<SweepTail> tails;
    /** VDD grid for VfCurve (empty = the Fig. 9 default grid). */
    std::vector<double> voltages;

    /** Thread→tile placement (Kind::PlacedRun only): position i in the
     *  list is core i of the workload mapping — thread roles and work
     *  slices follow the position, exactly as loadMicrobenchOnTiles.
     *  Tiles must be distinct and < 25; canonicalize() forces
     *  workload.cores to the placement size. */
    std::vector<std::uint16_t> placement;
    /** Per-placed-tile PLL step (Kind::PlacedRun): position-aligned
     *  with `placement`; entry i is the Bresenham duty numerator of
     *  placement[i] — the tile runs step_i of every
     *  round(coreClockMhz / freqStepMhz) windows.  Empty or short =
     *  full speed for the uncovered positions; canonicalize() clamps
     *  every entry into [1, den], so out-of-range encodings collapse
     *  onto one cache key. */
    std::vector<std::uint16_t> tileFreqSteps;

    /** Sampled-run opt-in (EnergyRun / PlacedRun): > 0 runs the
     *  workload under the interval profiler and stitches a sampled
     *  estimate from this many representative slices (DESIGN.md §14)
     *  instead of reporting the exact ledger totals.  Joins the cache
     *  identity — a sampled result is a different result (it carries a
     *  CI and a stitched estimate), never a stand-in for the exact
     *  one. */
    std::uint32_t sampledSlices = 0;
    /** Profiler interval size in retired instructions (sampled runs
     *  only; 0 canonicalizes to the 100k default). */
    std::uint64_t sampledIntervalInsns = 0;

    /** Per-request deadline in milliseconds (0 = none).  Excluded from
     *  the cache key. */
    std::uint32_t deadlineMs = 0;

    /** sim::SystemOptions for this request (executor + warm start). */
    sim::SystemOptions systemOptions() const;

    /** Normalize in place (see file comment). */
    void canonicalize();

    /** Wire encoding (everything, including deadlineMs). */
    void encode(WireWriter &w) const;
    static ExperimentRequest decode(WireReader &r);

    /** Encoding of the canonicalized request minus QoS fields — the
     *  content-addressed identity of the experiment. */
    std::vector<std::uint8_t> canonicalBytes() const;

    /** Result-cache key: hash(canonicalBytes ‖ wire version ‖ result
     *  format version ‖ versionSalt).  `version_salt` lets tests and
     *  operators force a cold cache without a rebuild. */
    Hash128 cacheKey(std::uint32_t version_salt = 0) const;

    /** Prefix-cache key for warm-startable kinds: hashes only the
     *  fields the shared prefix depends on (workload, operating point,
     *  seed, warmup — NOT the tails), so sweeps differing only in
     *  their tails share one prefix image. */
    Hash128 prefixKey(std::uint32_t version_salt = 0) const;
};

/**
 * A canned request reproducing (a smoke-sized slice of) a paper
 * experiment: "fig10" "fig11" "fig13" "fig14" "fig16" "fig17"
 * "table5" "table7" "fig9".  Throws ServiceError on unknown names;
 * presetNames() lists the supported set.
 */
ExperimentRequest presetRequest(const std::string &name);
std::vector<std::string> presetNames();

} // namespace piton::service

#endif // PITON_SERVICE_REQUEST_HH
