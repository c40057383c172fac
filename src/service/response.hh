/**
 * @file
 * Service responses.  The encoded response *body* is the unit of
 * byte-identity: a cache hit replays the stored body verbatim, and the
 * acceptance contract is that it equals the body a cold run would
 * encode.  Anything that may legitimately differ between a hit and a
 * cold run (the servedFromCache marker, timings) therefore lives in
 * the envelope around the body, never inside it.
 *
 * Envelope layout (the Response frame payload):
 *     u8  servedFromCache
 *     u32 bodyLen | body[bodyLen]
 *
 * Body layout: status, kind, error string, then the kind's result
 * section.  All doubles are raw IEEE-754 bit patterns (wire.hh), so
 * bodies are comparable with memcmp.
 */

#ifndef PITON_SERVICE_RESPONSE_HH
#define PITON_SERVICE_RESPONSE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "service/request.hh"
#include "service/wire.hh"

namespace piton::service
{

/** Bumped whenever the response body layout (or the meaning of any
 *  result field) changes; part of the cache key, so old entries are
 *  invalidated rather than replayed with a stale layout.
 *  v2: EnergyResult grew the sampled-estimate fields (sampled flag,
 *  CI bounds, simulated fraction) and serves PlacedRun too. */
inline constexpr std::uint32_t kResultFormatVersion = 2;

enum class Status : std::uint16_t
{
    Ok = 0,
    /** Request failed (bad parameters, simulation error); see error. */
    Error = 1,
    /** Admission control refused the request (backpressure). */
    Shed = 2,
    /** The deadline passed before the result was produced. */
    DeadlineExpired = 3,
    /** Cancelled by the client (or its connection went away). */
    Cancelled = 4,

    StatusCount
};

const char *statusName(Status s);

/** RunningStats snapshot (count + moments, bit-exact). */
struct RailStatsWire
{
    std::uint64_t count = 0;
    double meanW = 0.0;
    double stddevW = 0.0;
    double minW = 0.0;
    double maxW = 0.0;
};

/** MeasurePower / MeasureStatic result. */
struct MeasureResult
{
    RailStatsWire vdd, vcs, vio, onChip;
    double dieTempC = 0.0;
};

/** EnergyRun / PlacedRun result (mirrors sim::CompletionResult).  A
 *  sampled run (ExperimentRequest::sampledSlices > 0) reports the
 *  stitched estimate instead: seconds/onChipEnergyJ come from the
 *  ratio estimator, insts is exact from the profile, the CI fields are
 *  live, and the active/idle decomposition is not available (both 0 —
 *  slices replay total energy only). */
struct EnergyResult
{
    std::uint8_t completed = 0;
    std::uint8_t stalled = 0;
    std::uint64_t cycles = 0;
    double seconds = 0.0;
    std::uint64_t insts = 0;
    double onChipEnergyJ = 0.0;
    double activeEnergyJ = 0.0;
    double idleEnergyJ = 0.0;
    /** Sampled-estimate section (result format v2). */
    std::uint8_t sampled = 0;
    double energyCi95J = 0.0;
    double epiCi95 = 0.0;
    double simulatedFrac = 0.0;
};

/** One Sweep tail's result: on-chip power stats over the recorded
 *  windows plus the final die temperature at that fan point. */
struct SweepPointResult
{
    double fanEffectiveness = 1.0;
    RailStatsWire onChip;
    double finalDieC = 0.0;
};

/** One VfCurve point (core::VfPoint, wire form). */
struct VfPointResult
{
    double vddV = 0.0;
    double fmaxMhz = 0.0;
    double nextStepMhz = 0.0;
    std::uint8_t thermallyLimited = 0;
    double dieTempC = 0.0;
};

struct ExperimentResponse
{
    Status status = Status::Ok;
    Kind kind = Kind::MeasurePower;
    std::string error;

    MeasureResult measure;               ///< MeasurePower / MeasureStatic
    EnergyResult energy;                 ///< EnergyRun
    std::vector<SweepPointResult> points; ///< Sweep
    std::vector<VfPointResult> vfPoints;  ///< VfCurve

    /** Encode/decode the response *body* (see file comment), both
     *  through the one field list `fields`. */
    std::vector<std::uint8_t> encodeBody() const;
    static ExperimentResponse decodeBody(const std::vector<std::uint8_t> &b);
    template <typename Io, typename Self>
    static void fields(Io &io, Self &self);

    /** Build an error-status response (not cacheable). */
    static ExperimentResponse failure(Status status, Kind kind,
                                      std::string message);
};

/** The Response frame payload: servedFromCache marker + body. */
std::vector<std::uint8_t>
encodeResponseEnvelope(bool served_from_cache,
                       const std::vector<std::uint8_t> &body);

struct ResponseEnvelope
{
    bool servedFromCache = false;
    std::vector<std::uint8_t> body;
};

ResponseEnvelope
decodeResponseEnvelope(const std::vector<std::uint8_t> &payload);

} // namespace piton::service

#endif // PITON_SERVICE_RESPONSE_HH
