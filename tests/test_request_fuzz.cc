/**
 * @file
 * Seeded mutation fuzz for the request decoder (service/request).
 *
 * For every experiment kind a valid request is encoded, then its body
 * is damaged with bit flips, truncations and inflated length fields.
 * Each damaged body goes through the server's path — decode,
 * expectEnd, canonicalize — and must either succeed or throw
 * ServiceError; any other exception fails the test, and the suite runs
 * under ASan/UBSan in CI.  A body that survives must canonicalize to a
 * fixed point: re-decoding its canonical bytes yields the same bytes.
 *
 * PITON_FUZZ_ITERS overrides the case count per kind (CI runs a
 * reduced count under the sanitizers).
 */

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "service/request.hh"
#include "service/wire.hh"
#include "workloads/microbenchmarks.hh"

namespace
{

using namespace piton;
using namespace piton::service;

int
fuzzIters(int def)
{
    if (const char *s = std::getenv("PITON_FUZZ_ITERS")) {
        const long v = std::strtol(s, nullptr, 10);
        if (v > 0)
            return static_cast<int>(v);
    }
    return def;
}

/** One valid request of kind `k`, with every vector field populated
 *  where the kind consumes it. */
ExperimentRequest
validRequest(Kind k)
{
    ExperimentRequest req;
    req.kind = k;
    req.workload.cores = 3;
    req.workload.threadsPerCore = 1;
    req.samples = 4;
    switch (k) {
    case Kind::EnergyRun:
        req.workload.iterations = 50;
        req.sampledSlices = 2;
        break;
    case Kind::Sweep:
        req.tails = {{1.0, 4}, {0.5, 2}};
        break;
    case Kind::VfCurve:
        req.voltages = {0.8, 0.9, 1.0};
        break;
    case Kind::PlacedRun:
        req.workload.bench =
            static_cast<std::uint16_t>(workloads::Microbench::Phased);
        req.workload.iterations = 2;
        req.placement = {4, 0, 17};
        req.tileFreqSteps = {3, 9, 1};
        break;
    default:
        break;
    }
    return req;
}

std::vector<std::uint8_t>
encodeBody(const ExperimentRequest &req)
{
    WireWriter w;
    req.encode(w);
    return w.take();
}

/** Offset and width of one element-count field in an encoded body. */
struct LengthField
{
    std::size_t offset;
    std::size_t width;
};

/** The body's four count fields, located from the end of the encoding:
 *  ... u32 tails | tails x 12 B | u32 voltages | voltages x 8 B |
 *  u16 placement | placement x 2 B | u16 steps | steps x 2 B |
 *  u32 sampledSlices | u64 sampledIntervalInsns | u32 deadlineMs. */
std::vector<LengthField>
lengthFields(const ExperimentRequest &req, std::size_t body_size)
{
    std::size_t at = body_size - (4 + 8 + 4);
    at -= 2 * req.tileFreqSteps.size() + 2;
    const LengthField steps{at, 2};
    at -= 2 * req.placement.size() + 2;
    const LengthField place{at, 2};
    at -= 8 * req.voltages.size() + 4;
    const LengthField volts{at, 4};
    at -= 12 * req.tails.size() + 4;
    const LengthField tails{at, 4};
    return {tails, volts, place, steps};
}

std::uint64_t
readLe(const std::vector<std::uint8_t> &b, const LengthField &f)
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < f.width; ++i)
        v |= static_cast<std::uint64_t>(b[f.offset + i]) << (8 * i);
    return v;
}

void
writeLe(std::vector<std::uint8_t> &b, const LengthField &f, std::uint64_t v)
{
    for (std::size_t i = 0; i < f.width; ++i)
        b[f.offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** The server's path; returns the canonical bytes, or throws. */
std::vector<std::uint8_t>
decodeAndCanonicalize(const std::vector<std::uint8_t> &body)
{
    WireReader r(body);
    ExperimentRequest req = ExperimentRequest::decode(r);
    r.expectEnd();
    req.canonicalize();
    return req.canonicalBytes();
}

TEST(RequestFuzz, DecodeThenCanonicalizeThrowsOnlyServiceError)
{
    const int iters = fuzzIters(400);
    for (std::uint16_t k = 0;
         k < static_cast<std::uint16_t>(Kind::KindCount); ++k) {
        const Kind kind = static_cast<Kind>(k);
        SCOPED_TRACE(kindName(kind));
        const ExperimentRequest base = validRequest(kind);
        const std::vector<std::uint8_t> clean = encodeBody(base);
        ASSERT_NO_THROW(decodeAndCanonicalize(clean));
        const std::vector<LengthField> fields =
            lengthFields(base, clean.size());
        ASSERT_EQ(readLe(clean, fields[0]), base.tails.size());
        ASSERT_EQ(readLe(clean, fields[1]), base.voltages.size());
        ASSERT_EQ(readLe(clean, fields[2]), base.placement.size());
        ASSERT_EQ(readLe(clean, fields[3]), base.tileFreqSteps.size());

        Rng rng(0xDEC0DEu + k * 7919u);
        int accepted = 0, rejected = 0;
        for (int it = 0; it < iters; ++it) {
            std::vector<std::uint8_t> bytes = clean;
            switch (rng.below(3)) {
            case 0: { // bit flips
                const std::uint64_t flips = 1 + rng.below(4);
                for (std::uint64_t i = 0; i < flips; ++i)
                    bytes[rng.below(bytes.size())] ^=
                        static_cast<std::uint8_t>(1u << rng.below(8));
                break;
            }
            case 1: // truncation
                bytes.resize(rng.below(bytes.size()));
                break;
            default: { // length-field inflation
                const LengthField &f = fields[rng.below(fields.size())];
                const std::uint64_t max =
                    f.width == 2 ? 0xFFFFu : 0xFFFF'FFFFu;
                const std::uint64_t candidates[] = {
                    readLe(bytes, f) + 1, readLe(bytes, f) + 1 + rng.below(300),
                    max, rng.below(max + 1)};
                writeLe(bytes, f, candidates[rng.below(4)]);
                break;
            }
            }
            try {
                const std::vector<std::uint8_t> canon =
                    decodeAndCanonicalize(bytes);
                EXPECT_EQ(decodeAndCanonicalize(canon), canon)
                    << "canonical bytes are not a fixed point (case " << it
                    << ")";
                ++accepted;
            } catch (const ServiceError &) {
                ++rejected;
            }
        }
        EXPECT_GT(accepted, 0);
        EXPECT_GT(rejected, 0);
    }
}

} // namespace
