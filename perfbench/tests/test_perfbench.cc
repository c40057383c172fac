/**
 * @file
 * Self-tests of the benchmark's own machinery: seeded input generation,
 * the tail-percentile helper and span self times.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "bench/mix.hh"
#include "bench/report.hh"
#include "bench/trace.hh"
#include "service/client.hh"
#include "service/server.hh"

namespace
{

using namespace perfbench;
using piton::service::Status;

/** Canonical identity of every item, plus its repeat structure. */
std::vector<std::vector<std::uint8_t>>
identities(const std::vector<StreamItem> &items)
{
    std::vector<std::vector<std::uint8_t>> out;
    for (const StreamItem &it : items) {
        out.push_back(it.req.canonicalBytes());
        out.back().push_back(it.repeat ? 1 : 0);
        out.back().push_back(static_cast<std::uint8_t>(it.first));
    }
    return out;
}

struct MixCounts
{
    std::size_t measure = 0, energy = 0, sweep = 0; ///< new requests
    std::size_t repeats = 0;
};

MixCounts
countMix(const std::vector<StreamItem> &items)
{
    using piton::service::Kind;
    MixCounts c;
    for (const StreamItem &it : items) {
        if (it.repeat)
            ++c.repeats;
        else if (it.req.kind == Kind::MeasurePower)
            ++c.measure;
        else if (it.req.kind == Kind::EnergyRun)
            ++c.energy;
        else
            ++c.sweep;
    }
    return c;
}

struct Served
{
    piton::service::CacheStats result;
    piton::service::CacheStats prefix;
    std::size_t fromCache = 0;
};

/** Serve `items` closed-loop through a fresh loopback server. */
Served
serve(const std::vector<StreamItem> &items)
{
    piton::service::ServerConfig cfg;
    cfg.scheduler.threads = 2;
    piton::service::ExperimentServer server(cfg);
    server.start();
    Served s;
    {
        piton::service::TcpClient client(server.port());
        for (const StreamItem &it : items) {
            const auto r = client.run(it.req);
            EXPECT_EQ(r.status, Status::Ok);
            s.fromCache += r.servedFromCache ? 1 : 0;
        }
        const auto m = client.stats();
        s.result = m.resultCache;
        s.prefix = m.prefixCache;
    }
    server.stop();
    return s;
}

TEST(ServiceMix, SameSeedGivesSameSequence)
{
    EXPECT_EQ(identities(makeStream(7, 400)), identities(makeStream(7, 400)));
    EXPECT_NE(identities(makeStream(7, 400)), identities(makeStream(8, 400)));
}

TEST(ServiceMix, SameSeedGivesSameHitMissCounts)
{
    const std::vector<StreamItem> items = makeStream(3, 40);
    const Served a = serve(items);
    const Served b = serve(items);
    EXPECT_EQ(a.result.hits, b.result.hits);
    EXPECT_EQ(a.result.misses, b.result.misses);
    EXPECT_EQ(a.prefix.hits, b.prefix.hits);
    // Exactly the repeats are served from the result cache.
    EXPECT_EQ(a.fromCache, countMix(items).repeats);
    EXPECT_EQ(a.result.hits, countMix(items).repeats);
}

TEST(ServiceMix, OtherSeedKeepsMixProportions)
{
    const MixCounts a = countMix(makeStream(1, 1200));
    const MixCounts b = countMix(makeStream(2, 1200));
    EXPECT_EQ(a.repeats, 900u); // three in every four requests repeat
    EXPECT_EQ(a.measure, 150u); // 5 : 3 : 2 among the new ones
    EXPECT_EQ(a.energy, 90u);
    EXPECT_EQ(a.sweep, 60u);
    EXPECT_EQ(a.repeats, b.repeats);
    EXPECT_EQ(a.measure, b.measure);
    EXPECT_EQ(a.energy, b.energy);
    EXPECT_EQ(a.sweep, b.sweep);
}

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(static_cast<double>(i));
    return v;
}

TEST(Percentile, HighestWithTenSamplesBeyond)
{
    EXPECT_EQ(highestTail(ramp(1000)).pct, 99.0); // 10 beyond p99
    EXPECT_EQ(highestTail(ramp(1000)).value, 990.0);
    EXPECT_EQ(highestTail(ramp(999)).pct, 95.0);  // only 9 beyond p99
    EXPECT_EQ(highestTail(ramp(200)).pct, 95.0);
    EXPECT_EQ(highestTail(ramp(199)).pct, 90.0);
    EXPECT_EQ(highestTail(ramp(20)).pct, 50.0);
    EXPECT_EQ(highestTail(ramp(20)).value, 10.0);
    EXPECT_EQ(highestTail(ramp(19)).pct, 0.0);   // no percentile qualifies
    EXPECT_EQ(highestTail(ramp(19)).samples, 19u);
    EXPECT_EQ(median(ramp(4)), 2.5);
}

TEST(Tracer, SelfTimeExcludesDirectChildren)
{
    using namespace std::chrono;
    Tracer t;
    const auto t0 = Tracer::Clock::now();
    const auto at = [t0](int ms) { return t0 + milliseconds(ms); };
    t.record("child", at(1), at(3));
    t.record("grandchild", at(4), at(5));
    t.record("child", at(3), at(7));
    t.record("parent", at(0), at(10));
    const auto self = t.selfTimes();
    ASSERT_EQ(self.at("parent").size(), 1u);
    EXPECT_NEAR(self.at("parent")[0], 0.004, 1e-9);
    EXPECT_NEAR(self.at("child")[0], 0.002, 1e-9);
    EXPECT_NEAR(self.at("child")[1], 0.003, 1e-9);
    EXPECT_NEAR(self.at("grandchild")[0], 0.001, 1e-9);
}

} // namespace
