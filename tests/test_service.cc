/**
 * @file
 * Experiment-service suite (src/service/): wire codec and framing,
 * request canonicalization and cache keying, the sharded result cache
 * (eviction, single-flight, corruption rejection, disk spill), the
 * scheduler (byte-identical cache hits, shedding, deadlines,
 * cancellation, version-bump invalidation), warm-vs-cold sweep bit
 * identity, and the TCP server end to end against the in-process
 * client.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "core/vf_experiments.hh"
#include "service/cache.hh"
#include "service/client.hh"
#include "service/executor.hh"
#include "service/request.hh"
#include "service/response.hh"
#include "service/scheduler.hh"
#include "service/server.hh"
#include "service/wire.hh"
#include "workloads/microbenchmarks.hh"

namespace
{

using namespace piton;
using namespace piton::service;

CachePayload
payloadOf(std::vector<std::uint8_t> bytes)
{
    return std::make_shared<const std::vector<std::uint8_t>>(
        std::move(bytes));
}

/** A request small enough that a cold run stays in test-suite budget. */
ExperimentRequest
smallPowerRequest()
{
    ExperimentRequest req;
    req.kind = Kind::MeasurePower;
    req.workload.cores = 2;
    req.workload.threadsPerCore = 1;
    req.workload.totalElements = 256;
    req.samples = 4;
    req.warmupCycles = 4000;
    return req;
}

ExperimentRequest
smallSweepRequest()
{
    ExperimentRequest req;
    req.kind = Kind::Sweep;
    req.workload.cores = 2;
    req.workload.threadsPerCore = 1;
    req.workload.totalElements = 256;
    req.warmupCycles = 4000;
    req.tails = {{1.0, 2}, {0.5, 2}, {0.0, 2}};
    return req;
}

// ---- wire codec -----------------------------------------------------

TEST(ServiceWire, ScalarRoundTripIsByteExact)
{
    WireWriter w;
    w.u8(0xab);
    w.u16(0xbeef);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefULL);
    w.f64(-0.0);
    w.f64(1.0 / 3.0);
    w.str("piton");
    w.blob({1, 2, 3});
    const std::vector<std::uint8_t> bytes = w.take();

    WireReader r(bytes);
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0xbeef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    const double neg_zero = r.f64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_EQ(r.f64(), 1.0 / 3.0); // exact: raw bit pattern
    EXPECT_EQ(r.str(), "piton");
    EXPECT_EQ(r.blob(), (std::vector<std::uint8_t>{1, 2, 3}));
    EXPECT_NO_THROW(r.expectEnd());
}

TEST(ServiceWire, TruncatedReadThrows)
{
    WireWriter w;
    w.u32(7);
    const std::vector<std::uint8_t> bytes = w.take();
    WireReader r(bytes);
    EXPECT_THROW(r.u64(), ServiceError);
}

TEST(ServiceWire, TrailingBytesThrow)
{
    WireWriter w;
    w.u32(7);
    w.u8(1);
    const std::vector<std::uint8_t> bytes = w.take();
    WireReader r(bytes);
    r.u32();
    EXPECT_THROW(r.expectEnd(), ServiceError);
}

TEST(ServiceWire, FrameRoundTripsThroughSplitFeeds)
{
    Frame in;
    in.type = FrameType::Request;
    in.requestId = 42;
    in.payload = {9, 8, 7, 6, 5};
    const std::vector<std::uint8_t> bytes = encodeFrame(in);

    // Feed byte by byte: the parser must reassemble across fragments.
    FrameParser parser;
    Frame out;
    for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
        parser.feed(&bytes[i], 1);
        EXPECT_FALSE(parser.next(out));
    }
    parser.feed(&bytes[bytes.size() - 1], 1);
    ASSERT_TRUE(parser.next(out));
    EXPECT_EQ(out.type, FrameType::Request);
    EXPECT_EQ(out.requestId, 42u);
    EXPECT_EQ(out.payload, in.payload);
    EXPECT_FALSE(parser.next(out));
}

TEST(ServiceWire, CorruptedFrameIsRejected)
{
    Frame in;
    in.type = FrameType::Response;
    in.requestId = 7;
    in.payload = {1, 2, 3, 4};
    std::vector<std::uint8_t> bytes = encodeFrame(in);
    bytes.back() ^= 0x40; // flip a payload bit: CRC must catch it

    FrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    Frame out;
    EXPECT_THROW(parser.next(out), ServiceError);
}

TEST(ServiceWire, BadMagicIsRejected)
{
    Frame in;
    in.type = FrameType::Ping;
    std::vector<std::uint8_t> bytes = encodeFrame(in);
    bytes[0] ^= 0xff;
    FrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    Frame out;
    EXPECT_THROW(parser.next(out), ServiceError);
}

// ---- requests and cache keys ---------------------------------------

TEST(ServiceRequest, EncodeDecodeRoundTrip)
{
    ExperimentRequest req = smallSweepRequest();
    req.deadlineMs = 1234;
    WireWriter w;
    req.encode(w);
    const std::vector<std::uint8_t> bytes = w.take();

    WireReader r(bytes);
    const ExperimentRequest back = ExperimentRequest::decode(r);
    EXPECT_NO_THROW(r.expectEnd());
    EXPECT_EQ(back.kind, req.kind);
    EXPECT_EQ(back.deadlineMs, 1234u);
    ASSERT_EQ(back.tails.size(), req.tails.size());
    EXPECT_EQ(back.tails[1].fanEffectiveness, 0.5);
    EXPECT_EQ(back.canonicalBytes(), req.canonicalBytes());
}

TEST(ServiceRequest, KindIrrelevantFieldsDoNotSplitTheCache)
{
    // MeasurePower ignores iterations and maxCycles.
    ExperimentRequest a = smallPowerRequest();
    ExperimentRequest b = a;
    b.workload.iterations = 999;
    b.maxCycles = 123;
    EXPECT_EQ(a.cacheKey(), b.cacheKey());

    // MeasureStatic ignores the entire workload.
    a.kind = b.kind = Kind::MeasureStatic;
    b.workload.cores = 7;
    b.workload.bench =
        static_cast<std::uint16_t>(workloads::Microbench::Hist);
    EXPECT_EQ(a.cacheKey(), b.cacheKey());

    // But fields the kind consumes must split it.
    ExperimentRequest c = smallPowerRequest();
    ExperimentRequest d = c;
    d.samples = c.samples + 1;
    EXPECT_NE(c.cacheKey(), d.cacheKey());
}

TEST(ServiceRequest, DeadlineIsQosNotIdentity)
{
    ExperimentRequest a = smallPowerRequest();
    ExperimentRequest b = a;
    b.deadlineMs = 50000;
    EXPECT_EQ(a.cacheKey(), b.cacheKey());
}

TEST(ServiceRequest, VersionSaltChangesEveryKey)
{
    const ExperimentRequest req = smallPowerRequest();
    EXPECT_NE(req.cacheKey(0), req.cacheKey(1));
    EXPECT_NE(req.prefixKey(0), req.prefixKey(1));
}

TEST(ServiceRequest, SweepsDifferingOnlyInTailsShareThePrefix)
{
    ExperimentRequest a = smallSweepRequest();
    ExperimentRequest b = a;
    b.tails = {{0.25, 4}};
    EXPECT_EQ(a.prefixKey(), b.prefixKey());
    EXPECT_NE(a.cacheKey(), b.cacheKey());

    // A workload change moves the prefix too.
    ExperimentRequest c = a;
    c.workload.totalElements = 512;
    EXPECT_NE(a.prefixKey(), c.prefixKey());
}

TEST(ServiceRequest, MalformedRequestsThrow)
{
    ExperimentRequest bad_kind = smallPowerRequest();
    bad_kind.kind = Kind::KindCount;
    EXPECT_THROW(bad_kind.canonicalize(), ServiceError);

    ExperimentRequest bad_bench = smallPowerRequest();
    bad_bench.workload.bench = 250;
    EXPECT_THROW(bad_bench.canonicalize(), ServiceError);

    ExperimentRequest no_tails = smallSweepRequest();
    no_tails.tails.clear();
    EXPECT_THROW(no_tails.canonicalize(), ServiceError);

    ExperimentRequest no_iters;
    no_iters.kind = Kind::EnergyRun;
    no_iters.workload.iterations = 0;
    EXPECT_THROW(no_iters.canonicalize(), ServiceError);
}

TEST(ServiceRequest, VfCurveFillsTheDefaultGrid)
{
    ExperimentRequest req;
    req.kind = Kind::VfCurve;
    req.canonicalize();
    EXPECT_FALSE(req.voltages.empty());
}

TEST(ServiceRequest, PresetsCanonicalize)
{
    for (const std::string &name : presetNames()) {
        ExperimentRequest req = presetRequest(name);
        EXPECT_NO_THROW(req.canonicalize()) << name;
    }
    EXPECT_THROW(presetRequest("fig99"), ServiceError);
}

TEST(ServiceRequest, PlacedRunCanonicalizesOntoTheDutyGrid)
{
    ExperimentRequest req;
    req.kind = Kind::PlacedRun;
    req.workload.bench =
        static_cast<std::uint16_t>(workloads::Microbench::Phased);
    req.workload.iterations = 1;
    req.workload.cores = 17; // divergent from the placement: repaired
    req.placement = {4, 0, 9};
    req.tileFreqSteps = {0, 60000}; // under/over range, short
    req.canonicalize();

    // The placement IS the core list.
    EXPECT_EQ(req.workload.cores, 3u);
    // Steps clamp into [1, duty denominator] and missing entries fill
    // with full duty, so every encodable step is one the sim runs.
    ASSERT_EQ(req.tileFreqSteps.size(), 3u);
    EXPECT_EQ(req.tileFreqSteps[0], 1u);
    EXPECT_GE(req.tileFreqSteps[1], 1u);
    EXPECT_EQ(req.tileFreqSteps[1], req.tileFreqSteps[2]); // both full
    EXPECT_NO_THROW(req.canonicalize()); // idempotent

    ExperimentRequest bad = req;
    bad.placement = {4, 4, 9}; // duplicate tile
    EXPECT_THROW(bad.canonicalize(), ServiceError);
    bad = req;
    bad.placement = {25}; // off the 5x5 mesh
    EXPECT_THROW(bad.canonicalize(), ServiceError);
    bad = req;
    bad.placement.clear();
    EXPECT_THROW(bad.canonicalize(), ServiceError);
    bad = req;
    bad.workload.iterations = 0;
    EXPECT_THROW(bad.canonicalize(), ServiceError);
}

TEST(ServiceRequest, SampledFieldsJoinOnlyEnergyKindsCacheIdentity)
{
    // On an EnergyRun, the sampled opt-in is part of the identity…
    ExperimentRequest a;
    a.kind = Kind::EnergyRun;
    a.workload.cores = 2;
    a.workload.iterations = 2;
    ExperimentRequest b = a;
    b.sampledSlices = 8;
    a.canonicalize();
    b.canonicalize();
    EXPECT_NE(a.cacheKey(), b.cacheKey());
    // …and slices > 0 pins a concrete interval size (never 0).
    EXPECT_GT(b.sampledIntervalInsns, 0u);
    EXPECT_EQ(a.sampledIntervalInsns, 0u);

    // On kinds that cannot sample, the fields are stripped and must
    // not split the cache.
    ExperimentRequest c = smallPowerRequest();
    ExperimentRequest d = c;
    d.sampledSlices = 8;
    d.sampledIntervalInsns = 123456;
    c.canonicalize();
    d.canonicalize();
    EXPECT_EQ(c.cacheKey(), d.cacheKey());
    EXPECT_EQ(d.sampledSlices, 0u);

    // Placement fields strip off non-PlacedRun kinds the same way.
    ExperimentRequest e = smallPowerRequest();
    ExperimentRequest f = e;
    f.placement = {1, 2};
    f.tileFreqSteps = {5, 5};
    e.canonicalize();
    f.canonicalize();
    EXPECT_EQ(e.cacheKey(), f.cacheKey());
    EXPECT_TRUE(f.placement.empty());
}

// ---- result cache ---------------------------------------------------

TEST(ServiceCache, EvictsLruUnderCapacityPressure)
{
    CacheConfig cfg;
    cfg.shards = 1; // deterministic budgets for the assertion
    cfg.maxEntries = 4;
    cfg.maxBytes = 0; // entry-bounded only
    ResultCache cache(cfg);

    std::vector<Hash128> keys;
    for (std::uint32_t i = 0; i < 8; ++i) {
        Hasher h;
        h.updateU32(i);
        keys.push_back(h.digest());
        cache.insert(keys.back(), payloadOf({static_cast<std::uint8_t>(i)}));
    }
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 4u);
    EXPECT_EQ(stats.evictions, 4u);
    // Oldest entries are gone, newest survive.
    EXPECT_EQ(cache.lookup(keys[0]), nullptr);
    EXPECT_NE(cache.lookup(keys[7]), nullptr);
}

TEST(ServiceCache, ByteBudgetEvicts)
{
    CacheConfig cfg;
    cfg.shards = 1;
    cfg.maxEntries = 0;
    cfg.maxBytes = 64;
    ResultCache cache(cfg);
    for (std::uint32_t i = 0; i < 8; ++i) {
        Hasher h;
        h.updateU32(i ^ 0x5a5a);
        cache.insert(h.digest(),
                     payloadOf(std::vector<std::uint8_t>(32, 0x77)));
    }
    EXPECT_LE(cache.stats().bytes, 64u);
    EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(ServiceCache, SingleFlightCoalescesConcurrentMisses)
{
    ResultCache cache;
    Hasher h;
    h.updateU32(0xc0a1e5ce);
    const Hash128 key = h.digest();

    ResultCache::Acquired leader = cache.acquire(key);
    ASSERT_TRUE(leader.leader);
    ASSERT_FALSE(leader.hit());

    std::atomic<bool> waiter_got_payload{false};
    std::thread waiter([&] {
        ResultCache::Acquired a = cache.acquire(key);
        EXPECT_FALSE(a.leader);
        if (a.hit()) {
            // The leader published before we acquired: also valid.
            waiter_got_payload.store(true);
            return;
        }
        const CachePayload p = a.pending.get();
        waiter_got_payload.store(p != nullptr && p->size() == 3);
    });

    // Give the waiter time to join the flight, then publish.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cache.publish(key, payloadOf({1, 2, 3}));
    waiter.join();
    EXPECT_TRUE(waiter_got_payload.load());
    EXPECT_NE(cache.lookup(key), nullptr);
}

TEST(ServiceCache, AbandonedFlightWakesWaitersEmptyHanded)
{
    ResultCache cache;
    Hasher h;
    h.updateU32(0xdeadc0de);
    const Hash128 key = h.digest();

    ResultCache::Acquired leader = cache.acquire(key);
    ASSERT_TRUE(leader.leader);
    ResultCache::Acquired waiter = cache.acquire(key);
    ASSERT_FALSE(waiter.leader);
    ASSERT_FALSE(waiter.hit());

    cache.abandon(key);
    EXPECT_EQ(waiter.pending.get(), nullptr); // recompute yourself
    EXPECT_EQ(cache.lookup(key), nullptr);    // nothing was cached
}

TEST(ServiceCache, CorruptedEntryIsRejectedAndRecomputable)
{
    ResultCache cache;
    Hasher h;
    h.updateU32(0xb17f11b);
    const Hash128 key = h.digest();
    cache.insert(key, payloadOf({10, 20, 30}));
    ASSERT_NE(cache.lookup(key), nullptr);

    ASSERT_TRUE(cache.corruptEntryForTest(key));
    EXPECT_EQ(cache.lookup(key), nullptr); // CRC rejects, entry evicted
    EXPECT_GE(cache.stats().corruptRejected, 1u);

    // The key is usable again: a recompute repopulates it.
    ResultCache::Acquired again = cache.acquire(key);
    EXPECT_TRUE(again.leader);
    cache.publish(key, payloadOf({10, 20, 30}));
    EXPECT_NE(cache.lookup(key), nullptr);
}

TEST(ServiceCache, DiskSpillSurvivesRestartAndRejectsCorruptFiles)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / "piton_cache_test")
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    Hasher h;
    h.updateU32(0xd15c);
    const Hash128 key = h.digest();
    CacheConfig cfg;
    cfg.diskDir = dir;
    {
        ResultCache cache(cfg);
        cache.insert(key, payloadOf({5, 6, 7, 8}));
    }
    {
        // A fresh cache (fresh process, conceptually) hits via disk.
        ResultCache cache(cfg);
        ResultCache::Acquired a = cache.acquire(key);
        ASSERT_TRUE(a.hit());
        EXPECT_EQ(*a.payload, (std::vector<std::uint8_t>{5, 6, 7, 8}));
        EXPECT_EQ(cache.stats().diskHits, 1u);
    }
    {
        // Corrupt the spill file: must be rejected AND deleted.
        ResultCache cache(cfg);
        const std::string path = cache.diskPathFor(key);
        ASSERT_FALSE(path.empty());
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, -1, SEEK_END);
        std::fputc(0x00, f);
        std::fclose(f);

        ResultCache::Acquired a = cache.acquire(key);
        EXPECT_FALSE(a.hit());
        EXPECT_TRUE(a.leader);
        cache.abandon(key);
        EXPECT_GE(cache.stats().corruptRejected, 1u);
        EXPECT_FALSE(std::filesystem::exists(path));
    }
    std::filesystem::remove_all(dir);
}

// ---- scheduler ------------------------------------------------------

SchedulerConfig
tinySchedulerConfig(unsigned threads = 2)
{
    SchedulerConfig cfg;
    cfg.threads = threads;
    return cfg;
}

TEST(ServiceScheduler, CachedResponseIsByteIdenticalToColdRun)
{
    ExperimentScheduler sched(tinySchedulerConfig());
    const ExperimentRequest req = smallPowerRequest();

    const ServeResult cold = sched.serve(req);
    ASSERT_EQ(cold.status, Status::Ok);
    EXPECT_FALSE(cold.cacheHit);

    const ServeResult warm = sched.serve(req);
    ASSERT_EQ(warm.status, Status::Ok);
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(*warm.body, *cold.body); // the acceptance bar: byte-equal

    const SchedulerMetrics m = sched.metrics();
    EXPECT_EQ(m.completed, 2u);
    EXPECT_EQ(m.cacheHits, 1u);
    EXPECT_GT(m.hitRate, 0.0);
}

TEST(ServiceScheduler, MalformedRequestFailsFast)
{
    ExperimentScheduler sched(tinySchedulerConfig());
    ExperimentRequest bad = smallSweepRequest();
    bad.tails.clear();
    const ServeResult r = sched.serve(bad);
    EXPECT_EQ(r.status, Status::Error);
    const ExperimentResponse resp = ExperimentResponse::decodeBody(*r.body);
    EXPECT_FALSE(resp.error.empty());
}

TEST(ServiceScheduler, ShedsBeyondAdmissionBound)
{
    SchedulerConfig cfg = tinySchedulerConfig(1);
    cfg.maxPending = 1;
    ExperimentScheduler sched(cfg);

    // Occupy the only slot, then burst: everything past the bound must
    // shed immediately rather than queue without limit.
    ExperimentScheduler::Ticket busy = sched.submit(smallSweepRequest());
    std::size_t shed = 0;
    for (int i = 0; i < 8; ++i) {
        ExperimentRequest req = smallPowerRequest();
        req.seed = 0x9000 + static_cast<std::uint64_t>(i);
        const ExperimentScheduler::Ticket t = sched.submit(req);
        if (t.result.get().status == Status::Shed)
            ++shed;
    }
    EXPECT_GT(shed, 0u);
    EXPECT_EQ(busy.result.get().status, Status::Ok);
    sched.drain();
    EXPECT_EQ(sched.metrics().shed, shed);
    // Shed requests released their slots: the scheduler still serves.
    EXPECT_EQ(sched.serve(smallPowerRequest()).status, Status::Ok);
}

TEST(ServiceScheduler, QueuedDeadlineExpiresWithoutRunning)
{
    SchedulerConfig cfg = tinySchedulerConfig(1);
    // Injected clock: the deadline is generous in wall-time terms, and
    // only OUR advance can expire it — no dependence on how slowly a
    // loaded CI host dequeues the request.
    auto fake_ms = std::make_shared<std::atomic<std::int64_t>>(0);
    const auto epoch = std::chrono::steady_clock::now();
    cfg.clock = [fake_ms, epoch] {
        return epoch + std::chrono::milliseconds(fake_ms->load());
    };
    ExperimentScheduler sched(cfg);

    // A slow request owns the single worker; by the time the queued
    // urgent request is dequeued, the fake clock is past its deadline.
    ExperimentScheduler::Ticket slow = sched.submit(smallSweepRequest());
    ExperimentRequest urgent = smallPowerRequest();
    urgent.seed = 0xdead;
    urgent.deadlineMs = 60000;
    const ExperimentScheduler::Ticket t = sched.submit(urgent);
    fake_ms->fetch_add(61000);
    EXPECT_EQ(t.result.get().status, Status::DeadlineExpired);
    EXPECT_EQ(slow.result.get().status, Status::Ok);
    EXPECT_EQ(sched.metrics().deadlineExpired, 1u);
}

TEST(ServiceScheduler, GenerousDeadlineDoesNotExpire)
{
    SchedulerConfig cfg = tinySchedulerConfig(1);
    auto fake_ms = std::make_shared<std::atomic<std::int64_t>>(0);
    const auto epoch = std::chrono::steady_clock::now();
    cfg.clock = [fake_ms, epoch] {
        return epoch + std::chrono::milliseconds(fake_ms->load());
    };
    ExperimentScheduler sched(cfg);

    // The frozen fake clock never reaches the deadline: however long
    // the real run takes, the request must complete normally.
    ExperimentRequest req = smallPowerRequest();
    req.deadlineMs = 1;
    EXPECT_EQ(sched.serve(req).status, Status::Ok);
    EXPECT_EQ(sched.metrics().deadlineExpired, 0u);
}

TEST(ServiceScheduler, CancelReleasesTheSlot)
{
    SchedulerConfig cfg = tinySchedulerConfig(1);
    ExperimentScheduler sched(cfg);

    ExperimentScheduler::Ticket slow = sched.submit(smallSweepRequest());
    ExperimentRequest victim = smallPowerRequest();
    victim.seed = 0xcafe; // distinct key
    ExperimentScheduler::Ticket t = sched.submit(victim);
    t.cancel->store(true);
    EXPECT_EQ(t.result.get().status, Status::Cancelled);
    EXPECT_EQ(slow.result.get().status, Status::Ok);
    sched.drain();
    EXPECT_EQ(sched.metrics().queueDepth, 0u);
    EXPECT_EQ(sched.metrics().cancelled, 1u);
    // The pool is healthy afterwards.
    EXPECT_EQ(sched.serve(smallPowerRequest()).status, Status::Ok);
}

TEST(ServiceScheduler, VersionBumpInvalidatesDiskEntries)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / "piton_salt_test")
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const ExperimentRequest req = smallPowerRequest();

    SchedulerConfig cfg = tinySchedulerConfig();
    cfg.resultCache.diskDir = dir;
    {
        ExperimentScheduler sched(cfg);
        EXPECT_FALSE(sched.serve(req).cacheHit);
        EXPECT_TRUE(sched.serve(req).cacheHit);
    }
    {
        // Same store, same code — a restart hits via disk.
        ExperimentScheduler sched(cfg);
        EXPECT_TRUE(sched.serve(req).cacheHit);
    }
    {
        // A version bump must cold-start: stored entries are stale.
        SchedulerConfig bumped = cfg;
        bumped.versionSalt = 1;
        ExperimentScheduler sched(bumped);
        EXPECT_FALSE(sched.serve(req).cacheHit);
    }
    std::filesystem::remove_all(dir);
}

// ---- executor: warm-start bit identity ------------------------------

TEST(ServiceExecutor, WarmStartedSweepIsBitIdenticalToCold)
{
    ExperimentRequest req = smallSweepRequest();
    req.canonicalize();
    const RunControl ctl;

    // Cold reference: no prefix cache, every point pays the prefix.
    const ExperimentResponse cold = runExperiment(req, ctl, nullptr, 0);
    ASSERT_EQ(cold.status, Status::Ok);

    // Warm path twice: first populates the prefix image, second forks
    // from it.  Both must match the cold run byte for byte.
    ResultCache prefix_cache;
    const ExperimentResponse warm1 =
        runExperiment(req, ctl, &prefix_cache, 0);
    const ExperimentResponse warm2 =
        runExperiment(req, ctl, &prefix_cache, 0);
    EXPECT_EQ(prefix_cache.stats().entries, 1u);
    EXPECT_EQ(warm1.encodeBody(), cold.encodeBody());
    EXPECT_EQ(warm2.encodeBody(), cold.encodeBody());
}

TEST(ServiceExecutor, VfCurveMatchesDirectExperiment)
{
    ExperimentRequest req;
    req.kind = Kind::VfCurve;
    req.voltages = {0.9, 1.0};
    req.canonicalize();
    const ExperimentResponse resp =
        runExperiment(req, RunControl{}, nullptr, 0);
    ASSERT_EQ(resp.status, Status::Ok);
    ASSERT_EQ(resp.vfPoints.size(), 2u);
    const core::VfScalingExperiment vf;
    const core::VfPoint direct = vf.measure(req.chipId, 1.0);
    EXPECT_EQ(resp.vfPoints[1].fmaxMhz, direct.fmaxMhz);
}

TEST(ServiceExecutor, CancelledBeforeRunReturnsCancelled)
{
    ExperimentRequest req = smallPowerRequest();
    req.canonicalize();
    RunControl ctl;
    ctl.cancelled = std::make_shared<std::atomic<bool>>(true);
    const ExperimentResponse resp = runExperiment(req, ctl, nullptr, 0);
    EXPECT_EQ(resp.status, Status::Cancelled);
}

// ---- TCP server end to end ------------------------------------------

TEST(ServiceServer, TcpMatchesLocalByteForByte)
{
    ServerConfig cfg;
    cfg.workerId = "test-w0";
    cfg.scheduler.threads = 2;
    ExperimentServer server(cfg);
    server.start();

    const ExperimentRequest req = smallPowerRequest();
    TcpClient tcp(server.port());
    const ClientResult over_tcp = tcp.run(req);
    ASSERT_EQ(over_tcp.status, Status::Ok);
    EXPECT_FALSE(over_tcp.servedFromCache);

    // Same request against an independent in-process scheduler: the
    // transport must not leak into the result bytes.
    ExperimentScheduler local_sched(tinySchedulerConfig());
    LocalClient local(local_sched);
    const ClientResult in_process = local.run(req);
    ASSERT_EQ(in_process.status, Status::Ok);
    EXPECT_EQ(over_tcp.body, in_process.body);

    // And the server's own cache hit returns the same bytes again.
    const ClientResult repeat = tcp.run(req);
    EXPECT_TRUE(repeat.servedFromCache);
    EXPECT_EQ(repeat.body, over_tcp.body);

    // StatsReply names the server and counts the miss and the hit.
    const WorkerStats ws = tcp.workerStats();
    EXPECT_EQ(ws.workerId, "test-w0");
    EXPECT_EQ(ws.threads, 2u);
    EXPECT_EQ(ws.metrics.resultCache.misses, 1u);
    EXPECT_EQ(ws.metrics.resultCache.hits, 1u);

    server.stop();
}

TEST(ServiceServer, PipelinedRequestsResolveOutOfOrder)
{
    ServerConfig cfg;
    cfg.scheduler.threads = 2;
    ExperimentServer server(cfg);
    server.start();

    TcpClient tcp(server.port());
    ExperimentRequest a = smallPowerRequest();
    ExperimentRequest b = smallPowerRequest();
    b.seed = 0xb;
    ExperimentRequest c = smallPowerRequest();
    c.seed = 0xc;
    const std::uint64_t ida = tcp.submit(a);
    const std::uint64_t idb = tcp.submit(b);
    const std::uint64_t idc = tcp.submit(c);
    // Wait in reverse submission order: stashing must cover the gap.
    EXPECT_EQ(tcp.waitFor(idc).status, Status::Ok);
    EXPECT_EQ(tcp.waitFor(idb).status, Status::Ok);
    EXPECT_EQ(tcp.waitFor(ida).status, Status::Ok);

    const SchedulerMetrics m = tcp.stats();
    EXPECT_GE(m.completed, 3u);
    server.stop();
}

TEST(ServiceServer, CancelFrameCancelsQueuedRequest)
{
    ServerConfig cfg;
    cfg.scheduler.threads = 1;
    ExperimentServer server(cfg);
    server.start();

    TcpClient tcp(server.port());
    const std::uint64_t slow = tcp.submit(smallSweepRequest());
    ExperimentRequest victim = smallPowerRequest();
    victim.seed = 0x7171; // distinct key
    const std::uint64_t id = tcp.submit(victim);
    tcp.cancel(id);
    EXPECT_EQ(tcp.waitFor(id).status, Status::Cancelled);
    EXPECT_EQ(tcp.waitFor(slow).status, Status::Ok);
    server.stop();
}

TEST(ServiceServer, PingAndGracefulShutdown)
{
    ServerConfig cfg;
    cfg.scheduler.threads = 1;
    ExperimentServer server(cfg);
    server.start();

    TcpClient tcp(server.port());
    tcp.ping();
    tcp.shutdownServer(); // returns only after ShutdownAck
    server.wait();
    EXPECT_FALSE(server.running());
}

TEST(ServiceServer, ShedUnderBurstThenRecovers)
{
    ServerConfig cfg;
    cfg.scheduler.threads = 1;
    cfg.scheduler.maxPending = 2;
    ExperimentServer server(cfg);
    server.start();

    TcpClient tcp(server.port());
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 10; ++i) {
        ExperimentRequest req = smallPowerRequest();
        req.seed = 0x4000 + static_cast<std::uint64_t>(i);
        ids.push_back(tcp.submit(req));
    }
    std::size_t ok = 0, shed = 0;
    for (const std::uint64_t id : ids) {
        const ClientResult r = tcp.waitFor(id);
        if (r.status == Status::Ok)
            ++ok;
        else if (r.status == Status::Shed)
            ++shed;
    }
    EXPECT_GT(ok, 0u);
    EXPECT_GT(shed, 0u);
    EXPECT_EQ(ok + shed, ids.size());
    // Backpressure shed work, it did not wedge the server.
    EXPECT_EQ(tcp.run(smallPowerRequest()).status, Status::Ok);
    server.stop();
}

} // namespace
