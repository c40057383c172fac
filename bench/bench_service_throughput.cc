/**
 * @file
 * Load driver for the experiment service (src/service): bursts of
 * characterization requests through the scheduler, cold then warm,
 * reporting requests/s, cache hit rate, and per-request latency.
 *
 * Phases:
 *
 *  1. cold burst  — N distinct requests (unique seeds) pipelined
 *     through submit(); every one misses the cache and simulates;
 *  2. warm burst  — the same N requests again; every one must be an
 *     exact cache hit served byte-identically;
 *  3. sweep       — one Fig. 17-shaped sweep run twice: the repeat
 *     reuses the cached warm-start prefix image.
 *
 * Flags (bench_util.hh):
 *   --requests N   burst size (default 32)
 *   --threads N    scheduler worker threads
 *   --samples N    monitor samples per request
 *   --tcp          drive phase 2 through a loopback TCP server too,
 *                  asserting TCP bodies equal in-process bodies
 *   --verify       hard-fail (exit 1) unless every warm body is
 *                  byte-identical to its cold body
 *   --out DIR      export the service telemetry gauges to
 *                  DIR/service_throughput.{csv,jsonl}
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/cli.hh"
#include "service/client.hh"
#include "service/request.hh"
#include "service/scheduler.hh"
#include "service/server.hh"
#include "telemetry/export.hh"
#include "telemetry/recorder.hh"
#include "workloads/microbenchmarks.hh"

namespace
{

using namespace piton;
using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(idx, v.size() - 1)];
}

service::ExperimentRequest
burstRequest(std::uint32_t samples, std::uint64_t seed)
{
    service::ExperimentRequest req;
    req.kind = service::Kind::MeasurePower;
    req.workload.bench =
        static_cast<std::uint16_t>(workloads::Microbench::Int);
    req.workload.cores = 2;
    req.workload.threadsPerCore = 1;
    req.workload.totalElements = 256;
    req.samples = samples;
    req.warmupCycles = 4000;
    req.seed = seed;
    return req;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace piton;

    std::uint32_t samples = 8;
    service::SchedulerConfig cfg;
    cfg.threads = 2;
    std::string out_dir;
    std::size_t n_requests = 32;
    bool verify = false, tcp = false;
    CommandLine()
        .count("--samples", samples, 1)
        .count("--threads", cfg.threads, 0, maxWorkerThreads())
        .text("--out", out_dir, "DIR")
        .count("--requests", n_requests, 1, 65536)
        .flag("--verify", verify)
        .flag("--tcp", tcp)
        .parse(argc, argv);

    bench::banner("SERVICE", "experiment service throughput");
    std::printf("burst: %zu requests, %u samples each, %u worker "
                "thread(s)\n\n",
                n_requests, samples, cfg.threads);

    cfg.maxPending = n_requests + 8;
    cfg.queueCapacity = n_requests + 8;
    service::ExperimentScheduler sched(cfg);
    service::LocalClient client(sched);

    std::vector<service::ExperimentRequest> requests;
    requests.reserve(n_requests);
    for (std::size_t i = 0; i < n_requests; ++i)
        requests.push_back(burstRequest(samples, 0x517 + i));

    // Phase 1: cold burst, pipelined through submit().
    std::vector<service::ExperimentScheduler::Ticket> tickets;
    tickets.reserve(n_requests);
    const Clock::time_point cold_t0 = Clock::now();
    for (const auto &req : requests)
        tickets.push_back(sched.submit(req));
    std::vector<std::vector<std::uint8_t>> cold_bodies;
    cold_bodies.reserve(n_requests);
    for (auto &t : tickets) {
        const service::ServeResult r = t.result.get();
        if (r.status != service::Status::Ok) {
            std::fprintf(stderr, "cold request failed (status %u)\n",
                         static_cast<unsigned>(r.status));
            return 1;
        }
        cold_bodies.push_back(*r.body);
    }
    const double cold_ms = msSince(cold_t0);
    std::printf("cold burst:  %8.2f ms total, %8.1f req/s\n", cold_ms,
                1e3 * static_cast<double>(n_requests) / cold_ms);

    // Phase 2: warm burst, synchronous per-request latency.
    std::vector<double> warm_latency_ms;
    warm_latency_ms.reserve(n_requests);
    std::size_t warm_hits = 0;
    std::size_t warm_identical = 0;
    const Clock::time_point warm_t0 = Clock::now();
    for (std::size_t i = 0; i < n_requests; ++i) {
        const Clock::time_point t0 = Clock::now();
        const service::ClientResult r = client.run(requests[i]);
        warm_latency_ms.push_back(msSince(t0));
        warm_hits += r.servedFromCache ? 1 : 0;
        warm_identical += r.body == cold_bodies[i] ? 1 : 0;
    }
    const double warm_ms = msSince(warm_t0);
    std::printf("warm burst:  %8.2f ms total, %8.1f req/s, "
                "%zu/%zu cache hits\n",
                warm_ms, 1e3 * static_cast<double>(n_requests) / warm_ms,
                warm_hits, n_requests);
    std::printf("warm latency: p50 %.3f ms, p99 %.3f ms\n",
                percentile(warm_latency_ms, 0.50),
                percentile(warm_latency_ms, 0.99));
    std::printf("byte-identical warm bodies: %zu/%zu\n\n", warm_identical,
                n_requests);

    // Phase 3: warm-started sweep — the repeat forks the cached prefix.
    service::ExperimentRequest sweep = burstRequest(samples, 0x517);
    sweep.kind = service::Kind::Sweep;
    sweep.tails = {{1.0, 4}, {0.5, 4}, {0.0, 4}};
    const Clock::time_point sweep_cold_t0 = Clock::now();
    const service::ClientResult sweep_cold = client.run(sweep);
    const double sweep_cold_ms = msSince(sweep_cold_t0);
    const Clock::time_point sweep_warm_t0 = Clock::now();
    const service::ClientResult sweep_warm = client.run(sweep);
    const double sweep_warm_ms = msSince(sweep_warm_t0);
    const bool sweep_identical = sweep_warm.body == sweep_cold.body;
    std::printf("sweep: cold %.2f ms, repeat %.2f ms (%s)\n\n",
                sweep_cold_ms, sweep_warm_ms,
                sweep_identical ? "byte-identical" : "MISMATCH");

    // Optional: the same burst against a loopback TCP server.  The
    // server owns an independent scheduler with a cold cache, so this
    // additionally checks cross-instance determinism: a recomputed
    // result must still be byte-identical to the in-process one.
    bool tcp_ok = true;
    if (tcp) {
        service::ServerConfig scfg;
        scfg.port = 0; // ephemeral
        scfg.scheduler = cfg;
        service::ExperimentServer server(scfg);
        server.start();
        {
            service::TcpClient tcp(server.port());
            std::size_t tcp_identical = 0;
            const Clock::time_point tcp_t0 = Clock::now();
            for (std::size_t i = 0; i < n_requests; ++i) {
                const service::ClientResult r = tcp.run(requests[i]);
                tcp_identical += r.body == cold_bodies[i] ? 1 : 0;
            }
            const double tcp_ms = msSince(tcp_t0);
            tcp_ok = tcp_identical == n_requests;
            std::printf("tcp burst:   %8.2f ms total, %8.1f req/s, "
                        "%zu/%zu byte-identical to in-process\n\n",
                        tcp_ms,
                        1e3 * static_cast<double>(n_requests) / tcp_ms,
                        tcp_identical, n_requests);
        }
        server.stop();
    }

    const service::SchedulerMetrics m = sched.metrics();
    std::printf("scheduler: %llu submitted, %llu completed, %llu hits "
                "(hit rate %.2f), %llu shed, p50 %.3f ms, p99 %.3f ms\n",
                static_cast<unsigned long long>(m.submitted),
                static_cast<unsigned long long>(m.completed),
                static_cast<unsigned long long>(m.cacheHits), m.hitRate,
                static_cast<unsigned long long>(m.shed), m.latencyP50Ms,
                m.latencyP99Ms);
    std::printf("result cache: %zu entries, %zu bytes; prefix cache: "
                "%zu entries, %zu bytes\n",
                m.resultCache.entries, m.resultCache.bytes,
                m.prefixCache.entries, m.prefixCache.bytes);

    if (!out_dir.empty()) {
        telemetry::TelemetryRecorder rec;
        sched.exportTelemetry(rec);
        telemetry::exportTelemetry(out_dir, "service_throughput",
                                   rec);
        std::printf("telemetry exported to %s/service_throughput.*\n",
                    out_dir.c_str());
    }

    if (verify) {
        const bool ok = warm_identical == n_requests
                        && warm_hits == n_requests && sweep_identical
                        && tcp_ok;
        std::printf("\nverify: %s\n", ok ? "PASS" : "FAIL");
        if (!ok)
            return 1;
    }
    return 0;
}
