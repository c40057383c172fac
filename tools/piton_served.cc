/**
 * @file
 * piton-served: the persistent characterization server.
 *
 * Binds 127.0.0.1:<port>, accepts length-prefixed binary frames from
 * piton-servectl (or any client linking src/service/client.hh), and
 * schedules experiments onto a bounded worker pool with a sharded
 * content-addressed result cache and checkpoint-backed warm-started
 * sweeps (DESIGN.md §11).
 *
 * Flags:
 *   --port N          listening port (default 7425; 0 = ephemeral,
 *                     printed on stdout for scripting)
 *   --threads N       worker threads (0 = all hardware threads; at most
 *                     8 per hardware thread, see maxWorkerThreads)
 *   --max-pending N   admission bound before requests are shed
 *   --cache-dir DIR   spill cached results to DIR (survives restarts)
 *   --worker-id ID    identity in StatsReply (default worker-<port>;
 *                     pass a stable name so stats stay attributable
 *                     across restarts)
 *   --log-level L     silent | warn | info | debug
 *
 * SIGINT/SIGTERM trigger the same graceful shutdown as a client
 * Shutdown frame: stop accepting, drain in-flight work, flush, exit.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "common/cli.hh"
#include "common/logging.hh"
#include "service/server.hh"

namespace
{

piton::service::ExperimentServer *gServer = nullptr;

void
onSignal(int)
{
    if (gServer != nullptr)
        gServer->requestStop(); // atomic store + self-pipe write
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace piton;

    service::ServerConfig cfg;
    cfg.port = 7425;
    std::string log_level;
    CommandLine()
        .count("--port", cfg.port)
        .count("--threads", cfg.scheduler.threads, 0, maxWorkerThreads())
        .count("--max-pending", cfg.scheduler.maxPending)
        .text("--cache-dir", cfg.scheduler.resultCache.diskDir, "DIR")
        .text("--worker-id", cfg.workerId, "ID")
        .choice("--log-level", log_level, {"silent", "warn", "info", "debug"})
        .parse(argc, argv);
    LogLevel level;
    if (parseLogLevel(log_level, level))
        setLogLevel(level);

    service::ExperimentServer server(cfg);
    try {
        server.start();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
    }

    // Scripting handshake: the resolved port on stdout, then flush so
    // a wrapper reading a pipe unblocks immediately.
    std::printf("piton-served port %u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    gServer = &server;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    server.wait(); // returns after a signal or client Shutdown frame
    gServer = nullptr;
    return 0;
}
