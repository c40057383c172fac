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
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/logging.hh"
#include "common/numeric_flag.hh"
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

[[noreturn]] void
usage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s [--port N] [--threads N] [--max-pending N]"
                 " [--cache-dir DIR] [--worker-id ID] [--log-level L]\n",
                 prog);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace piton;

    service::ServerConfig cfg;
    cfg.port = 7425;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        const char *next = i + 1 < argc ? argv[i + 1] : nullptr;
        if (std::strcmp(a, "--port") == 0) {
            parseFlag(cfg.port, argv[0], a, next);
            ++i;
        } else if (std::strcmp(a, "--threads") == 0) {
            parseFlag(cfg.scheduler.threads, argv[0], a, next,
                      maxWorkerThreads());
            ++i;
        } else if (std::strcmp(a, "--max-pending") == 0) {
            parseFlag(cfg.scheduler.maxPending, argv[0], a, next);
            ++i;
        } else if (std::strcmp(a, "--cache-dir") == 0) {
            if (next == nullptr)
                usage(argv[0]);
            cfg.scheduler.resultCache.diskDir = next;
            ++i;
        } else if (std::strcmp(a, "--worker-id") == 0) {
            if (next == nullptr)
                usage(argv[0]);
            cfg.workerId = next;
            ++i;
        } else if (std::strcmp(a, "--log-level") == 0) {
            if (next == nullptr)
                usage(argv[0]);
            LogLevel level;
            if (!parseLogLevel(next, level))
                usage(argv[0]);
            setLogLevel(level);
            ++i;
        } else {
            usage(argv[0]);
        }
    }

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
