/**
 * @file
 * What every reproduction bench shares: the banner it prints first and
 * the guard its main runs in.  Command lines go through common/cli.hh:
 * each bench declares the flags it reads.
 */

#ifndef PITON_BENCH_BENCH_UTIL_HH
#define PITON_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <exception>
#include <iostream>

namespace piton::bench
{

inline void
banner(const char *id, const char *title)
{
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", id, title);
    std::printf("Reproduction of: McKeown et al., \"Power and Energy\n"
                "Characterization of an Open Source 25-core Manycore\n"
                "Processor\", HPCA 2018.\n");
    std::printf("==============================================================\n\n");
}

/**
 * Run a bench's main body and turn an exception that escapes it — an
 * output path that cannot be created, a checkpoint or scenario file
 * that cannot be read — into an error line and exit status 1 instead
 * of std::terminate.  Standard output is flushed first, so a table the
 * body already printed is kept; then "<prog>: <what>" goes to stderr,
 * with <prog> as invoked (argv[0]), as CommandLine's usage errors do.
 */
template <typename Body>
int
guardedMain(int argc, char **argv, Body &&body)
{
    try {
        return body(argc, argv);
    } catch (const std::exception &e) {
        std::cout.flush();
        std::fflush(stdout);
        std::fprintf(stderr, "%s: %s\n", argc > 0 ? argv[0] : "bench",
                     e.what());
        return 1;
    }
}

} // namespace piton::bench

#endif // PITON_BENCH_BENCH_UTIL_HH
