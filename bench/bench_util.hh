/**
 * @file
 * The banner every reproduction bench prints first.  Command lines go
 * through common/cli.hh: each bench declares the flags it reads.
 */

#ifndef PITON_BENCH_BENCH_UTIL_HH
#define PITON_BENCH_BENCH_UTIL_HH

#include <cstdio>

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

} // namespace piton::bench

#endif // PITON_BENCH_BENCH_UTIL_HH
