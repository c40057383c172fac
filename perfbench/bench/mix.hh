/**
 * @file
 * Seeded inputs of the service_mix workload.
 *
 * The `stream` client sends a closed-loop sequence drawn from a pool of
 * MeasurePower / EnergyRun / Sweep requests.  In every block of four
 * requests exactly one is new (a result-cache miss) and three repeat a
 * request sent earlier (exact hits).  New requests come in fixed
 * proportions — 5 MeasurePower : 3 EnergyRun : 2 Sweep per ten — in a
 * seeded order, and every Sweep belongs to one of a few prefix families
 * that share workload, operating point and warm-up, so later members
 * fork the cached prefix image.  The `search` client runs SA and then
 * GA over the placement/DVFS space at a fixed budget.
 */

#ifndef PERFBENCH_MIX_HH
#define PERFBENCH_MIX_HH

#include <cstdint>
#include <vector>

#include "search/searcher.hh"
#include "service/request.hh"

namespace perfbench
{

struct StreamItem
{
    piton::service::ExperimentRequest req;
    /** Index of the stream item that first sent this request. */
    std::size_t first = 0;
    bool repeat = false;
};

/** The stream client's `n` requests (n a multiple of 4). */
std::vector<StreamItem> makeStream(std::uint64_t seed, std::size_t n);

/** The search client's task and options (budget per engine). */
piton::search::SearchTask searchTask();
piton::search::SearcherOptions searchOptions(std::uint64_t seed);

/** Engines the search client runs, in order. */
inline const char *const kSearchEngines[] = {"sa", "ga"};

} // namespace perfbench

#endif // PERFBENCH_MIX_HH
