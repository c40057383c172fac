#include "bench/mix.hh"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "workloads/microbenchmarks.hh"

namespace perfbench
{
namespace
{

using piton::service::ExperimentRequest;
using piton::service::Kind;
using piton::workloads::Microbench;

constexpr std::uint64_t kPrefixFamilies = 4;

constexpr std::array<Kind, 10> kKindPattern = {
    Kind::MeasurePower, Kind::MeasurePower, Kind::MeasurePower,
    Kind::MeasurePower, Kind::MeasurePower, Kind::EnergyRun,
    Kind::EnergyRun,    Kind::EnergyRun,    Kind::Sweep,
    Kind::Sweep};

std::size_t
kindIndex(Kind k)
{
    return k == Kind::MeasurePower ? 0 : k == Kind::EnergyRun ? 1 : 2;
}

std::uint16_t
benchId(Microbench b)
{
    return static_cast<std::uint16_t>(b);
}

/** The `index`-th distinct request of the stream, the `nth` of its
 *  kind.  Sizes cycle through a fixed set per kind, so every seed asks
 *  for the same amount of simulation; the seed picks the order, the
 *  simulation seeds, the Sweep families and the divergent fan points. */
ExperimentRequest
newRequest(Kind kind, std::uint64_t nth, piton::Rng &rng, std::uint64_t seed,
           std::uint64_t index)
{
    ExperimentRequest r;
    r.kind = kind;
    r.workload.bench = benchId(Microbench::Int);
    r.workload.cores = 1 + static_cast<std::uint32_t>(nth % 4);
    r.workload.threadsPerCore = 1;
    r.warmupCycles = 4000;
    r.samples = 8;
    r.seed = piton::deriveTaskSeed(seed, index);
    switch (kind) {
    case Kind::MeasurePower:
        if ((nth / 4) % 2 == 1)
            r.workload.bench = benchId(Microbench::HP);
        break;
    case Kind::EnergyRun:
        r.workload.iterations = 1500;
        break;
    default:
        // A prefix family fixes everything but the tails.
        r.workload.cores = 2;
        r.seed = piton::deriveTaskSeed(seed ^ 0x5EE9'F00DULL,
                                       rng.below(kPrefixFamilies));
        r.tails = {{1.0, 4}, {rng.uniform(0.2, 0.9), 4}};
        break;
    }
    return r;
}

} // namespace

std::vector<StreamItem>
makeStream(std::uint64_t seed, std::size_t n)
{
    if (n == 0 || n % 4 != 0)
        throw std::invalid_argument("stream length must be a multiple of 4");
    piton::Rng rng(piton::deriveTaskSeed(seed, 0x57EA));
    std::vector<StreamItem> out;
    out.reserve(n);
    std::vector<std::size_t> distinct; // stream index of each new request
    std::array<std::size_t, kKindPattern.size()> order{};
    std::array<std::uint64_t, 3> perKind{};
    for (std::size_t block = 0; block < n / 4; ++block) {
        const std::size_t new_pos = block == 0 ? 0 : rng.below(4);
        for (std::size_t j = 0; j < 4; ++j) {
            StreamItem item;
            if (j == new_pos) {
                const std::size_t k = distinct.size();
                if (k % order.size() == 0) {
                    for (std::size_t i = 0; i < order.size(); ++i)
                        order[i] = i;
                    std::shuffle(order.begin(), order.end(), rng);
                }
                const Kind kind = kKindPattern[order[k % order.size()]];
                item.req = newRequest(kind, perKind[kindIndex(kind)]++, rng,
                                      seed, k);
                item.first = out.size();
                distinct.push_back(out.size());
            } else {
                item.first = distinct[rng.below(distinct.size())];
                item.req = out[item.first].req;
                item.repeat = true;
            }
            out.push_back(std::move(item));
        }
    }
    return out;
}

piton::search::SearchTask
searchTask()
{
    piton::search::SearchTask task;
    task.space = piton::search::defaultSpace(/*cores=*/3, /*chip_id=*/2);
    task.objective.goal = piton::search::Goal::MinEpi;
    task.base.chipId = 2;
    task.base.workload.bench = benchId(Microbench::Phased);
    task.base.workload.iterations = 2;
    task.base.workload.threadsPerCore = 2;
    task.base.maxCycles = 50'000'000;
    task.exploreIterations = 1;
    return task;
}

piton::search::SearcherOptions
searchOptions(std::uint64_t seed)
{
    piton::search::SearcherOptions o;
    o.seed = seed;
    o.budget = 24;
    o.batch = 6;
    o.population = 6;
    return o;
}

} // namespace perfbench
