#include "governor/scenario.hh"

#include <utility>

#include "common/logging.hh"
#include "config/kv_file.hh"

namespace piton::governor
{

namespace
{

std::string
phaseKey(std::size_t i, const char *suffix)
{
    return "phase" + std::to_string(i) + "." + suffix;
}

} // namespace

workloads::Microbench
microbenchFromName(const std::string &name)
{
    if (name == "int")
        return workloads::Microbench::Int;
    if (name == "hp")
        return workloads::Microbench::HP;
    if (name == "hist")
        return workloads::Microbench::Hist;
    throw config::KvError("unknown workload '" + name
                          + "' (int|hp|hist)");
}

Scenario
Scenario::fromKv(const config::KvFile &kv)
{
    Scenario sc;
    sc.name = kv.get("name", sc.name);
    sc.gov = governorParamsFromKv(kv);
    sc.workload = kv.get("workload", sc.workload);
    microbenchFromName(sc.workload); // validate early
    sc.tiles = kv.getUint32("tiles", sc.tiles);
    sc.threadsPerCore = kv.getUint32("threads_per_core", sc.threadsPerCore);
    sc.iterations = kv.getUint("iterations", sc.iterations);
    sc.histElements = kv.getUint("hist_elements", sc.histElements);
    if (sc.tiles < 1 || sc.tiles > 25)
        throw config::KvError("tiles must be in [1, 25]");
    if (sc.threadsPerCore != 1 && sc.threadsPerCore != 2)
        throw config::KvError("threads_per_core must be 1 or 2");

    const std::uint64_t default_cycles = kv.getUint("cycles", 250'000);
    const std::uint64_t nphases = kv.getUint("phases", 1);
    if (nphases < 1 || nphases > 64)
        throw config::KvError("phases must be in [1, 64]");
    for (std::size_t i = 0; i < nphases; ++i) {
        ScenarioPhase ph;
        ph.cycles = kv.getUint(phaseKey(i, "cycles"), default_cycles);
        ph.capW = kv.getDouble(phaseKey(i, "cap_w"), 0.0);
        ph.workload = kv.get(phaseKey(i, "workload"), "");
        if (!ph.workload.empty())
            microbenchFromName(ph.workload); // validate early
        if (ph.cycles == 0)
            throw config::KvError(phaseKey(i, "cycles") + " must be > 0");
        sc.phases.push_back(std::move(ph));
    }
    kv.checkUnknownKeys("scenario '" + sc.name + "'");
    return sc;
}

Scenario
Scenario::fromFile(const std::string &path)
{
    return fromKv(config::KvFile::parseFile(path));
}

Scenario
Scenario::fromText(const std::string &text, const std::string &source)
{
    return fromKv(config::KvFile::parseText(text, source));
}

ScenarioResult
runScenario(sim::System &system, const Scenario &sc)
{
    std::unique_ptr<Governor> gov = makeGovernor(sc.gov);
    system.attachGovernor(gov.get());
    const std::vector<TileId> tiles = gov->placeTiles(sc.tiles);
    piton_assert(!tiles.empty(), "scenario placed no tiles");

    // Programs must outlive the threads running them; every phase's
    // images accumulate here until the run ends.
    std::vector<std::vector<isa::Program>> images;
    images.push_back(workloads::loadMicrobenchOnTiles(
        system, microbenchFromName(sc.workload), tiles, sc.threadsPerCore,
        sc.iterations, sc.histElements));

    ScenarioResult res;
    res.name = sc.name;
    res.policy = gov->name();
    std::uint64_t prev_insts = system.pitonChip().totalInsts();
    for (const ScenarioPhase &ph : sc.phases) {
        if (ph.capW > 0.0)
            gov->setCapW(ph.capW);
        if (!ph.workload.empty())
            images.push_back(workloads::loadMicrobenchOnTiles(
                system, microbenchFromName(ph.workload), tiles,
                sc.threadsPerCore, sc.iterations, sc.histElements));

        PhaseResult pr;
        pr.run = system.runToCompletion(ph.cycles);
        const std::uint64_t now_insts = system.pitonChip().totalInsts();
        pr.insts = now_insts - prev_insts;
        prev_insts = now_insts;
        pr.avgPowerW = pr.run.seconds > 0.0
                           ? pr.run.onChipEnergyJ / pr.run.seconds
                           : 0.0;
        pr.epi = pr.insts > 0
                     ? pr.run.onChipEnergyJ / static_cast<double>(pr.insts)
                     : 0.0;
        pr.dieTempC = system.thermalModel().dieTempC();
        pr.endTimeS = system.sampleClockS();

        res.cycles += pr.run.cycles;
        res.insts += pr.insts;
        res.seconds += pr.run.seconds;
        res.energyJ += pr.run.onChipEnergyJ;
        res.phases.push_back(std::move(pr));
    }
    res.avgPowerW = res.seconds > 0.0 ? res.energyJ / res.seconds : 0.0;
    res.epi = res.insts > 0
                  ? res.energyJ / static_cast<double>(res.insts)
                  : 0.0;
    res.finalDieTempC = system.thermalModel().dieTempC();
    system.attachGovernor(nullptr);
    return res;
}

} // namespace piton::governor
