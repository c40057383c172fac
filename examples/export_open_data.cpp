/**
 * @file
 * Open-data export: write the characterization results as CSV files,
 * mirroring the paper's release of all collected data at
 * openpiton.org.  By default exports the fast datasets (area, yield,
 * V-f curves, system specs, SPECint model, Fig. 15 stages); pass
 * --full to also run and export the measurement-based studies (EPI,
 * memory energy, NoC EPF).
 *
 * Usage:
 *   export_open_data [output-dir] [--full] [--threads N]
 *
 * --threads N fans the sweep-style studies (V-f, EPI, memory energy)
 * out over N worker threads (0 = all hardware threads); the exported
 * CSVs are bit-identical at any thread count.
 */

#include <filesystem>
#include <fstream>
#include <iostream>

#include "arch/chipset.hh"
#include "bench_util.hh"
#include "chip/area_model.hh"
#include "chip/yield_model.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "core/app_experiments.hh"
#include "core/epi_experiment.hh"
#include "core/noc_experiment.hh"
#include "core/vf_experiments.hh"

namespace
{

using namespace piton;

void
writeCsv(const std::filesystem::path &dir, const std::string &name,
         const std::vector<std::vector<std::string>> &rows)
{
    std::ofstream out(dir / name);
    CsvWriter w(out);
    for (const auto &row : rows)
        w.writeRow(row);
    std::cout << "wrote " << (dir / name).string() << " (" << rows.size()
              << " rows)\n";
}

} // namespace

static int
benchMain(int argc, char **argv)
{
    std::string out = "open_data";
    bool full = false;
    unsigned threads = 1;
    CommandLine()
        .text("output-dir", out, "DIR")
        .flag("--full", full)
        .count("--threads", threads, 0, maxWorkerThreads())
        .parse(argc, argv);
    const std::filesystem::path dir = out;
    std::filesystem::create_directories(dir);

    // Fig. 8: area breakdown.
    {
        std::vector<std::vector<std::string>> rows = {
            {"level", "block", "percent", "area_mm2"}};
        const chip::AreaModel m;
        for (const auto *level : {&m.chip(), &m.tile(), &m.core()}) {
            for (const auto &b : level->blocks)
                rows.push_back(
                    {level->name, b.name, fmtF(b.percent, 2),
                     fmtF(level->totalMm2 * b.percent / 100.0, 5)});
        }
        writeCsv(dir, "fig8_area_breakdown.csv", rows);
    }

    // Table IV: yield.
    {
        std::vector<std::vector<std::string>> rows = {
            {"status", "symptom", "count_of_32", "model_probability"}};
        const chip::YieldModel m;
        const auto s = m.testDies(32, 314);
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(chip::DieStatus::NumStatuses);
             ++i) {
            const auto st = static_cast<chip::DieStatus>(i);
            rows.push_back({chip::dieStatusName(st),
                            chip::dieStatusSymptom(st),
                            std::to_string(s.of(st)),
                            fmtF(m.probabilityOf(st), 4)});
        }
        writeCsv(dir, "table4_yield.csv", rows);
    }

    // Fig. 9: V-f scaling for three chips.
    {
        std::vector<std::vector<std::string>> rows = {
            {"chip", "vdd_v", "fmax_mhz", "next_step_mhz",
             "thermally_limited", "die_temp_c"}};
        const core::VfScalingExperiment exp;
        for (const auto &p : exp.runAll({1, 2, 3}, threads)) {
            rows.push_back({std::to_string(p.chipId), fmtF(p.vddV, 2),
                            fmtF(p.fmaxMhz, 2), fmtF(p.nextStepMhz, 2),
                            p.thermallyLimited ? "1" : "0",
                            fmtF(p.dieTempC, 1)});
        }
        writeCsv(dir, "fig9_vf_scaling.csv", rows);
    }

    // Fig. 15: memory latency stages.
    {
        std::vector<std::vector<std::string>> rows = {
            {"component", "detail", "core_cycles"}};
        for (const auto &s : arch::Chipset::memoryLatencyStages())
            rows.push_back(
                {s.component, s.detail, std::to_string(s.coreCycles)});
        writeCsv(dir, "fig15_latency_stages.csv", rows);
    }

    // Table IX: SPECint model results.
    {
        std::vector<std::vector<std::string>> rows = {
            {"benchmark", "t1_minutes", "piton_minutes", "slowdown",
             "piton_avg_power_w", "piton_energy_kj", "cpi_t1",
             "cpi_piton"}};
        const auto model = core::makePaperSpecModel();
        for (const auto &r : model.evaluateAll()) {
            rows.push_back({r.name, fmtF(r.t1Minutes, 2),
                            fmtF(r.pitonMinutes, 2), fmtF(r.slowdown, 2),
                            fmtF(r.pitonAvgPowerW, 3),
                            fmtF(r.pitonEnergyKj, 3), fmtF(r.cpiT1, 3),
                            fmtF(r.cpiPiton, 3)});
        }
        writeCsv(dir, "table9_specint.csv", rows);
    }

    if (!full) {
        std::cout << "\n(fast datasets only; rerun with --full for the "
                     "EPI / memory-energy / NoC studies)\n";
        return 0;
    }

    // Fig. 11: EPI.
    {
        std::vector<std::vector<std::string>> rows = {
            {"instruction", "operand_pattern", "latency_cycles", "epi_pj",
             "err_pj"}};
        sim::SystemOptions opts;
        opts.sweepThreads = threads;
        core::EpiExperiment exp(opts, 64);
        for (const auto &r : exp.runAll()) {
            rows.push_back(
                {r.variant, workloads::operandPatternName(r.pattern),
                 std::to_string(
                     workloads::epiVariant(r.variant).latency),
                 fmtF(r.epiPj, 1), fmtF(r.errPj, 2)});
        }
        writeCsv(dir, "fig11_epi.csv", rows);
    }

    // Table VII: memory system energy.
    {
        std::vector<std::vector<std::string>> rows = {
            {"scenario", "latency_cycles", "energy_nj", "err_nj"}};
        sim::SystemOptions opts;
        opts.sweepThreads = threads;
        core::MemoryEnergyExperiment exp(opts, 64);
        for (const auto &r : exp.runAll()) {
            rows.push_back({workloads::memoryScenarioName(r.scenario),
                            std::to_string(r.latency),
                            fmtF(r.energyNj, 3), fmtF(r.errNj, 3)});
        }
        writeCsv(dir, "table7_memory_energy.csv", rows);
    }

    // Fig. 12: NoC EPF.
    {
        std::vector<std::vector<std::string>> rows = {
            {"pattern", "hops", "epf_pj", "err_pj"}};
        core::NocEnergyExperiment exp(sim::SystemOptions{}, 64);
        for (const auto &r : exp.runAll()) {
            rows.push_back({core::switchPatternName(r.pattern),
                            std::to_string(r.hops), fmtF(r.epfPj, 2),
                            fmtF(r.errPj, 2)});
        }
        writeCsv(dir, "fig12_noc_epf.csv", rows);
    }

    std::cout << "\nfull export complete.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return piton::bench::guardedMain(argc, argv, benchMain);
}
