#include "chip/area_model.hh"

#include "common/logging.hh"

namespace piton::chip
{

double
AreaLevel::percentSum() const
{
    double s = 0.0;
    for (const auto &b : blocks)
        s += b.percent;
    return s;
}

double
AreaLevel::blockPercent(const std::string &block) const
{
    for (const auto &b : blocks)
        if (b.name == block)
            return b.percent;
    piton_fatal("unknown area block '%s' at level '%s'", block.c_str(),
                name.c_str());
}

double
AreaLevel::blockAreaMm2(const std::string &block) const
{
    return totalMm2 * blockPercent(block) / 100.0;
}

AreaModel::AreaModel()
{
    // All numbers transcribed from the paper's Fig. 8.
    chip_.name = "chip";
    chip_.totalMm2 = 35.97552;
    chip_.blocks = {
        {"Tile0", 3.27},
        {"Tile 1-24", 78.37},
        {"Chip Bridge", 0.12},
        {"Clock Circuitry", 0.26},
        {"I/O Cells", 3.75},
        {"ORAM", 2.73},
        {"Timing Opt Buffers", 0.07},
        {"Filler", 9.32},
        {"Unutilized", 2.12},
    };

    tile_.name = "tile";
    tile_.totalMm2 = 1.17459;
    tile_.blocks = {
        {"Core", 47.00},
        {"L2 Cache", 22.16},
        {"L1.5 Cache", 7.62},
        {"NoC1 Router", 0.98},
        {"NoC2 Router", 0.95},
        {"NoC3 Router", 0.95},
        {"FPU", 2.64},
        {"MITTS", 0.17},
        {"JTAG", 0.10},
        {"Config Regs", 0.05},
        {"Clock Tree", 0.01},
        {"Timing Opt Buffers", 0.34},
        {"Filler", 16.32},
        {"Unutilized", 0.73},
    };

    core_.name = "core";
    core_.totalMm2 = 0.55205;
    core_.blocks = {
        {"Fetch", 17.52},
        {"Load/Store", 22.33},
        {"Execute", 2.38},
        {"Integer RF", 16.81},
        {"Trap Logic", 6.42},
        {"Multiply", 1.53},
        {"FP Front-End", 1.85},
        {"Config Regs", 0.11},
        {"CCX Buffers", 0.06},
        {"Clock Tree", 0.13},
        {"Timing Opt Buffers", 3.83},
        {"Filler", 26.13},
        {"Unutilized", 0.90},
    };
}

double
AreaModel::nocRouterTileFraction() const
{
    return (tile_.blockPercent("NoC1 Router")
            + tile_.blockPercent("NoC2 Router")
            + tile_.blockPercent("NoC3 Router"))
           / 100.0;
}

} // namespace piton::chip
