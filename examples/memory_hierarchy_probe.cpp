/**
 * @file
 * Memory-hierarchy probe: walk an address pattern through the cache
 * hierarchy and report where each access hits, its latency, and the
 * accumulated energy — the Table VII methodology turned into a
 * diagnostic tool for cache/coherence behaviour.
 *
 * Usage:
 *   memory_hierarchy_probe [--stride BYTES] [--count N] [--tile T]
 *     --tile  requesting tile, 0-24
 */

#include <cstdio>

#include "arch/mem_system.hh"
#include "arch/memory.hh"
#include "common/cli.hh"
#include "config/piton_params.hh"
#include "power/energy_model.hh"

int
main(int argc, char **argv)
{
    using namespace piton;

    Addr stride = 51200; // aliases one L1 set, stays at one home tile
    int count = 12;
    TileId tile = 0;
    CommandLine()
        .count("--stride", stride, 1)
        .count("--count", count, 1)
        .count("--tile", tile, 0, 24)
        .parse(argc, argv);

    config::PitonParams params;
    power::EnergyModel energy;
    power::EnergyLedger ledger;
    arch::MainMemory memory;
    arch::MemorySystem mem(params, energy, ledger, memory);

    std::printf("probing from tile %u, stride %llu B, two passes over %d "
                "addresses\n\n",
                tile, static_cast<unsigned long long>(stride), count);
    std::printf("%-6s %-14s %-6s %-22s %-10s\n", "pass", "address", "home",
                "level", "latency");

    Cycle now = 0;
    for (int pass = 1; pass <= 2; ++pass) {
        for (int i = 0; i < count; ++i) {
            const Addr a = 0x100000 + static_cast<Addr>(i) * stride;
            RegVal data;
            const arch::AccessOutcome out = mem.load(tile, a, data, now);
            now += out.latency;
            std::printf("%-6d 0x%-12llx %-6u %-22s %u\n", pass,
                        static_cast<unsigned long long>(a),
                        mem.homeTile(a), arch::hitLevelName(out.level),
                        out.latency);
        }
    }

    std::printf("\naccumulated energy: %.1f nJ on-chip, %.1f nJ off-chip "
                "excursions\n",
                jToNj(ledger.total().onChipCoreAndSram()
                      - ledger.category(power::Category::OffChip)
                            .onChipCoreAndSram()),
                jToNj(ledger.category(power::Category::OffChip)
                          .onChipCoreAndSram()));
    std::printf("stats: %llu loads, %llu L1 hits, %llu local / %llu "
                "remote L2 hits, %llu misses\n",
                static_cast<unsigned long long>(mem.stats().loads),
                static_cast<unsigned long long>(mem.stats().l1Hits),
                static_cast<unsigned long long>(mem.stats().localL2Hits),
                static_cast<unsigned long long>(mem.stats().remoteL2Hits),
                static_cast<unsigned long long>(mem.stats().offChipMisses));
    return 0;
}
