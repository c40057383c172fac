/**
 * @file
 * The Piton memory hierarchy: per-tile L1I / write-through L1D /
 * write-back L1.5, the distributed shared L2 with its integrated
 * directory (MESI), the three NoCs, and the off-chip chipset path.
 *
 * Coherence transactions are resolved atomically at the home L2 slice
 * ("transaction-level" modelling): when a core access misses, the full
 * transaction — directory lookup, sharer invalidations, forwards,
 * off-chip fetch — executes immediately against the architectural
 * state, returning the cycle latency the requesting thread must wait
 * and charging every constituent energy event (cache accesses, NoC
 * flits with real payload toggles, chip-bridge/VIO crossings) to the
 * ledger.  The characterization workloads never saturate the NoCs or
 * the memory controller, so contention is folded into the calibrated
 * per-stage latencies (Table VII / Fig. 15).
 */

#ifndef PITON_ARCH_MEM_SYSTEM_HH
#define PITON_ARCH_MEM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "arch/cache.hh"
#include "arch/chipset.hh"
#include "arch/memory.hh"
#include "arch/noc.hh"
#include "common/types.hh"
#include "config/piton_params.hh"
#include "power/energy_model.hh"

namespace piton::ckpt
{
class Archive;
}

namespace piton::arch
{

/** Where a request was satisfied (Table VII's scenarios). */
enum class HitLevel : std::uint8_t
{
    L1,
    L15,
    LocalL2,
    RemoteL2,
    OffChip,
};

const char *hitLevelName(HitLevel l);

struct AccessOutcome
{
    std::uint32_t latency = 0; ///< cycles from issue to completion
    HitLevel level = HitLevel::L1;
};

/** Fixed latency components (Table VII, verified in simulation). */
struct MemLatencies
{
    std::uint32_t l1Hit = 3;
    std::uint32_t l15Hit = 8;
    std::uint32_t localL2Hit = 34;
    std::uint32_t perHop = 2;  ///< request + response direction
    std::uint32_t perTurn = 2;
    std::uint32_t storeBuffer = 10;
};

struct MemStats
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t atomics = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l15Hits = 0;
    std::uint64_t localL2Hits = 0;
    std::uint64_t remoteL2Hits = 0;
    std::uint64_t offChipMisses = 0;
    std::uint64_t ifetchMisses = 0;
    std::uint64_t invalidationsSent = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t upgrades = 0;
};

class MemorySystem
{
  public:
    MemorySystem(const config::PitonParams &params,
                 const power::EnergyModel &energy,
                 power::EnergyLedger &ledger, MainMemory &memory,
                 std::uint64_t seed = 0xBEEF);

    // ---- core-facing interface -------------------------------------

    /** 64-bit load; data returned through `data`. */
    AccessOutcome load(TileId tile, Addr addr, RegVal &data, Cycle now);

    /**
     * 64-bit store.  The returned latency is the store-buffer occupancy
     * (how long the entry stays before draining to the L1.5).
     */
    AccessOutcome store(TileId tile, Addr addr, RegVal data, Cycle now);

    /** Compare-and-swap, performed at the home L2 slice. */
    AccessOutcome atomicCas(TileId tile, Addr addr, RegVal expected,
                            RegVal swap, RegVal &old, Cycle now);

    /** Extra fetch latency beyond the pipeline (0 on an L1I hit). */
    std::uint32_t ifetch(TileId tile, Addr pc, Cycle now)
    {
        const Addr line = pc & ~static_cast<Addr>(params_.l1i.lineBytes - 1);
        if (tiles_[tile].l1i.access(line, now)) [[likely]]
            return 0;
        return ifetchMiss(tile, line, now);
    }

    /** L1I miss path of ifetch(): fills the line from the home L2 and
     *  returns the extra latency (never 0); `line` is line-aligned and
     *  not resident. */
    std::uint32_t ifetchMiss(TileId tile, Addr line, Cycle now);

    /** Resident-L1I line handle, without the LRU touch (Core applies
     *  it and keeps the handle in its per-thread MRU fetch filter);
     *  nullptr when not resident. */
    CacheLine *l1iLine(TileId tile, Addr line)
    {
        return tiles_[tile].l1i.lineAt(line);
    }

    // ---- chipset-facing interface (Fig. 12 experiment) --------------

    /**
     * Inject an invalidation-type packet from the chip bridge (enters
     * the mesh at tile 0) to `dst`, with the given payload flits.
     * Returns the NoC result for the injected packet.
     */
    NocSendResult injectPacket(TileId dst,
                               const std::vector<RegVal> &payload);

    // ---- configuration ----------------------------------------------

    /** Line->slice mapping, software-configurable per Section IV-F. */
    void setSliceMapping(config::LineToSliceMapping mapping);
    TileId homeTile(Addr addr) const;

    // ---- Coherence Domain Restriction (CDR, Fu et al. MICRO'15) -----
    //
    // Piton's L2 implements CDR: shared memory regions can be
    // restricted to an arbitrary subset of cores, shrinking the
    // directory's sharer vector and bounding invalidation fan-out in
    // large systems.

    /** Restrict coherence for [base, base+size) to the tiles in
     *  `tile_mask` (bit per tile). Accesses from outside the domain
     *  are a programming error (panic). */
    void addCoherenceDomain(Addr base, Addr size, std::uint32_t tile_mask);
    /** Domain tile mask covering `addr` (all tiles if unrestricted). */
    std::uint32_t domainMaskFor(Addr addr) const;

    const MemStats &stats() const { return stats_; }
    void resetStats() { stats_ = MemStats{}; }
    const MemLatencies &latencies() const { return lat_; }
    NocNetwork &noc() { return noc_; }
    Chipset &chipset() { return chipset_; }

    /** Drop all cached state (power-on reset). */
    void flushAll();

    /** Checkpoint hook: caches, directory, atomic serialization state,
     *  NoC, chipset, slice-mapping configuration, and counters. */
    void serialize(ckpt::Archive &ar);

    // ---- diagnostic probes (tests, tools) ----------------------------

    /** MESI state of a line in a tile's L1.5 (no LRU side effects). */
    Mesi probeL15(TileId tile, Addr addr) const;
    /** MESI state of a line in a tile's L1D. */
    Mesi probeL1d(TileId tile, Addr addr) const;
    /** MESI state of a line in a tile's L2 slice. */
    Mesi probeL2(TileId tile, Addr addr) const;

  private:
    struct DirEntry
    {
        std::uint32_t sharers = 0; ///< L1.5 sharer bitmask (25 tiles)
        bool owned = false;        ///< a single M owner exists
        TileId owner = 0;
    };

    struct CoherenceDomain
    {
        Addr base = 0;
        Addr size = 0;
        std::uint32_t tileMask = 0;
    };

    struct Tile
    {
        CacheArray l1i;
        CacheArray l1d;
        CacheArray l15;
        CacheArray l2; ///< this tile's slice of the shared L2

        /** Takes the four arrays' lines from `next` and advances it. */
        Tile(const config::PitonParams &p, CacheLine *&next)
            : l1i(p.l1i, next), l1d(p.l1d, next), l15(p.l15, next),
              l2(p.l2Slice, next)
        {}

        static std::size_t
        slots(const config::PitonParams &p)
        {
            return CacheArray::slots(p.l1i) + CacheArray::slots(p.l1d)
                   + CacheArray::slots(p.l15) + CacheArray::slots(p.l2Slice);
        }
    };

    Addr l2LineAlign(Addr a) const;

    /** Fetch a 16 B subline into tile's L1.5 (and optionally L1D) with
     *  the given MESI state; handles L1.5 dirty evictions. */
    void fillPrivate(TileId tile, Addr addr, Mesi state, Cycle now,
                     bool fill_l1d);

    /** Invalidate a 64 B L2 line from one tile's private caches. */
    void invalidateTileLine(TileId tile, Addr l2_line, Cycle now);

    /** Invalidate every sharer except `except`; charges NoC + L1.5. */
    void invalidateSharers(DirEntry &dir, Addr l2_line, TileId home,
                           TileId except, Cycle now);

    /** Handle an L1.5 dirty eviction: writeback packet to home L2. */
    void writebackToL2(TileId tile, Addr line_addr, Cycle now);

    /**
     * Obtain a 64 B line at the home L2 slice (hit or off-chip fill),
     * returning the latency of that portion and charging energy.
     */
    std::uint32_t accessHomeL2(TileId requester, TileId home, Addr addr,
                               bool exclusive, Cycle now, HitLevel &level);

    /** Request/response NoC round trip between requester and home. */
    std::uint32_t nocRoundTrip(TileId requester, TileId home, Addr addr,
                               Cycle now, std::uint8_t req_type);

    /** Charge stall energy for a thread waiting `cycles`. */
    void chargeStall(std::uint32_t cycles);

    /** Charge an L2 + directory access; the directory's sharer-vector
     *  energy shrinks with the CDR domain size. */
    void chargeL2Access(Addr addr);

    /** Panic if `tile` is outside `addr`'s coherence domain. */
    void checkDomain(TileId tile, Addr addr) const;

    const config::PitonParams &params_;
    const power::EnergyModel &energy_;
    power::EnergyLedger &ledger_;
    MainMemory &memory_;
    NocNetwork noc_;
    Chipset chipset_;
    MemLatencies lat_;
    LinePages cacheLines_; ///< every tile's arrays, on one zero-page block
    std::vector<Tile> tiles_;
    std::unordered_map<Addr, DirEntry> directory_; ///< keyed by L2 line
    /** Atomic RMWs serialize at the home L2 slice; this tracks when
     *  each contended line is next free (lock contention modelling). */
    std::unordered_map<Addr, Cycle> atomicBusyUntil_;
    config::LineToSliceMapping mapping_;
    std::vector<CoherenceDomain> domains_;
    MemStats stats_;
};

} // namespace piton::arch

#endif // PITON_ARCH_MEM_SYSTEM_HH
