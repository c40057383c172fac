/**
 * @file
 * Generic set-associative cache tag array with true-LRU replacement.
 *
 * Used for all four cache levels (L1I, L1D, L1.5, L2 slice).  Only tags
 * and per-line metadata live here — data contents stay in MainMemory
 * (the simulator keeps a single architectural copy and relies on the
 * transaction-level coherence model in MemorySystem for ordering).
 *
 * Line metadata carries a MESI state so the same array serves both the
 * private caches (which only use I/S/M semantics) and the L2 slices.
 */

#ifndef PITON_ARCH_CACHE_HH
#define PITON_ARCH_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "config/piton_params.hh"

namespace piton::arch
{

/** MESI stable states. */
enum class Mesi : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

const char *mesiName(Mesi s);

struct CacheLine
{
    Addr tag = 0;       ///< line-aligned address
    Mesi state = Mesi::Invalid;
    Cycle lastUse = 0;  ///< for LRU

    bool valid() const { return state != Mesi::Invalid; }
    bool dirty() const { return state == Mesi::Modified; }
    bool operator==(const CacheLine &) const = default;
};

/** Result of a fill: the line that was evicted, if any. */
struct Eviction
{
    bool happened = false;
    Addr lineAddr = 0;
    Mesi state = Mesi::Invalid;
};

class CacheArray
{
  public:
    explicit CacheArray(const config::CacheParams &params);

    std::uint32_t numSets() const { return sets_; }
    std::uint32_t ways() const { return ways_; }
    std::uint32_t lineBytes() const { return lineBytes_; }

    Addr lineAlign(Addr a) const { return a & ~static_cast<Addr>(lineBytes_ - 1); }
    std::uint32_t setOf(Addr a) const
    {
        // Line size is asserted to be a power of two; sets almost
        // always are too, so the hot path is shift+mask (the modulo
        // fallback keeps odd geometries working).
        const Addr idx = a >> lineShift_;
        return setsPow2_ ? static_cast<std::uint32_t>(idx & (sets_ - 1))
                         : static_cast<std::uint32_t>(idx % sets_);
    }

    /** Look a line up; returns its state without touching LRU. */
    Mesi
    probe(Addr addr) const
    {
        const CacheLine *cl = find(addr);
        return cl ? cl->state : Mesi::Invalid;
    }

    /** Look a line up and update LRU on hit. */
    bool
    access(Addr addr, Cycle now)
    {
        CacheLine *cl = find(addr);
        if (!cl)
            return false;
        cl->lastUse = now;
        return true;
    }

    /** Mutable handle to a resident line, or nullptr.  Does not touch
     *  LRU; callers caching the pointer must revalidate tag+state on
     *  every use (fills can repurpose the slot).  Pointers stay alive
     *  for the array's lifetime (the line vector never reallocates). */
    CacheLine *lineAt(Addr addr) { return find(addr); }

    /** Change a resident line's state; false if the line is absent. */
    bool setState(Addr addr, Mesi state);

    /** Insert (or overwrite) a line, evicting the LRU victim. */
    Eviction fill(Addr addr, Mesi state, Cycle now);

    /** Invalidate if present; returns the previous state. */
    Mesi invalidate(Addr addr);

    /** Number of valid lines (diagnostics). */
    std::size_t validCount() const;

    /** Drop all contents (power-on reset). */
    void flushAll();

    /**
     * Checkpoint hook.  The pad_ stagger is derived from the host
     * allocation address and differs run to run, so only the
     * sets_ * ways_ real lines are serialized (geometry is
     * fingerprinted, not restored: the array must be constructed with
     * the same CacheParams first).
     *
     * Sparse (format v6, Archive::ioSparse): only lines that differ
     * from CacheLine{} are listed.  That compares all three fields,
     * not valid(): invalidate() keeps tag and lastUse, and those must
     * round-trip too.
     */
    template <typename Ar>
    void
    serialize(Ar &ar)
    {
        ar.ioExpect(sets_, "cache sets");
        ar.ioExpect(ways_, "cache ways");
        ar.ioExpect(lineBytes_, "cache line bytes");
        // Entry: u32 index, u64 tag, u64 state (ioEnum), u64 lastUse.
        ar.template ioSparse<std::uint32_t>(
            lines_.data() + pad_, static_cast<std::size_t>(sets_) * ways_,
            8 + 8 + 8,
            [&](CacheLine &cl) {
                ar.io(cl.tag);
                ar.ioEnum(cl.state, static_cast<Mesi>(4)); // one past Modified
                ar.io(cl.lastUse);
            },
            "cache line");
    }

  private:
    CacheLine *
    find(Addr addr)
    {
        const Addr line = lineAlign(addr);
        const std::size_t base =
            pad_ + static_cast<std::size_t>(setOf(addr)) * ways_;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            CacheLine &cl = lines_[base + w];
            if (cl.valid() && cl.tag == line)
                return &cl;
        }
        return nullptr;
    }
    const CacheLine *
    find(Addr addr) const
    {
        return const_cast<CacheArray *>(this)->find(addr);
    }

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::uint32_t lineBytes_;
    std::uint32_t lineShift_;  ///< log2(lineBytes_)
    bool setsPow2_;
    /**
     * Leading dummy entries in lines_, staggering each instance's hot
     * metadata across host-cache sets.  The 25 tiles run identical
     * programs at identical addresses, so without the stagger every
     * tile's hot line sits at the same offset of a same-sized
     * allocation and the per-cycle tile sweep thrashes a single host
     * L1 set.  Model-visible behaviour is unaffected.
     */
    std::uint32_t pad_ = 0;
    std::vector<CacheLine> lines_; // pad_ + sets_ * ways_, row-major
};

} // namespace piton::arch

#endif // PITON_ARCH_CACHE_HH
