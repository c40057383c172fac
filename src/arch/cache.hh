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

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>

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

struct CacheLine
{
    Addr tag = 0;       ///< line-aligned address
    Mesi state = Mesi::Invalid;
    Cycle lastUse = 0;  ///< for LRU

    bool valid() const { return state != Mesi::Invalid; }
    bool dirty() const { return state == Mesi::Modified; }
    bool operator==(const CacheLine &) const = default;
};

// CacheLine{} is all zero bytes, so zero-filled pages hold default lines.
static_assert(static_cast<int>(Mesi::Invalid) == 0);
static_assert(std::is_trivially_copyable_v<CacheLine>);

/** Unmaps a mapZeroLines() block. */
struct LineUnmap
{
    std::size_t bytes = 0;
    void operator()(CacheLine *lines) const;
};

/** Owner of a block of lines on anonymous pages. */
using LinePages = std::unique_ptr<CacheLine, LineUnmap>;

/**
 * `n` CacheLine{}s on fresh anonymous zero-filled pages (POSIX mmap).
 * Mapping writes nothing, and a page costs resident memory only once a
 * line on it is written, so a chip pays only for the lines it touches.
 * (calloc does not give this: once a large block is freed, glibc
 * raises its mmap threshold, serves the next one from the heap and
 * memsets it.)  Throws std::bad_alloc when the mapping fails.
 */
LinePages mapZeroLines(std::size_t n);

/** Result of a fill: the line that was evicted, if any. */
struct Eviction
{
    bool happened = false;
    Addr lineAddr = 0;
    Mesi state = Mesi::Invalid;
};

/**
 * Lines live on zero pages (mapZeroLines), and the array tracks the
 * window [lo, hi) of line indices that fill() or a checkpoint load
 * ever wrote since the last flushAll(); every line outside it is
 * CacheLine{}.  Lookups reach only valid lines, which lie inside the
 * window, and every whole-array scan (flushAll, validCount, serialize)
 * walks only the window, so untouched lines cost neither time nor
 * resident memory.
 */
class CacheArray
{
  public:
    /** An array on its own zero pages. */
    explicit CacheArray(const config::CacheParams &params);

    /** An array on `next`, which must hold slots(params) CacheLine{}s
     *  and outlive the array; advances `next` past them. */
    CacheArray(const config::CacheParams &params, CacheLine *&next);

    /** Lines an array of this geometry takes from its storage: the
     *  host-cache stagger pad plus sets * ways. */
    static std::size_t slots(const config::CacheParams &params);

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
     *  for the array's lifetime (line storage never moves). */
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

    /** All sets * ways lines, row-major (tests, diagnostics). */
    std::span<const CacheLine> lines() const
    {
        return {lines_, static_cast<std::size_t>(sets_) * ways_};
    }

    /** The written-line window [lo, hi) (tests, diagnostics). */
    std::pair<std::size_t, std::size_t> window() const { return {lo_, hi_}; }

    /**
     * Checkpoint hook.  The stagger pad is derived from the host
     * address of the array and differs run to run, so only the
     * sets_ * ways_ real lines are serialized (geometry is
     * fingerprinted, not restored: the array must be constructed with
     * the same CacheParams first).
     *
     * Sparse (format v6, Archive::ioSparse): only lines that differ
     * from CacheLine{} are listed.  That compares all three fields,
     * not valid(): invalidate() keeps tag and lastUse, and those must
     * round-trip too.  Only the window is scanned and, on load, reset;
     * the bytes are those of a scan over the whole array.
     */
    template <typename Ar>
    void
    serialize(Ar &ar)
    {
        ar.ioExpect(sets_, "cache sets");
        ar.ioExpect(ways_, "cache ways");
        ar.ioExpect(lineBytes_, "cache line bytes");
        const std::size_t n = static_cast<std::size_t>(sets_) * ways_;
        const std::size_t lo = lo_, hi = hi_;
        // A load that throws part-way may have written any line; the
        // whole-array window keeps the invariant until a load succeeds.
        if (ar.loading()) {
            lo_ = 0;
            hi_ = n;
        }
        // Entry: u32 index, u64 tag, u64 state (ioEnum), u64 lastUse.
        const auto listed = ar.template ioSparse<std::uint32_t>(
            lines_, n, 8 + 8 + 8,
            [&](CacheLine &cl) {
                ar.io(cl.tag);
                ar.ioEnum(cl.state, static_cast<Mesi>(4)); // one past Modified
                ar.io(cl.lastUse);
            },
            "cache line", lo, hi);
        if (ar.loading()) {
            lo_ = listed.first;
            hi_ = listed.second;
        }
    }

  private:
    /** Lines on `storage`, or on `own` when it holds a block. */
    CacheArray(const config::CacheParams &params, CacheLine *storage,
               LinePages own);

    CacheLine *
    find(Addr addr)
    {
        const Addr line = lineAlign(addr);
        const std::size_t base =
            static_cast<std::size_t>(setOf(addr)) * ways_;
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
    LinePages own_;             ///< the standalone array's pages, else empty
    CacheLine *lines_ = nullptr; ///< sets_ * ways_ lines, row-major
    std::size_t lo_ = 0;        ///< written-line window [lo_, hi_)
    std::size_t hi_ = 0;
};

} // namespace piton::arch

#endif // PITON_ARCH_CACHE_HH
