/**
 * @file
 * Sparse functional memory backing store.
 *
 * Holds the architectural contents of DRAM as 4 KB pages allocated on
 * first touch.  Timing and energy of DRAM accesses are modelled in
 * Chipset; this class is purely functional state.  Real data values are
 * kept (not just tags) because NoC link energy depends on the bit
 * patterns of cache-line payloads.
 */

#ifndef PITON_ARCH_MEMORY_HH
#define PITON_ARCH_MEMORY_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace piton::arch
{

/** A simulated program did something the machine cannot execute (an
 *  unaligned 64-bit access, a PC past the program's end).  Distinct
 *  from a simulator panic (std::logic_error): the program's bytes are
 *  at fault, which a restored checkpoint image can bring about. */
class ProgramFault : public std::runtime_error
{
  public:
    explicit ProgramFault(const std::string &what)
        : std::runtime_error(what)
    {}
};

class MainMemory
{
  public:
    static constexpr Addr kPageBytes = 4096;

    /** Read an aligned 64-bit word; untouched memory reads as zero. */
    RegVal read64(Addr addr) const;

    /** Write an aligned 64-bit word. */
    void write64(Addr addr, RegVal value);

    /** Read an aligned block (for cache-line fills) into out. */
    void readBlock(Addr addr, std::size_t bytes,
                   std::vector<RegVal> &out) const;

    /** Number of pages currently allocated (for tests/diagnostics). */
    std::size_t pageCount() const { return pages_.size(); }

    /**
     * Checkpoint hook: pages in sorted-key order, so the byte stream
     * is independent of unordered_map iteration order (load rejects
     * any other order).  Each page lists only its non-zero words
     * (format v6, Archive::ioSparse); all-zero pages still list their
     * key, so a restore re-creates every touched page (pageCount()
     * survives).
     */
    template <typename Ar>
    void
    serialize(Ar &ar)
    {
        constexpr std::uint64_t kWords = kPageBytes / 8;
        std::vector<Addr> keys;
        if (ar.saving()) {
            keys.reserve(pages_.size());
            for (const auto &kv : pages_)
                keys.push_back(kv.first);
            std::sort(keys.begin(), keys.end());
        }
        // u64 key + u64 word count.
        std::uint64_t n = ar.ioSize(keys.size(), 8 + 8);
        if (ar.loading())
            pages_.clear();
        Addr prev = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            Addr key = ar.saving() ? keys[i] : 0;
            ar.io(key);
            Ar::check(i == 0 || key > prev, "page keys not ascending");
            prev = key;
            Page &page = pages_[key]; // load: creates; save: exists
            if (ar.loading())
                page.resize(kWords);
            Ar::check(page.size() == kWords, "bad page size");
            // Entry: u16 word index, u64 value.
            ar.template ioSparse<std::uint16_t>(
                page.data(), kWords, 8, [&](RegVal &w) { ar.io(w); },
                "page word");
        }
    }

  private:
    using Page = std::vector<RegVal>; // kPageBytes / 8 words

    static Addr pageOf(Addr addr) { return addr / kPageBytes; }
    static std::size_t
    wordIndex(Addr addr)
    {
        return static_cast<std::size_t>((addr % kPageBytes) / 8);
    }

    Page &pageFor(Addr addr);
    const Page *pageForRead(Addr addr) const;

    std::unordered_map<Addr, Page> pages_;
};

} // namespace piton::arch

#endif // PITON_ARCH_MEMORY_HH
