/**
 * @file
 * Versioned, sectioned binary serialization for simulation checkpoints
 * (DESIGN.md §10).
 *
 * A checkpoint file is a fixed header (magic + format version) followed
 * by named sections, each carrying its payload length and a CRC32 of
 * the payload.  Sections are independent: readers locate them by name,
 * so optional state (e.g. telemetry) can be present or absent and
 * future versions can append sections without breaking older layouts
 * of the same version.
 *
 * The same `Archive` object drives both directions: every stateful
 * class implements one `serialize(ckpt::Archive &)` hook whose body is
 * a sequence of `ar.io(field)` calls, and the mode (Save/Load) decides
 * whether each call writes the field out or reads it back.  Symmetry of
 * the byte layout is therefore guaranteed by construction.
 *
 * Encoding rules (all enforced here, not in the hooks):
 *  - scalars are fixed-width little-endian; no struct is ever dumped
 *    raw (padding bytes would make the CRC nondeterministic);
 *  - doubles are stored as their raw IEEE-754 bit pattern, so restore
 *    is bit-exact (the simulator's determinism contract compares FP
 *    accumulator sums as raw bits);
 *  - enums go through ioEnum with an explicit exclusive bound, so a
 *    handcrafted file cannot smuggle an out-of-range discriminant into
 *    a switch or array index;
 *  - container sizes are sanity-checked against the bytes remaining in
 *    the section before any allocation.
 *
 * Every failure — bad magic, version mismatch, CRC mismatch,
 * truncation, missing section, trailing bytes, range violation — throws
 * CheckpointError with a descriptive message; restore never exhibits
 * undefined behaviour on malformed input.
 */

#ifndef PITON_CHECKPOINT_ARCHIVE_HH
#define PITON_CHECKPOINT_ARCHIVE_HH

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace piton::ckpt
{

/** Thrown on any malformed, truncated, or mismatched checkpoint. */
class CheckpointError : public std::runtime_error
{
  public:
    explicit CheckpointError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** 8-byte file magic. */
inline constexpr char kMagic[8] = {'P', 'I', 'T', 'O', 'N', 'C', 'K', 'P'};

/** Format version; bump on any layout change (no cross-version
 *  compatibility: a checkpoint is a resume artifact, not an exchange
 *  format — see DESIGN.md §10 for the policy).
 *  v2: per-tile energies moved out of chip.cores into the SoA
 *  chip.tile_energy section.
 *  v3: optional sys.governor section (DVFS control-loop state) and the
 *  Volts/Amps telemetry units.
 *  v4: chip.bbv section (per-tile BBV histograms) and the optional
 *  sys.sampling section (interval-profiler state).  Nothing writes
 *  sys.sampling any more; forLoad skips sections nobody opens, so an
 *  image that still carries one restores and the section is ignored.
 *  v5: static per-tile duty gating — tileFreqMhz joins the sys.meta
 *  fingerprint and the sys.duty section carries the Bresenham
 *  accumulators of ungoverned placed runs.
 *  v6: sparse chip.mem and chip.memory — cache arrays list only lines
 *  that differ from CacheLine{} (u32 index + fields), memory pages
 *  only their non-zero words (u16 index + u64 value). */
inline constexpr std::uint32_t kFormatVersion = 6;

/** CRC32 (IEEE 802.3, reflected) of a byte range. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t len);

/**
 * Zero-run packing of a checkpoint image, for images held in memory
 * (most image bytes are zero: unused registers, cleared counters, the
 * high bytes of small fields).  The packed form is a LEB128 varint of
 * the unpacked length, then tokens of varint(zero bytes),
 * varint(literal bytes) and the literal bytes; a zero run shorter than
 * three bytes stays inside its literal.  It is an in-memory form only:
 * archives always carry images unpacked.
 */
std::vector<std::uint8_t> packImage(const std::vector<std::uint8_t> &raw);

/** Inverse of packImage.  Throws CheckpointError on a malformed
 *  stream (truncated varint or literal, or tokens that do not add up
 *  to the recorded length); the whole stream is checked before the
 *  output is allocated. */
std::vector<std::uint8_t> unpackImage(const std::vector<std::uint8_t> &packed);

class Archive
{
  public:
    enum class Mode : std::uint8_t
    {
        Save,
        Load,
    };

    /** A saving archive, accumulating sections in memory. */
    static Archive forSave();
    /** A loading archive over a complete checkpoint image; validates
     *  magic, version, and the section directory immediately. */
    static Archive forLoad(std::vector<std::uint8_t> bytes);

    bool saving() const { return mode_ == Mode::Save; }
    bool loading() const { return mode_ == Mode::Load; }

    /**
     * Open a section.  Saving: starts buffering a new section (sections
     * must not nest).  Loading: locates the section by name, verifies
     * its CRC, and positions the read cursor at its start.
     */
    void beginSection(const std::string &name);

    /** Close the current section.  Loading additionally requires the
     *  payload to be fully consumed: leftover bytes mean the writer and
     *  reader disagree about the layout. */
    void endSection();

    /** Whether a section exists (loading only; optional state). */
    bool hasSection(const std::string &name) const;

    /** Finalize a saving archive into the complete checkpoint image. */
    std::vector<std::uint8_t> finish();

    // ---- symmetric field I/O ----------------------------------------

    void io(bool &v);
    /** Any other integer: sizeof(T) little-endian bytes (a signed one
     *  as its two's-complement bits).  Out of line, instantiated in
     *  archive.cc for the widths the hooks use: inlined into every
     *  serialize hook, it made a System save about 20 % slower. */
    template <typename T>
        requires(std::integral<T> && !std::same_as<T, bool>)
    void io(T &v);
    /** Raw IEEE-754 bit pattern (bit-exact round trip, incl. NaNs). */
    void io(double &v);
    /** A string or byte vector: an ioSize length (1 byte per element),
     *  then the payload in one copy. */
    void io(std::string &v) { ioRange(v); }
    void io(std::vector<std::uint8_t> &v) { ioRange(v); }

    /** Enum through its underlying integer with an exclusive bound. */
    template <typename E>
    void
    ioEnum(E &v, E bound)
    {
        using U = std::underlying_type_t<E>;
        std::uint64_t raw = static_cast<std::uint64_t>(static_cast<U>(v));
        io(raw);
        check(raw < static_cast<std::uint64_t>(static_cast<U>(bound)),
              "enum value out of range");
        v = static_cast<E>(static_cast<U>(raw));
    }

    /**
     * Container size: saving writes `n`; loading reads it and verifies
     * that `n * min_elem_bytes` still fits in the unread remainder of
     * the section (a cheap guard against allocation bombs from a file
     * whose CRC happens to validate).
     */
    std::uint64_t ioSize(std::uint64_t n, std::uint64_t min_elem_bytes = 1);

    /**
     * Sparse array of `n` elements (format v6): the count of elements
     * that differ from T{}, then (Index, element) pairs in strictly
     * ascending index order, each element through `io_elem`, which
     * encodes `elem_bytes` bytes.  Loading rejects a count above `n`,
     * an index out of range or not ascending, and a listed element
     * equal to T{}, so every accepted payload re-saves to the same
     * bytes.  `what` names the element in error messages.
     *
     * Only the window [lo, hi) (default: all `n`) is touched: the
     * caller guarantees that every element outside it is T{}.  Saving
     * scans only the window; loading resets only the window to T{}
     * before reading, and may then write any index below `n`.  Returns
     * the span [first, last + 1) of the listed indices, or [0, 0) when
     * none is listed; a load throws before returning, so a caller that
     * tracks a window must assume any element may have been written.
     */
    template <typename Index, typename T, typename IoElem>
    std::pair<std::size_t, std::size_t>
    ioSparse(T *items, std::size_t n, std::uint64_t elem_bytes,
             IoElem io_elem, const char *what, std::size_t lo = 0,
             std::size_t hi = SIZE_MAX)
    {
        hi = std::min(hi, n);
        lo = std::min(lo, hi);
        std::uint64_t live = 0;
        if (saving())
            live = static_cast<std::uint64_t>(std::count_if(
                items + lo, items + hi, [](const T &x) { return x != T{}; }));
        live = ioSize(live, sizeof(Index) + elem_bytes);
        if (live > n)
            throw CheckpointError(std::string(what)
                                  + " count exceeds capacity");
        if (loading())
            std::fill(items + lo, items + hi, T{});
        if (live == 0)
            return {0, 0};
        // Lowest index the next entry may take.
        std::size_t next = saving() ? lo : 0;
        std::size_t first = 0;
        for (std::uint64_t k = 0; k < live; ++k) {
            if (saving())
                while (items[next] == T{})
                    ++next;
            auto idx = static_cast<Index>(next);
            io(idx);
            if (idx >= n)
                throw CheckpointError(std::string(what)
                                      + " index out of range");
            if (idx < next)
                throw CheckpointError(std::string(what)
                                      + " indices not ascending");
            io_elem(items[idx]);
            if (items[idx] == T{})
                throw CheckpointError(std::string(what)
                                      + " listed at its default");
            if (k == 0)
                first = idx;
            next = static_cast<std::size_t>(idx) + 1;
        }
        return {first, next};
    }

    /**
     * Loading: verify a value matches what the checkpoint was saved
     * with (configuration fingerprints).  Saving: writes the value.
     */
    template <typename T>
    void
    ioExpect(T expected, const char *what)
    {
        T got = expected;
        io(got);
        if (loading() && !(got == expected))
            throw CheckpointError(std::string("checkpoint mismatch: ")
                                  + what);
    }

    /** Throw CheckpointError(msg) unless cond holds. */
    static void
    check(bool cond, const char *msg)
    {
        if (!cond)
            throw CheckpointError(msg);
    }

  private:
    explicit Archive(Mode mode) : mode_(mode) {}

    void put(const void *p, std::size_t n);
    void get(void *p, std::size_t n);
    template <typename C>
    void ioRange(C &v);

    struct SectionEntry
    {
        std::string name;
        std::size_t offset = 0; ///< payload start within bytes_
        std::size_t length = 0;
    };

    Mode mode_;
    /** Save: finished section stream.  Load: the full image. */
    std::vector<std::uint8_t> bytes_;
    /** Save: payload of the in-progress section. */
    std::vector<std::uint8_t> cur_;
    std::string curName_;
    bool inSection_ = false;
    bool finished_ = false;
    std::uint32_t sectionCount_ = 0;
    /** Load: directory parsed up front, and the read cursor. */
    std::vector<SectionEntry> dir_;
    std::size_t readPos_ = 0;
    std::size_t readEnd_ = 0;
};

/** Write a complete checkpoint image to a file (throws on I/O error). */
void writeFile(const std::string &path,
               const std::vector<std::uint8_t> &bytes);

/** Read a whole file (throws CheckpointError on I/O error). */
std::vector<std::uint8_t> readFile(const std::string &path);

} // namespace piton::ckpt

#endif // PITON_CHECKPOINT_ARCHIVE_HH
