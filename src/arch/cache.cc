#include "arch/cache.hh"

#include <algorithm>
#include <bit>
#include <new>

#include <sys/mman.h>

#include "common/logging.hh"

namespace piton::arch
{

const char *
mesiName(Mesi s)
{
    switch (s) {
      case Mesi::Invalid: return "I";
      case Mesi::Shared: return "S";
      case Mesi::Exclusive: return "E";
      case Mesi::Modified: return "M";
      default:
        piton_panic("bad MESI state");
    }
}

void
LineUnmap::operator()(CacheLine *lines) const
{
    ::munmap(lines, bytes);
}

LinePages
mapZeroLines(std::size_t n)
{
    const std::size_t bytes = n * sizeof(CacheLine);
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return LinePages(static_cast<CacheLine *>(p), LineUnmap{bytes});
}

namespace
{

/**
 * Most leading dummy lines before an array's real lines, staggering
 * each instance's hot metadata across host-cache sets.  The 25 tiles
 * run identical programs at identical addresses, so without the
 * stagger every tile's hot line sits at the same offset of a
 * same-sized span and the per-cycle tile sweep thrashes a single host
 * L1 set.  Model-visible behaviour is unaffected.
 */
constexpr std::size_t kMaxPad = 171;

} // namespace

std::size_t
CacheArray::slots(const config::CacheParams &params)
{
    return kMaxPad + static_cast<std::size_t>(params.numSets())
                         * params.associativity;
}

CacheArray::CacheArray(const config::CacheParams &params,
                       CacheLine *storage, LinePages own)
    : sets_(params.numSets()), ways_(params.associativity),
      lineBytes_(params.lineBytes),
      lineShift_(static_cast<std::uint32_t>(
          std::countr_zero(params.lineBytes))),
      setsPow2_((params.numSets() & (params.numSets() - 1)) == 0),
      own_(std::move(own))
{
    piton_assert(sets_ > 0 && ways_ > 0 && lineBytes_ >= 8,
                 "bad cache geometry");
    piton_assert((lineBytes_ & (lineBytes_ - 1)) == 0,
                 "line size must be a power of two");
    if (own_)
        storage = own_.get();
    lines_ = storage + (reinterpret_cast<std::uintptr_t>(this) >> 4) % kMaxPad;
}

CacheArray::CacheArray(const config::CacheParams &params, CacheLine *&next)
    : CacheArray(params, next, LinePages{})
{
    next += slots(params);
}

CacheArray::CacheArray(const config::CacheParams &params)
    : CacheArray(params, nullptr, mapZeroLines(slots(params)))
{
}

bool
CacheArray::setState(Addr addr, Mesi state)
{
    CacheLine *cl = find(addr);
    if (!cl)
        return false;
    cl->state = state;
    return true;
}

Eviction
CacheArray::fill(Addr addr, Mesi state, Cycle now)
{
    piton_assert(state != Mesi::Invalid, "cannot fill an invalid line");
    const Addr line = lineAlign(addr);
    const std::size_t base = static_cast<std::size_t>(setOf(addr)) * ways_;

    // Hit: just update state.
    if (CacheLine *cl = find(addr)) {
        cl->state = state;
        cl->lastUse = now;
        return {};
    }

    // Prefer an invalid way, else LRU.
    CacheLine *victim = &lines_[base];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        CacheLine &cl = lines_[base + w];
        if (!cl.valid()) {
            victim = &cl;
            break;
        }
        if (cl.lastUse < victim->lastUse)
            victim = &cl;
    }

    Eviction ev;
    if (victim->valid()) {
        ev.happened = true;
        ev.lineAddr = victim->tag;
        ev.state = victim->state;
    }
    victim->tag = line;
    victim->state = state;
    victim->lastUse = now;
    const std::size_t i = static_cast<std::size_t>(victim - lines_);
    lo_ = lo_ == hi_ ? i : std::min(lo_, i);
    hi_ = std::max(hi_, i + 1);
    return ev;
}

Mesi
CacheArray::invalidate(Addr addr)
{
    CacheLine *cl = find(addr);
    if (!cl)
        return Mesi::Invalid;
    const Mesi prev = cl->state;
    cl->state = Mesi::Invalid;
    return prev;
}

std::size_t
CacheArray::validCount() const
{
    return static_cast<std::size_t>(
        std::count_if(lines_ + lo_, lines_ + hi_,
                      [](const CacheLine &cl) { return cl.valid(); }));
}

void
CacheArray::flushAll()
{
    std::fill(lines_ + lo_, lines_ + hi_, CacheLine{});
    lo_ = hi_ = 0;
}

} // namespace piton::arch
