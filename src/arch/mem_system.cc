#include "arch/mem_system.hh"

#include <algorithm>
#include <bit>

#include "checkpoint/archive.hh"
#include "common/logging.hh"

namespace piton::arch
{

namespace
{

/** NoC message types (header-flit type field). */
enum MsgType : std::uint8_t
{
    ReqLoad = 1,
    ReqStore = 2,
    ReqAtomic = 3,
    ReqIFetch = 4,
    Resp = 5,
    Inval = 6,
    Fwd = 7,
    Writeback = 8,
};

} // namespace

const char *
hitLevelName(HitLevel l)
{
    switch (l) {
      case HitLevel::L1: return "L1 Hit";
      case HitLevel::L15: return "L1.5 Hit";
      case HitLevel::LocalL2: return "Local L2 Hit";
      case HitLevel::RemoteL2: return "Remote L2 Hit";
      case HitLevel::OffChip: return "L2 Miss";
      default:
        piton_panic("bad HitLevel");
    }
}

MemorySystem::MemorySystem(const config::PitonParams &params,
                           const power::EnergyModel &energy,
                           power::EnergyLedger &ledger, MainMemory &memory,
                           std::uint64_t seed)
    : params_(params), energy_(energy), ledger_(ledger), memory_(memory),
      noc_(params, energy, ledger), chipset_(energy, ledger, seed),
      cacheLines_(mapZeroLines(Tile::slots(params) * params.tileCount)),
      mapping_(params.sliceMapping)
{
    CacheLine *next = cacheLines_.get();
    tiles_.reserve(params_.tileCount);
    for (TileId t = 0; t < params_.tileCount; ++t)
        tiles_.emplace_back(params_, next);
}

Addr
MemorySystem::l2LineAlign(Addr a) const
{
    return a & ~static_cast<Addr>(params_.l2Slice.lineBytes - 1);
}

void
MemorySystem::setSliceMapping(config::LineToSliceMapping mapping)
{
    mapping_ = mapping;
}

TileId
MemorySystem::homeTile(Addr addr) const
{
    const Addr line = l2LineAlign(addr);
    unsigned shift = 6;
    switch (mapping_) {
      case config::LineToSliceMapping::LowOrder: shift = 6; break;
      case config::LineToSliceMapping::MidOrder: shift = 14; break;
      case config::LineToSliceMapping::HighOrder: shift = 22; break;
    }
    return static_cast<TileId>((line >> shift) % params_.tileCount);
}

void
MemorySystem::addCoherenceDomain(Addr base, Addr size,
                                 std::uint32_t tile_mask)
{
    piton_assert(size > 0, "empty coherence domain");
    piton_assert((tile_mask & ~((1u << params_.tileCount) - 1)) == 0,
                 "domain mask names nonexistent tiles");
    piton_assert(tile_mask != 0, "empty domain tile mask");
    domains_.push_back(CoherenceDomain{base, size, tile_mask});
}

std::uint32_t
MemorySystem::domainMaskFor(Addr addr) const
{
    for (const auto &d : domains_) {
        if (addr >= d.base && addr < d.base + d.size)
            return d.tileMask;
    }
    return (1u << params_.tileCount) - 1; // unrestricted
}

void
MemorySystem::chargeL2Access(Addr addr)
{
    // Tag + data array access, plus a directory lookup whose sharer
    // vector (and thus energy) shrinks under CDR.
    const auto mask = domainMaskFor(addr);
    const double dir_scale =
        (8.0 + std::popcount(mask))
        / (8.0 + static_cast<double>(params_.tileCount));
    const power::RailEnergy dir =
        energy_.l2AccessEnergy(true) - energy_.l2AccessEnergy(false);
    ledger_.add(power::Category::CacheL2, energy_.l2AccessEnergy(false));
    ledger_.add(power::Category::CacheL2, dir.scaled(dir_scale));
}

void
MemorySystem::checkDomain(TileId tile, Addr addr) const
{
    piton_assert((domainMaskFor(addr) >> tile) & 1u,
                 "tile %u accessed 0x%llx outside its coherence domain",
                 tile, static_cast<unsigned long long>(addr));
}

void
MemorySystem::chargeStall(std::uint32_t cycles)
{
    power::RailEnergy e;
    for (std::uint32_t i = 0; i < cycles; ++i)
        e += energy_.stallCycleEnergy();
    ledger_.add(power::Category::Stall, e);
}

std::uint32_t
MemorySystem::nocRoundTrip(TileId requester, TileId home, Addr addr,
                           Cycle, std::uint8_t req_type)
{
    // Request: header + address + metadata (3 flits).
    Packet req;
    req.net = NocId::Noc1;
    req.src = requester;
    req.dst = home;
    req.flits = {makeHeaderFlit(home, requester, 2, req_type), addr,
                 0x1ULL};
    noc_.send(req);

    // Response: header + 16 B L1.5 line of real data (3 flits).
    const Addr subline =
        addr & ~static_cast<Addr>(params_.l15.lineBytes - 1);
    Packet resp;
    resp.net = NocId::Noc2;
    resp.src = home;
    resp.dst = requester;
    resp.flits = {makeHeaderFlit(requester, home, 2, Resp),
                  memory_.read64(subline), memory_.read64(subline + 8)};
    noc_.send(resp);

    return lat_.perHop * noc_.hopsBetween(requester, home)
           + lat_.perTurn * noc_.turnsBetween(requester, home);
}

void
MemorySystem::invalidateTileLine(TileId tile, Addr l2_line, Cycle)
{
    Tile &t = tiles_[tile];
    for (Addr a = l2_line; a < l2_line + params_.l2Slice.lineBytes;
         a += params_.l15.lineBytes) {
        t.l15.invalidate(a);
        t.l1d.invalidate(a);
    }
}

void
MemorySystem::invalidateSharers(DirEntry &dir, Addr l2_line, TileId home,
                                TileId except, Cycle now)
{
    for (TileId s = 0; s < params_.tileCount; ++s) {
        if (s == except || !(dir.sharers & (1u << s)))
            continue;
        // Invalidation packet: header + line address (2 flits).
        Packet inv;
        inv.net = NocId::Noc3;
        inv.src = home;
        inv.dst = s;
        inv.flits = {makeHeaderFlit(s, home, 1, Inval), l2_line};
        noc_.send(inv);
        ledger_.add(power::Category::CacheL15, energy_.l15AccessEnergy());
        // If the sharer owned a dirty copy, it answers with data.
        if (dir.owned && dir.owner == s) {
            Packet wb;
            wb.net = NocId::Noc3;
            wb.src = s;
            wb.dst = home;
            wb.flits = {makeHeaderFlit(home, s, 2, Writeback),
                        memory_.read64(l2_line), memory_.read64(l2_line + 8)};
            noc_.send(wb);
            dir.owned = false;
        }
        invalidateTileLine(s, l2_line, now);
        ++stats_.invalidationsSent;
        dir.sharers &= ~(1u << s);
    }
    if (dir.owned && dir.owner != except)
        dir.owned = false;
}

void
MemorySystem::writebackToL2(TileId tile, Addr line_addr, Cycle /*now*/)
{
    ++stats_.writebacks;
    const TileId home = homeTile(line_addr);
    const Addr l2_line = l2LineAlign(line_addr);
    if (home != tile) {
        Packet wb;
        wb.net = NocId::Noc3;
        wb.src = tile;
        wb.dst = home;
        wb.flits = {makeHeaderFlit(home, tile, 2, Writeback),
                    memory_.read64(line_addr),
                    memory_.read64(line_addr + 8)};
        noc_.send(wb);
    }
    ledger_.add(power::Category::CacheL2, energy_.l2AccessEnergy(false));
    Tile &h = tiles_[home];
    if (h.l2.probe(l2_line) != Mesi::Invalid) {
        h.l2.setState(l2_line, Mesi::Modified);
    } else {
        // The L2 already evicted the line (non-inclusive corner);
        // forward straight to DRAM.
        chipset_.postWriteback();
    }
    // The evicting tile no longer shares the line.
    auto it = directory_.find(l2_line);
    if (it != directory_.end()) {
        it->second.sharers &= ~(1u << tile);
        if (it->second.owned && it->second.owner == tile)
            it->second.owned = false;
    }
}

void
MemorySystem::fillPrivate(TileId tile, Addr addr, Mesi state, Cycle now,
                          bool fill_l1d)
{
    Tile &t = tiles_[tile];
    const Addr subline =
        addr & ~static_cast<Addr>(params_.l15.lineBytes - 1);
    const Eviction ev = t.l15.fill(subline, state, now);
    if (ev.happened) {
        // L1D inclusion: the evicted L1.5 line leaves the L1D too.
        t.l1d.invalidate(ev.lineAddr);
        if (ev.state == Mesi::Modified)
            writebackToL2(tile, ev.lineAddr, now);
    }
    if (fill_l1d)
        t.l1d.fill(subline, Mesi::Shared, now);
}

std::uint32_t
MemorySystem::accessHomeL2(TileId requester, TileId home, Addr addr,
                           bool exclusive, Cycle now, HitLevel &level)
{
    checkDomain(requester, addr);
    Tile &h = tiles_[home];
    const Addr l2_line = l2LineAlign(addr);
    chargeL2Access(addr);

    std::uint32_t extra = 0;
    if (h.l2.access(l2_line, now)) {
        level = (home == requester) ? HitLevel::LocalL2
                                    : HitLevel::RemoteL2;
        if (home == requester)
            ++stats_.localL2Hits;
        else
            ++stats_.remoteL2Hits;
    } else {
        // Off-chip fetch through the chipset (Fig. 15 path).
        level = HitLevel::OffChip;
        ++stats_.offChipMisses;
        ledger_.add(power::Category::OffChip, energy_.offChipMissEnergy());
        extra = chipset_.memoryRoundTrip(now);
        const Eviction ev = h.l2.fill(l2_line, Mesi::Exclusive, now);
        if (ev.happened) {
            auto it = directory_.find(ev.lineAddr);
            if (it != directory_.end()) {
                invalidateSharers(it->second, ev.lineAddr, home,
                                  params_.tileCount /* no exception */,
                                  now);
                directory_.erase(it);
            }
            if (ev.state == Mesi::Modified)
                chipset_.postWriteback();
        }
    }

    DirEntry &dir = directory_[l2_line];
    if (exclusive) {
        invalidateSharers(dir, l2_line, home, requester, now);
        dir.sharers = 1u << requester;
        dir.owned = true;
        dir.owner = requester;
        h.l2.setState(l2_line, Mesi::Modified);
        ++stats_.upgrades;
    } else {
        // A remote dirty owner must be downgraded before sharing.
        if (dir.owned && dir.owner != requester) {
            const TileId owner = dir.owner;
            Packet fwd;
            fwd.net = NocId::Noc3;
            fwd.src = home;
            fwd.dst = owner;
            fwd.flits = {makeHeaderFlit(owner, home, 1, Fwd), l2_line};
            noc_.send(fwd);
            Packet resp;
            resp.net = NocId::Noc3;
            resp.src = owner;
            resp.dst = home;
            resp.flits = {makeHeaderFlit(home, owner, 2, Writeback),
                          memory_.read64(l2_line),
                          memory_.read64(l2_line + 8)};
            noc_.send(resp);
            ledger_.add(power::Category::CacheL15,
                        energy_.l15AccessEnergy());
            // Downgrade every modified subline of the 64 B L2 line the
            // owner may hold (the L1.5 tracks 16 B lines).
            for (Addr sub = l2_line;
                 sub < l2_line + params_.l2Slice.lineBytes;
                 sub += params_.l15.lineBytes) {
                if (tiles_[owner].l15.probe(sub) == Mesi::Modified)
                    tiles_[owner].l15.setState(sub, Mesi::Shared);
            }
            dir.owned = false;
            extra += lat_.perHop * noc_.hopsBetween(home, owner)
                     + lat_.perTurn * noc_.turnsBetween(home, owner) + 8;
        }
        dir.sharers |= 1u << requester;
    }
    return extra;
}

AccessOutcome
MemorySystem::load(TileId tile, Addr addr, RegVal &data, Cycle now)
{
    ++stats_.loads;
    Tile &t = tiles_[tile];
    data = memory_.read64(addr);

    if (t.l1d.access(addr, now)) {
        ++stats_.l1Hits;
        return {lat_.l1Hit, HitLevel::L1};
    }

    // The thread scheduler speculated an L1 hit: rollback and replay.
    ledger_.add(power::Category::Rollback, energy_.rollbackEnergy());
    ledger_.add(power::Category::CacheL15, energy_.l15AccessEnergy());

    if (t.l15.access(addr, now)) {
        ++stats_.l15Hits;
        t.l1d.fill(addr & ~static_cast<Addr>(params_.l15.lineBytes - 1),
                   Mesi::Shared, now);
        chargeStall(lat_.l15Hit - lat_.l1Hit);
        return {lat_.l15Hit, HitLevel::L15};
    }

    const TileId home = homeTile(addr);
    std::uint32_t latency = lat_.localL2Hit;
    if (home != tile)
        latency += nocRoundTrip(tile, home, addr, now, ReqLoad);

    HitLevel level = HitLevel::LocalL2;
    const std::uint32_t extra =
        accessHomeL2(tile, home, addr, /*exclusive=*/false, now, level);
    if (level == HitLevel::OffChip)
        latency = extra
                  + (home != tile
                         ? lat_.perHop * noc_.hopsBetween(tile, home)
                               + lat_.perTurn * noc_.turnsBetween(tile, home)
                         : 0);
    else
        latency += extra;

    fillPrivate(tile, addr, Mesi::Shared, now, /*fill_l1d=*/true);
    chargeStall(latency - lat_.l1Hit);
    return {latency, level};
}

AccessOutcome
MemorySystem::store(TileId tile, Addr addr, RegVal data, Cycle now)
{
    ++stats_.stores;
    Tile &t = tiles_[tile];
    memory_.write64(addr, data);

    // Write-through L1D: update on hit, no allocate on miss.
    t.l1d.access(addr, now);

    const Mesi l15_state = t.l15.probe(addr);
    if (l15_state == Mesi::Modified) {
        // Common case: the store drains from the store buffer into an
        // exclusive L1.5 line. Base stx EPI already covers this write.
        return {lat_.storeBuffer, HitLevel::L15};
    }

    const TileId home = homeTile(addr);
    const Addr l2_line = l2LineAlign(addr);
    std::uint32_t latency = lat_.storeBuffer;

    if (l15_state == Mesi::Shared || l15_state == Mesi::Exclusive) {
        // Upgrade: ask the home directory to invalidate other sharers.
        checkDomain(tile, addr);
        chargeL2Access(addr);
        DirEntry &dir = directory_[l2_line];
        invalidateSharers(dir, l2_line, home, tile, now);
        dir.sharers = 1u << tile;
        dir.owned = true;
        dir.owner = tile;
        t.l15.setState(addr & ~static_cast<Addr>(params_.l15.lineBytes - 1),
                       Mesi::Modified);
        tiles_[home].l2.setState(l2_line, Mesi::Modified);
        latency += lat_.localL2Hit;
        if (home != tile)
            latency += nocRoundTrip(tile, home, addr, now, ReqStore);
        ++stats_.upgrades;
        chargeStall(latency - lat_.storeBuffer);
        return {latency, t.l15.probe(addr) == Mesi::Modified
                             ? HitLevel::L15
                             : HitLevel::LocalL2};
    }

    // L1.5 miss: read-for-ownership from the home slice.
    ledger_.add(power::Category::CacheL15, energy_.l15AccessEnergy());
    std::uint32_t rfo = lat_.localL2Hit;
    if (home != tile)
        rfo += nocRoundTrip(tile, home, addr, now, ReqStore);
    HitLevel level = HitLevel::LocalL2;
    const std::uint32_t extra =
        accessHomeL2(tile, home, addr, /*exclusive=*/true, now, level);
    if (level == HitLevel::OffChip)
        rfo = extra
              + (home != tile
                     ? lat_.perHop * noc_.hopsBetween(tile, home)
                           + lat_.perTurn * noc_.turnsBetween(tile, home)
                     : 0);
    else
        rfo += extra;

    fillPrivate(tile, addr, Mesi::Modified, now, /*fill_l1d=*/false);
    latency += rfo;
    chargeStall(rfo);
    return {latency, level};
}

AccessOutcome
MemorySystem::atomicCas(TileId tile, Addr addr, RegVal expected,
                        RegVal swap, RegVal &old, Cycle now)
{
    ++stats_.atomics;
    checkDomain(tile, addr);
    const TileId home = homeTile(addr);
    const Addr l2_line = l2LineAlign(addr);

    // Atomics execute at the home L2: all cached copies (including the
    // requester's) are invalidated first.  A CAS whose comparison fails
    // (the common spin-lock case) performs only the tag/data read, not
    // the full read-modify-write.
    const bool will_succeed = memory_.read64(addr) == expected;
    if (will_succeed) {
        chargeL2Access(addr);
    } else {
        ledger_.add(power::Category::CacheL2,
                    energy_.l2AccessEnergy(false).scaled(0.15));
    }
    auto dir_it = directory_.find(l2_line);
    if (dir_it != directory_.end()) {
        invalidateSharers(dir_it->second, l2_line, home,
                          params_.tileCount /* invalidate everyone */,
                          now);
        dir_it->second.sharers = 0;
        dir_it->second.owned = false;
    }
    invalidateTileLine(tile, l2_line, now);

    std::uint32_t latency = lat_.localL2Hit;
    HitLevel level = HitLevel::LocalL2;
    if (home != tile) {
        latency += nocRoundTrip(tile, home, addr, now, ReqAtomic);
        level = HitLevel::RemoteL2;
    }

    // Atomics to the same line serialize at the home slice: each RMW
    // occupies it for ~20 cycles, so heavy lock contention queues the
    // spinning threads (Section IV-H's contention effects).
    constexpr std::uint32_t kAtomicOccupancy = 20;
    Cycle &busy = atomicBusyUntil_[l2_line];
    const Cycle start = std::max<Cycle>(now, busy);
    latency += static_cast<std::uint32_t>(start - now);
    busy = start + kAtomicOccupancy;

    Tile &h = tiles_[home];
    if (!h.l2.access(l2_line, now)) {
        level = HitLevel::OffChip;
        ++stats_.offChipMisses;
        ledger_.add(power::Category::OffChip, energy_.offChipMissEnergy());
        latency = chipset_.memoryRoundTrip(now)
                  + (home != tile
                         ? lat_.perHop * noc_.hopsBetween(tile, home)
                               + lat_.perTurn * noc_.turnsBetween(tile, home)
                         : 0);
        const Eviction ev = h.l2.fill(l2_line, Mesi::Exclusive, now);
        if (ev.happened && ev.state == Mesi::Modified)
            chipset_.postWriteback();
    }

    old = memory_.read64(addr);
    if (old == expected) {
        memory_.write64(addr, swap);
        h.l2.setState(l2_line, Mesi::Modified);
    }
    // A failed CAS (spin-waiting) leaves the thread parked on the
    // round trip; only the successful RMW pays active-stall energy.
    if (will_succeed)
        chargeStall(latency);
    return {latency, level};
}

std::uint32_t
MemorySystem::ifetchMiss(TileId tile, Addr line, Cycle now)
{
    ++stats_.ifetchMisses;
    const TileId home = homeTile(line);
    std::uint32_t latency = lat_.localL2Hit - lat_.l1Hit;

    chargeL2Access(line);
    if (home != tile) {
        // Request + 32 B response (header + 4 words).
        Packet req;
        req.net = NocId::Noc1;
        req.src = tile;
        req.dst = home;
        req.flits = {makeHeaderFlit(home, tile, 2, ReqIFetch), line, 0};
        noc_.send(req);
        Packet resp;
        resp.net = NocId::Noc2;
        resp.src = home;
        resp.dst = tile;
        resp.flits = {makeHeaderFlit(tile, home, 4, Resp),
                      memory_.read64(line), memory_.read64(line + 8),
                      memory_.read64(line + 16), memory_.read64(line + 24)};
        noc_.send(resp);
        latency += lat_.perHop * noc_.hopsBetween(tile, home)
                   + lat_.perTurn * noc_.turnsBetween(tile, home);
    }

    Tile &h = tiles_[home];
    const Addr l2_line = l2LineAlign(line);
    if (!h.l2.access(l2_line, now)) {
        latency = chipset_.memoryRoundTrip(now);
        const Eviction ev = h.l2.fill(l2_line, Mesi::Exclusive, now);
        if (ev.happened && ev.state == Mesi::Modified)
            chipset_.postWriteback();
    }

    tiles_[tile].l1i.fill(line, Mesi::Shared, now);
    chargeStall(latency);
    return latency;
}

NocSendResult
MemorySystem::injectPacket(TileId dst, const std::vector<RegVal> &payload)
{
    // Off-chip traffic enters the mesh through tile 0's chip bridge.
    Packet pkt;
    pkt.net = NocId::Noc3;
    pkt.src = 0;
    pkt.dst = dst;
    pkt.flits.reserve(payload.size() + 1);
    pkt.flits.push_back(makeHeaderFlit(
        dst, 0, static_cast<std::uint8_t>(payload.size()), Inval));
    pkt.flits.insert(pkt.flits.end(), payload.begin(), payload.end());
    // The receiving L1.5 performs an invalidation lookup.
    ledger_.add(power::Category::CacheL15, energy_.l15AccessEnergy());
    return noc_.send(pkt);
}

Mesi
MemorySystem::probeL15(TileId tile, Addr addr) const
{
    return tiles_[tile].l15.probe(addr);
}

Mesi
MemorySystem::probeL1d(TileId tile, Addr addr) const
{
    return tiles_[tile].l1d.probe(addr);
}

Mesi
MemorySystem::probeL2(TileId tile, Addr addr) const
{
    return tiles_[tile].l2.probe(addr);
}

void
MemorySystem::flushAll()
{
    for (auto &t : tiles_) {
        t.l1i.flushAll();
        t.l1d.flushAll();
        t.l15.flushAll();
        t.l2.flushAll();
    }
    directory_.clear();
}

namespace
{

/** Serialize an unordered_map in sorted-key order (the byte stream
 *  must not depend on hash iteration order), with `io_value` doing the
 *  per-entry value I/O. */
template <typename Map, typename IoValue>
void
ioSortedMap(ckpt::Archive &ar, Map &map, std::uint64_t min_entry_bytes,
            IoValue &&io_value)
{
    using Key = typename Map::key_type;
    std::vector<Key> keys;
    if (ar.saving()) {
        keys.reserve(map.size());
        for (const auto &kv : map)
            keys.push_back(kv.first);
        std::sort(keys.begin(), keys.end());
    }
    const std::uint64_t n = ar.ioSize(keys.size(), min_entry_bytes);
    if (ar.loading())
        map.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        Key key = ar.saving() ? keys[i] : Key{};
        ar.io(key);
        io_value(map[key]);
    }
}

} // namespace

void
MemorySystem::serialize(ckpt::Archive &ar)
{
    ar.ioExpect(static_cast<std::uint32_t>(tiles_.size()), "tile count");
    for (auto &tile : tiles_) {
        tile.l1i.serialize(ar);
        tile.l1d.serialize(ar);
        tile.l15.serialize(ar);
        tile.l2.serialize(ar);
    }

    ioSortedMap(ar, directory_, 8 + 4 + 1 + 4, [&](DirEntry &e) {
        ar.io(e.sharers);
        ar.io(e.owned);
        ar.io(e.owner);
        ckpt::Archive::check(e.owner < tiles_.size(),
                             "directory owner out of range");
    });
    ioSortedMap(ar, atomicBusyUntil_, 8 + 8,
                [&](Cycle &busy) { ar.io(busy); });

    ar.ioEnum(mapping_, static_cast<config::LineToSliceMapping>(3));
    std::uint64_t nd = ar.ioSize(domains_.size(), 8 + 8 + 4);
    if (ar.loading())
        domains_.resize(static_cast<std::size_t>(nd));
    for (auto &d : domains_) {
        ar.io(d.base);
        ar.io(d.size);
        ar.io(d.tileMask);
    }

    ar.io(stats_.loads);
    ar.io(stats_.stores);
    ar.io(stats_.atomics);
    ar.io(stats_.l1Hits);
    ar.io(stats_.l15Hits);
    ar.io(stats_.localL2Hits);
    ar.io(stats_.remoteL2Hits);
    ar.io(stats_.offChipMisses);
    ar.io(stats_.ifetchMisses);
    ar.io(stats_.invalidationsSent);
    ar.io(stats_.writebacks);
    ar.io(stats_.upgrades);

    noc_.serialize(ar);
    chipset_.serialize(ar);
}

} // namespace piton::arch
