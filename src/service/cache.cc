#include "service/cache.hh"

#include <cstdio>

#include "checkpoint/archive.hh"
#include "common/logging.hh"
#include "service/wire.hh"

namespace piton::service
{

namespace
{

/** Disk-entry header magic ("PCRE": Piton Cached REsult). */
constexpr std::uint32_t kDiskMagic = 0x45524350u;

std::uint32_t
payloadCrc(const std::vector<std::uint8_t> &bytes)
{
    return ckpt::crc32(bytes.data(), bytes.size());
}

/** A disk entry: magic, payload CRC, then the payload as a blob. */
template <typename Io, typename M, typename C, typename P>
void
diskEntryFields(Io &io, M &&magic, C &&crc, P &&payload)
{
    io.io(magic);
    io.io(crc);
    io.io(payload);
}

} // namespace

ResultCache::ResultCache(CacheConfig cfg) : cfg_(std::move(cfg)) {}

ResultCache::Acquired
ResultCache::acquire(const Hash128 &key)
{
    std::lock_guard<std::mutex> lock(mutex_);

    auto it = entries_.find(key);
    if (it != entries_.end()) {
        if (payloadCrc(*it->second.payload) == it->second.crc) {
            lru_.splice(lru_.begin(), lru_, it->second.lruPos);
            ++counts_.hits;
            return Acquired{it->second.payload, {}, false};
        }
        // Bit rot: reject and recompute rather than serve garbage.
        ++counts_.corruptRejected;
        lru_.erase(it->second.lruPos);
        entries_.erase(it);
    }

    if (CachePayload disk = tryDiskLoad(key)) {
        insertLocked(key, disk);
        ++counts_.hits;
        ++counts_.diskHits;
        return Acquired{std::move(disk), {}, false};
    }

    auto flight = inflight_.find(key);
    if (flight != inflight_.end()) {
        ++counts_.coalesced;
        return Acquired{nullptr, flight->second->get_future().share(),
                        false};
    }

    inflight_.emplace(key, std::make_shared<std::promise<CachePayload>>());
    ++counts_.misses;
    Acquired a;
    a.leader = true;
    return a;
}

CachePayload
ResultCache::lookup(const Hash128 &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end())
        return nullptr;
    if (payloadCrc(*it->second.payload) != it->second.crc) {
        ++counts_.corruptRejected;
        lru_.erase(it->second.lruPos);
        entries_.erase(it);
        return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second.lruPos);
    ++counts_.hits;
    return it->second.payload;
}

void
ResultCache::publish(const Hash128 &key, CachePayload payload)
{
    piton_assert(payload != nullptr, "publish of null payload");
    std::shared_ptr<std::promise<CachePayload>> promise;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        insertLocked(key, payload);
        auto flight = inflight_.find(key);
        if (flight != inflight_.end()) {
            promise = flight->second;
            inflight_.erase(flight);
        }
    }
    if (promise)
        promise->set_value(payload);
    diskStore(key, payload);
}

void
ResultCache::abandon(const Hash128 &key)
{
    std::shared_ptr<std::promise<CachePayload>> promise;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto flight = inflight_.find(key);
        if (flight != inflight_.end()) {
            promise = flight->second;
            inflight_.erase(flight);
        }
    }
    if (promise)
        promise->set_value(nullptr); // waiters recompute themselves
}

void
ResultCache::insert(const Hash128 &key, CachePayload payload)
{
    piton_assert(payload != nullptr, "insert of null payload");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        insertLocked(key, payload);
    }
    diskStore(key, payload);
}

void
ResultCache::insertLocked(const Hash128 &key, CachePayload payload)
{
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        bytes_ -= it->second.payload->size();
        it->second.payload = std::move(payload);
        it->second.crc = payloadCrc(*it->second.payload);
        bytes_ += it->second.payload->size();
        lru_.splice(lru_.begin(), lru_, it->second.lruPos);
        return;
    }
    lru_.push_front(key);
    Entry entry;
    entry.payload = std::move(payload);
    entry.crc = payloadCrc(*entry.payload);
    entry.lruPos = lru_.begin();
    bytes_ += entry.payload->size();
    entries_.emplace(key, std::move(entry));
    evictIfNeededLocked();
}

void
ResultCache::evictIfNeededLocked()
{
    while (!lru_.empty()
           && ((cfg_.maxBytes != 0 && bytes_ > cfg_.maxBytes)
               || (cfg_.maxEntries != 0
                   && entries_.size() > cfg_.maxEntries))) {
        const Hash128 victim = lru_.back();
        auto it = entries_.find(victim);
        piton_assert(it != entries_.end(), "LRU/entry map skew");
        bytes_ -= it->second.payload->size();
        lru_.pop_back();
        entries_.erase(it);
        ++counts_.evictions;
    }
}

void
ResultCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    lru_.clear();
    bytes_ = 0;
}

CacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    CacheStats s = counts_;
    s.entries = entries_.size();
    s.bytes = bytes_;
    return s;
}

bool
ResultCache::corruptEntryForTest(const Hash128 &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end() || it->second.payload->empty())
        return false;
    // The payload is shared immutable by contract; this test hook
    // simulates bit rot in place, exactly what the CRC exists to catch.
    auto &bytes = const_cast<std::vector<std::uint8_t> &>(
        *it->second.payload);
    bytes.back() ^= 0x01;
    return true;
}

std::string
ResultCache::diskPathFor(const Hash128 &key) const
{
    if (cfg_.diskDir.empty())
        return {};
    return cfg_.diskDir + "/" + key.hex() + ".res";
}

void
ResultCache::diskStore(const Hash128 &key, const CachePayload &payload)
{
    const std::string path = diskPathFor(key);
    if (path.empty())
        return;
    WireWriter w;
    diskEntryFields(w, kDiskMagic, payloadCrc(*payload), *payload);
    try {
        ckpt::writeFile(path, w.bytes());
    } catch (const std::exception &e) {
        // Spill is best-effort; the in-memory entry stays valid.
        piton_warn("result-cache disk spill failed: %s", e.what());
    }
}

CachePayload
ResultCache::tryDiskLoad(const Hash128 &key)
{
    const std::string path = diskPathFor(key);
    if (path.empty())
        return nullptr;
    std::vector<std::uint8_t> file;
    try {
        file = ckpt::readFile(path);
    } catch (const std::exception &) {
        return nullptr; // absent (or unreadable): a plain miss
    }
    try {
        std::uint32_t magic = 0;
        std::uint32_t crc = 0;
        std::vector<std::uint8_t> payload;
        WireReader r(file);
        diskEntryFields(r, magic, crc, payload);
        r.expectEnd();
        if (magic != kDiskMagic)
            throw ServiceError("bad disk-entry magic");
        if (payloadCrc(payload) != crc)
            throw ServiceError("disk-entry CRC mismatch");
        return std::make_shared<const std::vector<std::uint8_t>>(
            std::move(payload));
    } catch (const ServiceError &e) {
        ++counts_.corruptRejected;
        piton_warn("rejecting corrupted cache file %s: %s", path.c_str(),
                   e.what());
        std::remove(path.c_str());
        return nullptr;
    }
}

} // namespace piton::service
