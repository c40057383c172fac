/**
 * @file
 * 128-bit content hashing for the result cache (FNV-1a-128).
 *
 * The service layer keys its content-addressed caches by a hash of the
 * canonical request encoding.  FNV-1a at 128 bits is not cryptographic
 * — a malicious client could construct collisions — but the service
 * only ever runs trusted local experiment requests, and at 128 bits
 * accidental collisions across any realistic request population are
 * negligible (~2^-64 at billions of entries).  What matters here is
 * that the hash is deterministic across runs, platforms, and build
 * types: it is computed from explicitly serialized little-endian bytes,
 * never from in-memory struct images.
 */

#ifndef PITON_COMMON_HASH_HH
#define PITON_COMMON_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace piton
{

/** A 128-bit digest, comparable and printable (32 hex chars). */
struct Hash128
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    friend bool
    operator==(const Hash128 &a, const Hash128 &b)
    {
        return a.hi == b.hi && a.lo == b.lo;
    }
    friend bool
    operator!=(const Hash128 &a, const Hash128 &b)
    {
        return !(a == b);
    }
    friend bool
    operator<(const Hash128 &a, const Hash128 &b)
    {
        return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
    }

    std::string hex() const;
};

/** Streaming FNV-1a-128 hasher: update() in any chunking produces the
 *  same digest as one update over the concatenation. */
class Hasher
{
  public:
    Hasher();

    Hasher &update(const void *data, std::size_t len);
    Hasher &update(const std::vector<std::uint8_t> &bytes);
    Hasher &update(const std::string &s);
    /** Little-endian fixed-width update (domain separation between
     *  adjacent variable-length fields is the caller's concern; the
     *  service hashes length-prefixed encodings, which are
     *  self-delimiting). */
    Hasher &updateU32(std::uint32_t v);

    Hash128 digest() const;

  private:
    unsigned __int128 state_;
};

/** One-shot convenience. */
Hash128 hash128(const void *data, std::size_t len);
Hash128 hash128(const std::vector<std::uint8_t> &bytes);

/** Functor for unordered_map<Hash128, ...>. */
struct Hash128Hasher
{
    std::size_t
    operator()(const Hash128 &h) const
    {
        // The digest is already uniformly mixed; fold the halves.
        return static_cast<std::size_t>(h.hi ^ (h.lo * 0x9e3779b97f4a7c15ULL));
    }
};

} // namespace piton

#endif // PITON_COMMON_HASH_HH
