/**
 * @file
 * Minimal key/value configuration files (scenario descriptions).
 *
 * Format, line by line:
 *   - `key = value` pairs; keys are [a-z0-9_.]+ (lowercased on parse),
 *     values are free text with surrounding whitespace trimmed;
 *   - `#` or `;` starts a comment (full line or after a value);
 *   - blank lines are ignored.
 *
 * Parsing is strict: a malformed line (no '=', empty key, bad key
 * character) throws KvError with the line number.  Typed accessors
 * (getDouble/getUint/getUint32/getBool) throw on unparseable,
 * out-of-range or non-finite values, and the consumed-key bookkeeping
 * lets a schema reject unknown keys — a typo in a scenario file is an
 * error, never a silently-ignored setting.
 */

#ifndef PITON_CONFIG_KV_FILE_HH
#define PITON_CONFIG_KV_FILE_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace piton::config
{

/** Thrown on malformed files, bad values, or unknown keys. */
class KvError : public std::runtime_error
{
  public:
    explicit KvError(const std::string &what) : std::runtime_error(what) {}
};

class KvFile
{
  public:
    /** Ordered (key, value) pairs as they appeared; duplicates keep
     *  file order and the *last* occurrence wins in lookups. */
    const std::vector<std::pair<std::string, std::string>> &
    entries() const
    {
        return entries_;
    }

    bool has(const std::string &key) const;

    /** Last value for `key`, or `def` when absent.  Marks the key
     *  consumed either way. */
    std::string get(const std::string &key, const std::string &def = {}) const;
    /** Finite values only: nan, inf and overflow (1e400) throw. */
    double getDouble(const std::string &key, double def) const;
    std::uint64_t getUint(const std::string &key, std::uint64_t def) const;
    /** getUint range-checked before narrowing: anything above
     *  UINT32_MAX throws, so 2^32 + 1 can never read as 1. */
    std::uint32_t getUint32(const std::string &key,
                            std::uint32_t def) const;
    /** Accepts true/false/yes/no/on/off/1/0. */
    bool getBool(const std::string &key, bool def) const;

    /**
     * Every key that was never touched by has()/get*() — call after a
     * schema has consumed everything it understands and treat a
     * non-empty result as an error (checkUnknownKeys does exactly
     * that).
     */
    std::vector<std::string> unconsumedKeys() const;
    /** Throw KvError listing any unconsumed keys. */
    void checkUnknownKeys(const std::string &context) const;

    /** Parser entry points (`source` names the file in errors). */
    static KvFile parseText(const std::string &text,
                            const std::string &source = "<memory>");
    static KvFile parseFile(const std::string &path);

  private:
    std::vector<std::pair<std::string, std::string>> entries_;
    std::string source_;
    /** Consumption marks, parallel to entries_ (lookup bookkeeping
     *  only — mutable so the accessors stay logically const). */
    mutable std::vector<bool> consumed_;
};

} // namespace piton::config

#endif // PITON_CONFIG_KV_FILE_HH
