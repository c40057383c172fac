/**
 * @file
 * Digest of a workload's result values, compared at the default seed
 * against the one committed in digests.txt.
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Accumulates exact bit patterns of result values. */
class Digest
{
  public:
    void add(double v);
    void add(std::uint64_t v);
    void add(const std::string &s);
    void add(const std::vector<std::uint8_t> &bytes);

    /** 32 hex digits of the 128-bit hash of everything added. */
    std::string hex() const;

  private:
    std::vector<std::uint8_t> bytes_;
};

/** Parse "name hexdigest" lines ('#' starts a comment). */
std::map<std::string, std::string> readDigests(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH
