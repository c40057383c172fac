#include "bench/digest.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/hash.hh"

namespace perfbench
{

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
Digest::add(const std::string &s)
{
    add(static_cast<std::uint64_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void
Digest::add(const std::vector<std::uint8_t> &bytes)
{
    add(static_cast<std::uint64_t>(bytes.size()));
    bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
}

std::string
Digest::hex() const
{
    const piton::Hash128 h = piton::hash128(bytes_);
    char buf[33];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(h.hi),
                  static_cast<unsigned long long>(h.lo));
    return buf;
}

std::map<std::string, std::string>
readDigests(const std::string &path)
{
    std::map<std::string, std::string> out;
    std::ifstream is(path);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string name, hex;
        if (ls >> name >> hex)
            out[name] = hex;
    }
    return out;
}

} // namespace perfbench
