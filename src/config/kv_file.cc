#include "config/kv_file.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

namespace piton::config
{

namespace
{

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

bool
validKeyChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_'
           || c == '.';
}

} // namespace

bool
KvFile::has(const std::string &key) const
{
    bool found = false;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].first == key) {
            consumed_[i] = true;
            found = true;
        }
    }
    return found;
}

std::string
KvFile::get(const std::string &key, const std::string &def) const
{
    std::string value = def;
    bool found = false;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].first == key) {
            consumed_[i] = true;
            value = entries_[i].second; // last occurrence wins
            found = true;
        }
    }
    (void)found;
    return value;
}

double
KvFile::getDouble(const std::string &key, double def) const
{
    if (!has(key))
        return def;
    const std::string v = get(key);
    char *end = nullptr;
    errno = 0;
    const double d = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0' || errno == ERANGE
        || !std::isfinite(d))
        throw KvError(source_ + ": key '" + key + "': bad number '" + v
                      + "'");
    return d;
}

std::uint64_t
KvFile::getUint(const std::string &key, std::uint64_t def) const
{
    if (!has(key))
        return def;
    const std::string v = get(key);
    char *end = nullptr;
    errno = 0;
    const unsigned long long u = std::strtoull(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0' || errno == ERANGE
        || v.find('-') != std::string::npos)
        throw KvError(source_ + ": key '" + key + "': bad count '" + v
                      + "'");
    return static_cast<std::uint64_t>(u);
}

std::uint32_t
KvFile::getUint32(const std::string &key, std::uint32_t def) const
{
    const std::uint64_t u = getUint(key, def);
    if (u > std::numeric_limits<std::uint32_t>::max())
        throw KvError(source_ + ": key '" + key + "': count "
                      + std::to_string(u) + " out of range");
    return static_cast<std::uint32_t>(u);
}

bool
KvFile::getBool(const std::string &key, bool def) const
{
    if (!has(key))
        return def;
    const std::string v = get(key);
    if (v == "true" || v == "yes" || v == "on" || v == "1")
        return true;
    if (v == "false" || v == "no" || v == "off" || v == "0")
        return false;
    throw KvError(source_ + ": key '" + key + "': bad boolean '" + v + "'");
}

std::vector<std::string>
KvFile::unconsumedKeys() const
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < entries_.size(); ++i)
        if (!consumed_[i])
            out.push_back(entries_[i].first);
    return out;
}

void
KvFile::checkUnknownKeys(const std::string &context) const
{
    const auto unknown = unconsumedKeys();
    if (unknown.empty())
        return;
    std::string msg = source_ + ": unknown " + context + " key(s):";
    for (const auto &k : unknown)
        msg += " '" + k + "'";
    throw KvError(msg);
}

KvFile
KvFile::parseText(const std::string &text, const std::string &source)
{
    KvFile kv;
    kv.source_ = source;
    std::istringstream in(text);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t cut = line.find_first_of("#;");
        if (cut != std::string::npos)
            line.erase(cut);
        line = trim(line);
        if (line.empty())
            continue;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            throw KvError(source + ":" + std::to_string(lineno)
                          + ": expected 'key = value'");
        std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        for (auto &c : key)
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        if (key.empty())
            throw KvError(source + ":" + std::to_string(lineno)
                          + ": empty key");
        for (const char c : key)
            if (!validKeyChar(c))
                throw KvError(source + ":" + std::to_string(lineno)
                              + ": bad key character in '" + key + "'");
        kv.entries_.emplace_back(std::move(key), value);
    }
    kv.consumed_.assign(kv.entries_.size(), false);
    return kv;
}

KvFile
KvFile::parseFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw KvError("cannot open config file: " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return parseText(buf.str(), path);
}

} // namespace piton::config
