#include "common/cli.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace piton
{

CommandLine &
CommandLine::add(const char *name, std::string metavar, std::string range,
                 std::function<bool(const char *)> set)
{
    specs_.push_back(
        {name, std::move(metavar), std::move(range), std::move(set)});
    return *this;
}

std::string
CommandLine::countRange(std::uint64_t min, std::uint64_t max, int radix)
{
    return std::string(radix == 16 ? "a hexadecimal" : "an")
           + " integer in [" + std::to_string(min) + ", "
           + std::to_string(max) + "]";
}

CommandLine &
CommandLine::flag(const char *name, bool &dest)
{
    return add(name, "", "", [&dest](const char *) {
        dest = true;
        return true;
    });
}

CommandLine &
CommandLine::real(const char *name, double &dest, double lo, double hi)
{
    char range[96];
    std::snprintf(range, sizeof range, "a finite number in [%g, %g]", lo,
                  hi);
    return add(name, "X", range, [&dest, lo, hi](const char *v) {
        const char *end = v + std::strlen(v);
        double x = 0.0;
        const auto [stop, ec] = std::from_chars(v, end, x);
        if (ec != std::errc{} || stop != end || !std::isfinite(x) || x < lo
            || x > hi)
            return false;
        dest = x;
        return true;
    });
}

CommandLine &
CommandLine::text(const char *name, std::string &dest, const char *metavar)
{
    return add(name, metavar, "", [&dest](const char *v) {
        dest = v;
        return true;
    });
}

CommandLine &
CommandLine::choice(const char *name, std::string &dest,
                    std::vector<std::string> choices)
{
    std::string list;
    for (const std::string &c : choices)
        list += (list.empty() ? "" : "|") + c;
    return add(name, list, "one of " + list,
               [&dest, choices = std::move(choices)](const char *v) {
                   for (const std::string &c : choices)
                       if (c == v) {
                           dest = c;
                           return true;
                       }
                   return false;
               });
}

void
CommandLine::fail(const std::string &message) const
{
    std::string usage = "usage: " + prog_;
    for (const Spec &s : specs_) {
        if (s.name[0] != '-' || s.metavar.empty())
            usage += " [" + s.name + "]";
        else
            usage += " [" + s.name + " " + s.metavar + "]";
    }
    std::fprintf(stderr, "%s: %s\n%s\n", prog_.c_str(), message.c_str(),
                 usage.c_str());
    std::exit(2);
}

void
CommandLine::parse(int argc, char **argv)
{
    if (argc > 0)
        prog_ = argv[0];
    std::vector<bool> seen(specs_.size(), false);
    auto apply = [&](const Spec &s, const char *value) {
        if (!s.set(value))
            fail("bad value for " + s.name + ": " + value + " (want "
                 + s.range + ")");
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool is_flag = arg.size() > 1 && arg[0] == '-';
        std::size_t k = 0;
        while (k < specs_.size()
               && (is_flag ? specs_[k].name != arg
                           : specs_[k].name[0] == '-' || seen[k]))
            ++k;
        if (k == specs_.size())
            fail((is_flag ? "unknown flag: " : "unexpected argument: ")
                 + arg);
        if (seen[k])
            fail("duplicate flag: " + arg);
        seen[k] = true;
        const Spec &s = specs_[k];
        if (!is_flag)
            apply(s, argv[i]);
        else if (s.metavar.empty())
            s.set(nullptr);
        else if (i + 1 == argc)
            fail("missing value for: " + arg);
        else
            apply(s, argv[++i]);
    }
}

} // namespace piton
