#include "bench/workload.hh"

namespace perfbench
{

bool
Checks::op(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        messages_.push_back(what);
    }
    return ok;
}

double
spanMedian(const SpanTimes &spans, const std::string &name, double scale)
{
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : median(it->second) * scale;
}

} // namespace perfbench
