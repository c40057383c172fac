#include "search/oracle.hh"

#include <utility>

#include "common/parallel.hh"
#include "service/executor.hh"
#include "service/response.hh"

namespace piton::search
{

Evaluation
evaluationFromBody(const std::vector<std::uint8_t> &body, bool cache_hit)
{
    Evaluation ev;
    ev.cacheHit = cache_hit;
    service::ExperimentResponse resp;
    try {
        resp = service::ExperimentResponse::decodeBody(body);
    } catch (const std::exception &) {
        return ev;
    }
    if (resp.status != service::Status::Ok)
        return ev;
    if (resp.kind != service::Kind::PlacedRun
        && resp.kind != service::Kind::EnergyRun)
        return ev;
    const service::EnergyResult &e = resp.energy;
    ev.valid = true;
    ev.completed = e.completed != 0;
    ev.insts = e.insts;
    ev.seconds = e.seconds;
    ev.energyJ = e.onChipEnergyJ;
    ev.epi = e.insts > 0 ? e.onChipEnergyJ / static_cast<double>(e.insts)
                         : 0.0;
    ev.avgPowerW = e.seconds > 0.0 ? e.onChipEnergyJ / e.seconds : 0.0;
    return ev;
}

std::vector<Evaluation>
InProcessOracle::evaluate(const std::vector<service::ExperimentRequest> &reqs)
{
    stats_.calls += reqs.size();

    // Canonicalize and key every request, then collect the distinct
    // misses in first-appearance order — that order, not any thread
    // schedule, decides what runs and what dedups, so the batch is
    // deterministic at every thread count.
    struct Slot
    {
        service::ExperimentRequest canon;
        Hash128 key;
        bool hit = false;
    };
    std::vector<Slot> slots(reqs.size());
    std::vector<std::size_t> misses; ///< slot index of each unique miss
    std::unordered_map<Hash128, std::size_t, Hash128Hasher> pending;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        slots[i].canon = reqs[i];
        slots[i].canon.canonicalize();
        slots[i].key = slots[i].canon.cacheKey();
        if (memo_.count(slots[i].key) != 0
            || pending.count(slots[i].key) != 0) {
            slots[i].hit = true;
        } else {
            pending.emplace(slots[i].key, misses.size());
            misses.push_back(i);
        }
    }

    std::vector<std::vector<std::uint8_t>> bodies(misses.size());
    parallelFor(misses.size(), threads_, [&](std::size_t m) {
        const Slot &s = slots[misses[m]];
        bodies[m] = service::runExperiment(s.canon, service::RunControl{},
                                           nullptr, 0)
                        .encodeBody();
    });
    for (std::size_t m = 0; m < misses.size(); ++m) {
        const Slot &s = slots[misses[m]];
        const service::ExperimentResponse resp =
            service::ExperimentResponse::decodeBody(bodies[m]);
        if (resp.status == service::Status::Ok)
            memo_.emplace(s.key, bodies[m]);
    }

    std::vector<Evaluation> out(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const auto it = memo_.find(slots[i].key);
        if (it != memo_.end()) {
            out[i] = evaluationFromBody(it->second, slots[i].hit);
        } else {
            // Failed run: decode its (unmemoized) body for this slot.
            const std::size_t m = pending.at(slots[i].key);
            out[i] = evaluationFromBody(bodies[m], false);
        }
        if (slots[i].hit)
            ++stats_.cacheHits;
    }
    return out;
}

std::vector<Evaluation>
ClientOracle::evaluate(const std::vector<service::ExperimentRequest> &reqs)
{
    stats_.calls += reqs.size();
    std::vector<Evaluation> out(reqs.size());
    if (auto *tcp = dynamic_cast<service::TcpClient *>(&client_)) {
        // Pipeline the whole batch on the one connection.
        std::vector<std::uint64_t> ids(reqs.size());
        for (std::size_t i = 0; i < reqs.size(); ++i)
            ids[i] = tcp->submit(reqs[i]);
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const service::ClientResult r = tcp->waitFor(ids[i]);
            out[i] = evaluationFromBody(r.body, r.servedFromCache);
            if (r.servedFromCache)
                ++stats_.cacheHits;
        }
        return out;
    }
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const service::ClientResult r = client_.run(reqs[i]);
        out[i] = evaluationFromBody(r.body, r.servedFromCache);
        if (r.servedFromCache)
            ++stats_.cacheHits;
    }
    return out;
}

} // namespace piton::search
