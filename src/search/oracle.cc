#include "search/oracle.hh"

#include <numeric>
#include <thread>
#include <utility>

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
ClientOracle::evaluate(const std::vector<service::ExperimentRequest> &reqs)
{
    stats_.calls += reqs.size();
    std::vector<Evaluation> out(reqs.size());
    std::vector<std::size_t> todo(reqs.size());
    std::iota(todo.begin(), todo.end(), std::size_t{0});
    std::vector<std::uint64_t> ids;
    while (!todo.empty()) {
        ids.clear();
        for (const std::size_t i : todo)
            ids.push_back(client_.submit(reqs[i]));
        std::vector<std::size_t> shed;
        for (std::size_t k = 0; k < todo.size(); ++k) {
            const service::ClientResult r = client_.waitFor(ids[k]);
            if (r.status == service::Status::Shed) {
                shed.push_back(todo[k]);
                continue;
            }
            out[todo[k]] = evaluationFromBody(r.body, r.servedFromCache);
            if (r.servedFromCache)
                ++stats_.cacheHits;
        }
        // Nothing admitted: the service is full of other clients' work.
        if (shed.size() == todo.size())
            std::this_thread::yield();
        todo = std::move(shed);
    }
    return out;
}

} // namespace piton::search
