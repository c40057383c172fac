#include "service/response.hh"

namespace piton::service
{

namespace
{

template <typename Io, typename S>
void
railFields(Io &io, S &s)
{
    io.io(s.count);
    io.io(s.meanW);
    io.io(s.stddevW);
    io.io(s.minW);
    io.io(s.maxW);
}

constexpr std::size_t kMaxResultPoints = 4096;

/** The Response frame payload (see response.hh): the fields are passed
 *  apart so that encoding does not copy the body. */
template <typename Io, typename B, typename V>
void
envelopeFields(Io &io, B &served_from_cache, V &body)
{
    ioAs<std::uint8_t>(io, served_from_cache);
    io.io(body);
}

} // namespace

const char *
statusName(Status s)
{
    switch (s) {
    case Status::Ok:
        return "ok";
    case Status::Error:
        return "error";
    case Status::Shed:
        return "shed";
    case Status::DeadlineExpired:
        return "deadline-expired";
    case Status::Cancelled:
        return "cancelled";
    case Status::StatusCount:
        break;
    }
    return "?";
}

template <typename Io, typename Self>
void
ExperimentResponse::fields(Io &io, Self &self)
{
    ioEnum<std::uint16_t>(io, self.status, Status::StatusCount,
                          "bad response status");
    ioEnum<std::uint16_t>(io, self.kind, Kind::KindCount,
                          "bad response kind");
    io.io(self.error);
    switch (self.kind) {
    case Kind::MeasurePower:
    case Kind::MeasureStatic:
        railFields(io, self.measure.vdd);
        railFields(io, self.measure.vcs);
        railFields(io, self.measure.vio);
        railFields(io, self.measure.onChip);
        io.io(self.measure.dieTempC);
        break;
    case Kind::EnergyRun:
    case Kind::PlacedRun: {
        auto &e = self.energy;
        io.io(e.completed);
        io.io(e.stalled);
        io.io(e.cycles);
        io.io(e.seconds);
        io.io(e.insts);
        io.io(e.onChipEnergyJ);
        io.io(e.activeEnergyJ);
        io.io(e.idleEnergyJ);
        io.io(e.sampled); // result format v2
        io.io(e.energyCi95J);
        io.io(e.epiCi95);
        io.io(e.simulatedFrac);
        break;
    }
    case Kind::Sweep:
        ioVector<std::uint32_t>(io, self.points, kMaxResultPoints,
                                "too many sweep points in response",
                                [](auto &o, auto &p) {
                                    o.io(p.fanEffectiveness);
                                    railFields(o, p.onChip);
                                    o.io(p.finalDieC);
                                });
        break;
    case Kind::VfCurve:
        ioVector<std::uint32_t>(io, self.vfPoints, kMaxResultPoints,
                                "too many V-f points in response",
                                [](auto &o, auto &p) {
                                    o.io(p.vddV);
                                    o.io(p.fmaxMhz);
                                    o.io(p.nextStepMhz);
                                    o.io(p.thermallyLimited);
                                    o.io(p.dieTempC);
                                });
        break;
    case Kind::KindCount:
        break;
    }
}

std::vector<std::uint8_t>
ExperimentResponse::encodeBody() const
{
    return encodeFields(*this);
}

ExperimentResponse
ExperimentResponse::decodeBody(const std::vector<std::uint8_t> &b)
{
    return decodeFields<ExperimentResponse>(b);
}

ExperimentResponse
ExperimentResponse::failure(Status status, Kind kind, std::string message)
{
    ExperimentResponse resp;
    resp.status = status;
    resp.kind = kind;
    resp.error = std::move(message);
    return resp;
}

std::vector<std::uint8_t>
encodeResponseEnvelope(bool served_from_cache,
                       const std::vector<std::uint8_t> &body)
{
    WireWriter w;
    envelopeFields(w, served_from_cache, body);
    return w.take();
}

ResponseEnvelope
decodeResponseEnvelope(const std::vector<std::uint8_t> &payload)
{
    WireReader r(payload);
    ResponseEnvelope env;
    envelopeFields(r, env.servedFromCache, env.body);
    r.expectEnd();
    return env;
}

} // namespace piton::service
