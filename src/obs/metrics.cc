#include "obs/metrics.hh"

#include <cstdio>

#include "common/logging.hh"

namespace hopp::obs
{

MetricsSampler::MetricsSampler(sim::EventQueue &eq, Duration period)
    : eq_(eq), period_(period)
{
    hopp_assert(period_ > 0, "metrics period must be positive");
}

void
MetricsSampler::addGauge(std::string name, std::function<double()> read)
{
    hopp_assert(!started_, "gauges must be registered before start()");
    gauges_.push_back(Gauge{std::move(name), std::move(read)});
    series_.emplace_back();
}

void
MetricsSampler::sampleNow()
{
    Tick now = eq_.now();
    times_.push_back(now);
    for (std::size_t g = 0; g < gauges_.size(); ++g) {
        double v = gauges_[g].read();
        series_[g].push_back(v);
        if (tracer_) {
            // Gauge names live in gauges_, which is frozen after
            // start(), so the c_str() pointers stay valid.
            tracer_->counter("metrics", gauges_[g].name.c_str(), now,
                             static_cast<std::uint64_t>(v));
        }
    }
}

void
MetricsSampler::fire()
{
    sampleNow();
    // Reschedule only while the machine still has work — pending
    // events, or (threads are pumped outside the queue) live
    // application threads: a sampler that always rearms would keep the
    // pump from ever draining.
    if (!eq_.empty() || (live_ && live_()))
        eq_.scheduleIn(period_, [this] { fire(); });
}

void
MetricsSampler::start()
{
    hopp_assert(!started_, "sampler already started");
    started_ = true;
    eq_.scheduleIn(period_, [this] { fire(); });
}

std::string
MetricsSampler::toCsv() const
{
    std::string out = "tick_ns";
    for (const Gauge &g : gauges_)
        out += "," + g.name;
    out += '\n';
    char buf[40];
    for (std::size_t row = 0; row < times_.size(); ++row) {
        // CSV is a serialization boundary. hopp-analyze: allow(raw)
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(times_[row].raw()));
        out += buf;
        for (const auto &col : series_) {
            std::snprintf(buf, sizeof(buf), ",%.10g", col[row]);
            out += buf;
        }
        out += '\n';
    }
    return out;
}

} // namespace hopp::obs
