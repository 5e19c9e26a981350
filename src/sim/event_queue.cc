#include "sim/event_queue.hh"


namespace hopp::sim
{

bool
EventQueue::runOne()
{
    if (heap_.empty())
        return false;
    // The callback may schedule new events, so move it out first.
    // popTop() moves the closure out of the heap — no copy, no
    // allocation — which is the point of the InlineEvent design.
    Entry e = popTop();
    hopp_assert(e.when >= now_, "event heap ordering violated");
    now_ = e.when;
    ++executed_;
    bool traced = tracer_ && executed_ % traceSampleEvery_ == 0;
    if (traced) {
        tracer_->counter("sim", "queue_depth", now_, heap_.size());
        tracer_->counter("sim", "events_executed", now_, executed_);
        tracer_->begin("sim", "dispatch", now_, obs::track::sim);
    }
    e.fn();
    if (traced) {
        // Callbacks cannot advance now_, so the span closes at the
        // tick it opened; nested events it recorded (at >= now_) sort
        // inside or after it, never before.
        tracer_->end("sim", "dispatch", now_, obs::track::sim);
    }
    return true;
}

std::uint64_t
EventQueue::run(std::uint64_t limit)
{
    std::uint64_t n = 0;
    while (n < limit && runOne())
        ++n;
    return n;
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    std::uint64_t n = 0;
    while (!heap_.empty() && heap_.front().when <= until && runOne())
        ++n;
    if (now_ < until)
        now_ = until;
    return n;
}

} // namespace hopp::sim
