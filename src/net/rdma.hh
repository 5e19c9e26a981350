/**
 * @file
 * Asynchronous RDMA fabric: two simplex links (reads pull data from the
 * memory node, writes push data to it) plus completion scheduling on the
 * event queue. This is the only channel both the demand swap path and
 * HoPP's separate prefetch data path use, so they naturally contend.
 */

#pragma once

#include <utility>

#include "common/types.hh"
#include "net/link.hh"
#include "sim/event_queue.hh"

namespace hopp::net
{

/**
 * RDMA one-sided read/write engine over a pair of simplex links.
 */
class RdmaFabric
{
  public:
    RdmaFabric(sim::EventQueue &eq, const LinkConfig &cfg)
        : eq_(eq), readLink_(cfg), writeLink_(cfg)
    {
    }

    /**
     * One-sided read of @p bytes issued at @p now.
     * @return the completion tick (data available locally).
     */
    Tick
    read(std::uint64_t bytes, Tick now)
    {
        return readLink_.transfer(bytes, now);
    }

    /**
     * One-sided read with a completion callback scheduled on the event
     * queue. @p now must be >= the queue's current time. The callback
     * is moved straight into the event queue's inline storage — it must
     * fit sim::InlineEvent's capture budget (enforced at compile time),
     * which keeps completions allocation-free.
     */
    template <typename F>
    Tick
    readAsync(std::uint64_t bytes, Tick now, F &&done)
    {
        Tick completion = readLink_.transfer(bytes, now);
        eq_.schedule(completion,
                     [done = std::forward<F>(done), completion]() mutable {
                         done(completion);
                     });
        return completion;
    }

    /** One-sided write of @p bytes issued at @p now. */
    Tick
    write(std::uint64_t bytes, Tick now)
    {
        return writeLink_.transfer(bytes, now);
    }

    /** One-sided write with completion callback (same inline-capture
     *  contract as readAsync). */
    template <typename F>
    Tick
    writeAsync(std::uint64_t bytes, Tick now, F &&done)
    {
        Tick completion = writeLink_.transfer(bytes, now);
        eq_.schedule(completion,
                     [done = std::forward<F>(done), completion]() mutable {
                         done(completion);
                     });
        return completion;
    }

    /** Inbound (read-response) link. */
    const Link &readLink() const { return readLink_; }

    /** Outbound (write) link. */
    const Link &writeLink() const { return writeLink_; }

    /** Attach the flight recorder to both simplex links. */
    void
    setTracer(obs::Tracer *tracer)
    {
        readLink_.setTracer(tracer, "net.read", "read_backlog_ns",
                            obs::track::netRead);
        writeLink_.setTracer(tracer, "net.write", "write_backlog_ns",
                             obs::track::netWrite);
    }

  private:
    sim::EventQueue &eq_;
    Link readLink_;
    Link writeLink_;
};

} // namespace hopp::net

