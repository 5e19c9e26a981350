/**
 * @file
 * Flight-recorder tests: the Tracer buffer, the Chrome trace_event
 * writer, the structural checker, and whole-machine trace
 * byte-determinism.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/json.hh"
#include "obs/trace_check.hh"
#include "obs/trace_writer.hh"
#include "obs/tracer.hh"
#include "runner/machine.hh"

using namespace hopp;
using namespace hopp::obs;

// ---------------------------------------------------------------------
// Tracer buffer semantics.

TEST(Tracer, DisabledByDefaultAndRecordsNothing)
{
    Tracer t;
    EXPECT_FALSE(t.enabled());
    t.begin("c", "a", Tick(1));
    t.end("c", "a", Tick(2));
    t.complete("c", "x", Tick(3), 4);
    t.instant("c", "i", Tick(5));
    t.counter("c", "n", Tick(6), 7);
    t.asyncBegin("c", "p", Tick(8), 1);
    t.asyncEnd("c", "p", Tick(9), 1);
    EXPECT_EQ(t.size(), 0u);
}

TEST(Tracer, DisabledTracerNeverAllocates)
{
    // Zero-cost-when-disabled: the event buffer must not even reserve
    // memory while recording is off.
    Tracer t;
    for (int i = 0; i < 10000; ++i)
        t.complete("c", "x", Tick(i), 1);
    EXPECT_EQ(t.bufferCapacity(), 0u);
}

TEST(Tracer, RecordsInOrderWithSequenceNumbers)
{
    Tracer t;
    t.enable();
    t.begin("c", "a", Tick(10));
    t.complete("c", "b", Tick(10), 5);
    t.end("c", "a", Tick(20));
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t.events()[0].ph, 'B');
    EXPECT_EQ(t.events()[1].ph, 'X');
    EXPECT_EQ(t.events()[2].ph, 'E');
    EXPECT_LT(t.events()[0].seq, t.events()[1].seq);
    EXPECT_LT(t.events()[1].seq, t.events()[2].seq);
}

TEST(Tracer, SortedIsStableOnTies)
{
    // Out-of-order record times (threads run ahead of the queue);
    // sorted() must order by ts and break ties by record order.
    Tracer t;
    t.enable();
    t.instant("c", "late", Tick(30));
    t.instant("c", "tie1", Tick(20));
    t.instant("c", "tie2", Tick(20));
    t.instant("c", "early", Tick(10));
    std::vector<TraceEvent> s = t.sorted();
    ASSERT_EQ(s.size(), 4u);
    EXPECT_STREQ(s[0].name, "early");
    EXPECT_STREQ(s[1].name, "tie1");
    EXPECT_STREQ(s[2].name, "tie2");
    EXPECT_STREQ(s[3].name, "late");
}

TEST(Tracer, AsyncIdsStartAtOneAndIncrease)
{
    Tracer t;
    EXPECT_EQ(t.nextAsyncId(), 1u);
    EXPECT_EQ(t.nextAsyncId(), 2u);
}

// ---------------------------------------------------------------------
// Writer: valid JSON, structural validity.

namespace
{

/** A small well-formed recording exercising every phase. */
Tracer
sampleTracer()
{
    Tracer t;
    t.enable();
    t.begin("machine", "run", Tick(0));
    t.complete("vm", "fault.remote", Tick(1000), 8500, track::ofPid(Pid(1)));
    std::uint64_t id = t.nextAsyncId();
    t.asyncBegin("vm", "prefetch.inject", Tick(2000), id);
    t.counter("sim", "queue_depth", Tick(3000), 4);
    t.instant("vm", "prefetch.adopt", Tick(4000));
    t.asyncEnd("vm", "prefetch.inject", Tick(6000), id);
    t.end("machine", "run", Tick(9000));
    return t;
}

} // namespace

TEST(TraceWriter, ChromeJsonParsesAndValidates)
{
    std::string doc = toChromeJson(sampleTracer());
    json::Value root;
    std::string err;
    ASSERT_TRUE(json::parse(doc, root, &err)) << err;
    TraceCheck check = checkTrace(root);
    EXPECT_TRUE(check.ok()) << (check.errors.empty()
                                    ? ""
                                    : check.errors.front());
    EXPECT_EQ(check.events, 7u);
    EXPECT_EQ(check.phaseCounts['X'], 1u);
    EXPECT_EQ(check.phaseCounts['B'], 1u);
    EXPECT_EQ(check.phaseCounts['E'], 1u);
}

TEST(TraceWriter, ChromeJsonRendersMicrosecondsFromTicks)
{
    // 8500 ns must appear as 8.500 us with fixed 3-digit fractions
    // (integer rendering — no float formatting in the writer).
    std::string doc = toChromeJson(sampleTracer());
    EXPECT_NE(doc.find("\"dur\":8.500"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"ts\":1.000"), std::string::npos) << doc;
}

TEST(TraceCheckTest, CatchesUnbalancedSpans)
{
    Tracer t;
    t.enable();
    t.begin("c", "open", Tick(0));
    std::string doc = toChromeJson(t);
    json::Value root;
    ASSERT_TRUE(json::parse(doc, root, nullptr));
    EXPECT_FALSE(checkTrace(root).ok());
}

TEST(TraceCheckTest, CatchesMismatchedEndName)
{
    Tracer t;
    t.enable();
    t.begin("c", "a", Tick(0));
    t.end("c", "b", Tick(1));
    std::string doc = toChromeJson(t);
    json::Value root;
    ASSERT_TRUE(json::parse(doc, root, nullptr));
    EXPECT_FALSE(checkTrace(root).ok());
}

// ---------------------------------------------------------------------
// Whole-machine recording: a traced run is structurally valid and
// byte-deterministic.

namespace
{

std::string
tracedRun()
{
    runner::MachineConfig cfg;
    cfg.system = runner::SystemKind::Hopp;
    cfg.localMemRatio = 0.5;
    cfg.trace = true;
    runner::Machine m(cfg);
    workloads::WorkloadScale scale;
    m.addWorkload(workloads::makeWorkload("microbench", scale));
    m.run();
    return toChromeJson(m.tracer());
}

} // namespace

TEST(MachineTrace, TracedRunValidates)
{
    std::string doc = tracedRun();
    json::Value root;
    std::string err;
    ASSERT_TRUE(json::parse(doc, root, &err)) << err;
    TraceCheck check = checkTrace(root);
    EXPECT_TRUE(check.ok()) << (check.errors.empty()
                                    ? ""
                                    : check.errors.front());
    // The machine run span and at least one fault span must be there.
    EXPECT_NE(doc.find("\"name\":\"run\""), std::string::npos);
    EXPECT_NE(doc.find("fault."), std::string::npos);
    EXPECT_GT(check.events, 100u);
}

TEST(MachineTrace, ByteIdenticalAcrossRuns)
{
    EXPECT_EQ(tracedRun(), tracedRun());
}

TEST(MachineTrace, DisabledMachineRecordsNothing)
{
    runner::MachineConfig cfg;
    cfg.system = runner::SystemKind::Fastswap;
    runner::Machine m(cfg);
    workloads::WorkloadScale scale;
    m.addWorkload(workloads::makeWorkload("microbench", scale));
    m.run();
    EXPECT_EQ(m.tracer().size(), 0u);
    EXPECT_EQ(m.tracer().bufferCapacity(), 0u);
}
