/**
 * @file
 * Unit tests for the DRAM frame allocator and traffic accounting, plus
 * the MemCtrl observer fan-out.
 */

#include <gtest/gtest.h>

#include <set>

#include "mem/dram.hh"
#include "mem/memctrl.hh"

using namespace hopp;
using namespace hopp::mem;

TEST(Dram, AllocateAllFramesThenExhausted)
{
    Dram dram(4);
    std::set<Ppn> seen;
    for (int i = 0; i < 4; ++i)
        seen.insert(dram.allocate());
    EXPECT_EQ(seen.size(), 4u);
    EXPECT_TRUE(dram.exhausted());
    EXPECT_EQ(dram.usedFrames(), 4u);
    EXPECT_EQ(seen.count(Ppn{}), 0u) << "PPN 0 must stay reserved";
}

TEST(Dram, ReleaseMakesFrameReusable)
{
    Dram dram(1);
    Ppn p = dram.allocate();
    EXPECT_TRUE(dram.exhausted());
    dram.release(p);
    EXPECT_FALSE(dram.exhausted());
    EXPECT_EQ(dram.allocate(), p);
}

TEST(DramDeath, DoubleFreePanics)
{
    Dram dram(2);
    Ppn p = dram.allocate();
    dram.release(p);
    EXPECT_DEATH(dram.release(p), "double free");
}

TEST(DramDeath, AllocateWhenExhaustedPanics)
{
    Dram dram(1);
    dram.allocate();
    EXPECT_DEATH(dram.allocate(), "exhausted");
}

TEST(Dram, TrafficAccountingPerSource)
{
    Dram dram(1);
    dram.recordTraffic(TrafficSource::AppRead, 64);
    dram.recordTraffic(TrafficSource::AppRead, 64);
    dram.recordTraffic(TrafficSource::HotPageWrite, 8);
    EXPECT_EQ(dram.traffic(TrafficSource::AppRead), 128u);
    EXPECT_EQ(dram.traffic(TrafficSource::HotPageWrite), 8u);
    EXPECT_EQ(dram.totalTraffic(), 136u);
}

namespace
{

struct RecordingObserver : McObserver
{
    std::vector<std::tuple<PhysAddr, bool, Tick>> events;

    void
    onMcAccess(PhysAddr pa, bool is_write, Tick now) override
    {
        events.emplace_back(pa, is_write, now);
    }
};

} // namespace

TEST(MemCtrl, ObserversSeeReadsAndWritesWithFlags)
{
    Dram dram(8);
    MemCtrl mc(dram);
    RecordingObserver obs;
    mc.attach(&obs);

    mc.demandRead(PhysAddr{0x1040}, Tick{100});
    mc.writeback(PhysAddr{0x2000}, Tick{200});
    mc.pageDma(Ppn{7}, Tick{300});

    ASSERT_EQ(obs.events.size(), 3u);
    EXPECT_EQ(obs.events[0], std::make_tuple(PhysAddr{0x1040}, false,
                                             Tick{100}));
    EXPECT_EQ(obs.events[1], std::make_tuple(PhysAddr{0x2000}, true,
                                             Tick{200}));
    EXPECT_EQ(std::get<0>(obs.events[2]), pageBase(Ppn{7}));
    EXPECT_TRUE(std::get<1>(obs.events[2]));
}

TEST(MemCtrl, TrafficChargedToRightSources)
{
    Dram dram(8);
    MemCtrl mc(dram);
    mc.demandRead(PhysAddr{}, Tick{});
    mc.writeback(PhysAddr{64}, Tick{});
    mc.pageDma(Ppn{3}, Tick{});
    EXPECT_EQ(dram.traffic(TrafficSource::AppRead), lineBytes);
    EXPECT_EQ(dram.traffic(TrafficSource::AppWrite), lineBytes);
    EXPECT_EQ(dram.traffic(TrafficSource::PageTransfer), pageBytes);
}

TEST(MemCtrl, DetachStopsCallbacks)
{
    Dram dram(8);
    MemCtrl mc(dram);
    RecordingObserver obs;
    mc.attach(&obs);
    mc.demandRead(PhysAddr{}, Tick{});
    mc.detach(&obs);
    mc.demandRead(PhysAddr{64}, Tick{});
    EXPECT_EQ(obs.events.size(), 1u);
}
