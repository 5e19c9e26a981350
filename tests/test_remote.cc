/**
 * @file
 * Unit tests for the remote memory node and swap backend: slot
 * allocation adjacency, reverse mappings, and neighbourhood queries.
 */

#include <gtest/gtest.h>

#include <vector>

#include "remote/remote_node.hh"
#include "remote/swap_backend.hh"

using namespace hopp;
using namespace hopp::remote;

TEST(RemoteNode, AllocatesAscendingSlots)
{
    RemoteNode node(100);
    EXPECT_EQ(node.allocate(), 0u);
    EXPECT_EQ(node.allocate(), 1u);
    EXPECT_EQ(node.allocate(), 2u);
    EXPECT_EQ(node.liveSlots(), 3u);
}

TEST(RemoteNodeDeath, OverflowPanics)
{
    RemoteNode node(2);
    node.allocate();
    node.allocate();
    EXPECT_DEATH(node.allocate(), "full");
}

namespace
{

struct BackendFixture : ::testing::Test
{
    sim::EventQueue eq;
    net::RdmaFabric fabric{eq, net::LinkConfig{}};
    RemoteNode node{1 << 20};
    SwapBackend backend{fabric, node};
};

/** The owners forEachNeighbor visits, in visiting order. */
std::vector<SlotOwner>
neighbors(const SwapBackend &backend, SwapSlot slot,
          std::uint64_t before, std::uint64_t after)
{
    std::vector<SlotOwner> out;
    backend.forEachNeighbor(slot, before, after,
                            [&out](const SlotOwner &o) {
                                out.push_back(o);
                            });
    return out;
}

} // namespace

TEST_F(BackendFixture, AllocateRecordsOwner)
{
    SwapSlot s = backend.allocate(Pid{3}, Vpn{0x100});
    auto owner = backend.owner(s);
    ASSERT_TRUE(owner.has_value());
    EXPECT_EQ(owner->pid, Pid{3});
    EXPECT_EQ(owner->vpn, Vpn{0x100});
    EXPECT_FALSE(backend.owner(s + 1).has_value()) << "not handed out";
}

TEST_F(BackendFixture, NeighborsReturnAdjacentSlotOwners)
{
    // Evict pages in order: slots 0..4 belong to vpns 10..14.
    for (std::uint64_t v = 10; v <= 14; ++v)
        backend.allocate(Pid{1}, Vpn{v});
    auto around = neighbors(backend, 2, 2, 2);
    ASSERT_EQ(around.size(), 4u);
    EXPECT_EQ(around[0].vpn, Vpn{10});
    EXPECT_EQ(around[1].vpn, Vpn{11});
    EXPECT_EQ(around[2].vpn, Vpn{13});
    EXPECT_EQ(around[3].vpn, Vpn{14});
}

TEST_F(BackendFixture, NeighborsClampAtSlotZero)
{
    backend.allocate(Pid{1}, Vpn{10});
    backend.allocate(Pid{1}, Vpn{11});
    auto around = neighbors(backend, 0, 4, 1);
    ASSERT_EQ(around.size(), 1u);
    EXPECT_EQ(around[0].vpn, Vpn{11});
    // A window reaching past the last allocated slot clamps there too,
    // even one centred on a slot not handed out yet.
    around = neighbors(backend, 3, 2, 4);
    ASSERT_EQ(around.size(), 1u);
    EXPECT_EQ(around[0].vpn, Vpn{11});
}

TEST_F(BackendFixture, CountsDemandAndPrefetchReadsSeparately)
{
    backend.demandRead(Tick{});
    backend.readAsync(Tick{}, [](Tick) {});
    backend.readAsync(Tick{}, [](Tick) {});
    backend.write(Tick{});
    EXPECT_EQ(backend.demandReads(), 1u);
    EXPECT_EQ(backend.prefetchReads(), 2u);
    EXPECT_EQ(backend.writebacks(), 1u);
    eq.run();
}

TEST_F(BackendFixture, DemandReadLatencyMatchesLinkModel)
{
    Tick done = backend.demandRead(Tick{1000});
    EXPECT_GT(done, Tick{1000 + 3000}); // base latency dominates
    EXPECT_LT(done, Tick{1000 + 6000});
}
