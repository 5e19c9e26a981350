/**
 * @file
 * Unit tests for the remote memory node and swap backend: slot
 * allocation adjacency, reverse mappings, and neighbourhood queries.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <vector>

#include "common/random.hh"
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

TEST(RemoteNode, RecyclesFreedSlots)
{
    RemoteNode node(100);
    node.allocate();
    SwapSlot s1 = node.allocate();
    node.release(s1);
    EXPECT_EQ(node.allocate(), s1);
    EXPECT_EQ(node.liveSlots(), 2u);
}

TEST(RemoteNodeDeath, OverflowPanics)
{
    RemoteNode node(2);
    node.allocate();
    node.allocate();
    EXPECT_DEATH(node.allocate(), "full");
}

TEST(RemoteNodeDeath, BogusReleasePanics)
{
    RemoteNode node(10);
    EXPECT_DEATH(node.release(5), "never-allocated");
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
    backend.release(s);
    EXPECT_FALSE(backend.owner(s).has_value());
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
}

TEST_F(BackendFixture, NeighborsSkipFreedSlots)
{
    for (std::uint64_t v = 10; v <= 14; ++v)
        backend.allocate(Pid{1}, Vpn{v});
    backend.release(1);
    auto around = neighbors(backend, 2, 2, 0);
    ASSERT_EQ(around.size(), 1u);
    EXPECT_EQ(around[0].vpn, Vpn{10});
}

TEST_F(BackendFixture, SlotOwnersMatchMapReferenceUnderChurn)
{
    // Seeded allocate/release churn against a std::map model. Freed
    // slots go to new pages (vpns are never reused), so a stale owner
    // left behind by a release would show up here.
    RemoteNode small(96);
    SwapBackend b(fabric, small);
    std::map<SwapSlot, SlotOwner> model;
    Pcg32 rng(20261019);
    std::uint64_t next_vpn = 1000;
    const std::uint64_t windows[][2] = {{0, 0}, {1, 1}, {4, 4},
                                        {0, 8}, {8, 0}, {3, 5}};
    for (int step = 0; step < 3000; ++step) {
        // Alternate filling and draining phases, so the node runs
        // full, empty and in between, and recycles freed slots.
        const std::uint32_t grow_in_4 = (step / 500) % 2 == 0 ? 3 : 1;
        bool grow = model.empty() || (model.size() < small.capacity() &&
                                      rng.below(4) < grow_in_4);
        if (grow) {
            Pid pid{1 + rng.below(4)};
            Vpn vpn{next_vpn++};
            SwapSlot s = b.allocate(pid, vpn);
            ASSERT_EQ(model.count(s), 0u)
                << "slot " << s << " handed out while live";
            model[s] = SlotOwner{pid, vpn};
        } else {
            const std::uint32_t victim =
                rng.below(static_cast<std::uint32_t>(model.size()));
            auto it = std::next(model.begin(), victim);
            b.release(it->first);
            model.erase(it);
        }

        ASSERT_EQ(b.liveMappings(), model.size()) << "step " << step;
        const SwapSlot high = small.highWater();
        for (SwapSlot s = 0; s < high + 4; ++s) {
            auto want = model.find(s);
            auto got = b.owner(s);
            ASSERT_EQ(got.has_value(), want != model.end())
                << "step " << step << " slot " << s;
            if (got) {
                EXPECT_EQ(got->pid, want->second.pid);
                EXPECT_EQ(got->vpn, want->second.vpn);
            }
            // Windows centred on every slot, from 0 (clamped below)
            // to past the high-water mark (clamped above).
            for (const auto &w : windows) {
                std::vector<SlotOwner> ref;
                SwapSlot lo = s >= w[0] ? s - w[0] : 0;
                for (auto m = model.lower_bound(lo);
                     m != model.end() && m->first <= s + w[1]; ++m) {
                    if (m->first != s)
                        ref.push_back(m->second);
                }
                std::vector<SlotOwner> seen = neighbors(b, s, w[0], w[1]);
                ASSERT_EQ(seen.size(), ref.size())
                    << "step " << step << " slot " << s << " window -"
                    << w[0] << "/+" << w[1];
                for (std::size_t i = 0; i < ref.size(); ++i) {
                    EXPECT_EQ(seen[i].pid, ref[i].pid);
                    EXPECT_EQ(seen[i].vpn, ref[i].vpn);
                }
            }
        }
    }
    EXPECT_GT(small.highWater(), 48u) << "the churn never grew the table";
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
