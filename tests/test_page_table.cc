/**
 * @file
 * Unit tests for the two-level radix page table: find/get
 * semantics, the three properties the hot path leans on (stable
 * pointers, deterministic ascending iteration, per-leaf contiguity),
 * and cross-leaf / cross-process record isolation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "vm/page_table.hh"

using namespace hopp;
using namespace hopp::vm;

TEST(PageTable, GetCreatesAndFindSeesIt)
{
    PageTable pt;
    EXPECT_EQ(pt.size(), 0u);
    EXPECT_EQ(pt.find(Pid{1}, Vpn{7}), nullptr);

    PageInfo &pi = pt.get(Pid{1}, Vpn{7});
    EXPECT_EQ(pi.state, PageState::Untouched);
    EXPECT_EQ(pt.size(), 1u);
    EXPECT_EQ(pt.find(Pid{1}, Vpn{7}), &pi);

    // get() again is find-or-create: same record, no growth.
    EXPECT_EQ(&pt.get(Pid{1}, Vpn{7}), &pi);
    EXPECT_EQ(pt.size(), 1u);
}

TEST(PageTable, FindMissesAbsentPidLeafAndSlot)
{
    PageTable pt;
    pt.get(Pid{2}, Vpn{600}); // directory 1, one slot
    EXPECT_EQ(pt.find(Pid{9}, Vpn{600}), nullptr);  // absent pid
    EXPECT_EQ(pt.find(Pid{2}, Vpn{5000}), nullptr); // absent leaf
    EXPECT_EQ(pt.find(Pid{2}, Vpn{601}), nullptr);  // absent slot
}

TEST(PageTable, PresentRequiresResidentState)
{
    PageTable pt;
    PageInfo &pi = pt.get(Pid{1}, Vpn{3});
    EXPECT_FALSE(pt.present(Pid{1}, Vpn{3})); // Untouched record
    pi.state = PageState::Resident;
    EXPECT_TRUE(pt.present(Pid{1}, Vpn{3}));
    pi.state = PageState::Swapped;
    EXPECT_FALSE(pt.present(Pid{1}, Vpn{3}));
}

TEST(PageTable, PointersStayStableAcrossHeavyGrowth)
{
    PageTable pt;
    // Pin a handful of records spread across pids and leaves.
    std::vector<std::pair<Pid, Vpn>> pinned = {
        {Pid{1}, Vpn{0}},    {Pid{1}, Vpn{511}}, {Pid{1}, Vpn{512}},
        {Pid{3}, Vpn{4096}}, {Pid{5}, Vpn{77}},
    };
    std::vector<PageInfo *> addrs;
    for (auto [pid, vpn] : pinned)
        addrs.push_back(&pt.get(pid, vpn));

    // Grow hard: new pids (directory vector resizes), new leaves in
    // existing directories, and thousands of records.
    for (std::uint64_t p = 1; p <= 40; ++p)
        for (std::uint64_t v = 0; v < 300; ++v)
            pt.get(Pid{p}, Vpn{v * 37});

    for (std::size_t i = 0; i < pinned.size(); ++i)
        EXPECT_EQ(pt.find(pinned[i].first, pinned[i].second), addrs[i])
            << "record " << i << " moved";
}

TEST(PageTable, ForEachVisitsAscendingKeyOrder)
{
    PageTable pt;
    // Insert in scrambled order across pids, leaves, and slots.
    std::vector<std::pair<Pid, Vpn>> entries = {
        {Pid{4}, Vpn{1}},   {Pid{1}, Vpn{513}}, {Pid{1}, Vpn{2}},
        {Pid{2}, Vpn{800}}, {Pid{1}, Vpn{511}}, {Pid{4}, Vpn{0}},
        {Pid{2}, Vpn{3}},   {Pid{1}, Vpn{512}},
    };
    for (auto [pid, vpn] : entries)
        pt.get(pid, vpn);

    std::vector<std::uint64_t> keys;
    pt.forEach([&](std::uint64_t key, const PageInfo &) {
        keys.push_back(key);
    });
    ASSERT_EQ(keys.size(), entries.size());
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));

    std::vector<std::uint64_t> expected;
    for (auto [pid, vpn] : entries)
        expected.push_back(pageKey(pid, vpn));
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(keys, expected);
}

TEST(PageTable, ForEachPresentFiltersToResident)
{
    PageTable pt;
    pt.get(Pid{1}, Vpn{1}).state = PageState::Resident;
    pt.get(Pid{1}, Vpn{2}).state = PageState::Swapped;
    pt.get(Pid{2}, Vpn{3}).state = PageState::Resident;
    pt.get(Pid{2}, Vpn{4}); // Untouched

    std::vector<std::pair<Pid, Vpn>> seen;
    pt.forEachPresent([&](Pid pid, Vpn vpn, const PageInfo &pi) {
        EXPECT_EQ(pi.state, PageState::Resident);
        seen.emplace_back(pid, vpn);
    });
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], (std::pair<Pid, Vpn>{Pid{1}, Vpn{1}}));
    EXPECT_EQ(seen[1], (std::pair<Pid, Vpn>{Pid{2}, Vpn{3}}));
}

TEST(PageTable, KeysOfIsScopedToPidAndSortedByVpn)
{
    PageTable pt;
    pt.get(Pid{2}, Vpn{700});
    pt.get(Pid{9}, Vpn{1}); // other process
    pt.get(Pid{2}, Vpn{3});
    pt.get(Pid{2}, Vpn{512});

    // The keys of one process come out as one run, in ascending vpn
    // order across its leaves, whatever the creation order.
    std::vector<std::uint64_t> keys;
    pt.forEach([&](std::uint64_t key, const PageInfo &) {
        keys.push_back(key);
    });
    ASSERT_EQ(keys.size(), 4u);
    EXPECT_EQ(keys[0], pageKey(Pid{2}, Vpn{3}));
    EXPECT_EQ(keys[1], pageKey(Pid{2}, Vpn{512}));
    EXPECT_EQ(keys[2], pageKey(Pid{2}, Vpn{700}));
    EXPECT_EQ(keys[3], pageKey(Pid{9}, Vpn{1}));
}

TEST(PageTable, CountStateTalliesAcrossProcesses)
{
    PageTable pt;
    pt.get(Pid{1}, Vpn{1}).state = PageState::Resident;
    pt.get(Pid{2}, Vpn{1}).state = PageState::Resident;
    pt.get(Pid{2}, Vpn{2}).state = PageState::Swapped;
    EXPECT_EQ(pt.countState(PageState::Resident), 2u);
    EXPECT_EQ(pt.countState(PageState::Swapped), 1u);
    EXPECT_EQ(pt.countState(PageState::SwapCached), 0u);
}

TEST(PageTable, AdjacentVpnsShareALeafAcrossItsBoundary)
{
    PageTable pt;
    // 510..513 straddle the 512-page leaf boundary: four distinct
    // records, all present, contiguous within each leaf.
    for (std::uint64_t v = 510; v <= 513; ++v)
        pt.get(Pid{1}, Vpn{v}).state = PageState::Resident;
    EXPECT_EQ(pt.size(), 4u);
    for (std::uint64_t v = 510; v <= 513; ++v)
        EXPECT_TRUE(pt.present(Pid{1}, Vpn{v})) << "vpn " << v;
    EXPECT_EQ(pt.find(Pid{1}, Vpn{511}), pt.find(Pid{1}, Vpn{510}) + 1);
    EXPECT_EQ(pt.find(Pid{1}, Vpn{513}), pt.find(Pid{1}, Vpn{512}) + 1);
    EXPECT_EQ(pt.find(Pid{1}, Vpn{514}), nullptr);
}
