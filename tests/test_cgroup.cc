/**
 * @file
 * Unit tests for cgroup charge accounting, LRU list maintenance, and
 * the page-table container.
 */

#include <gtest/gtest.h>

#include "vm/cgroup.hh"
#include "vm/page_table.hh"

using namespace hopp;
using namespace hopp::vm;

TEST(Cgroup, ChargeUnchargeTracksCount)
{
    Cgroup cg(Pid{1}, 4);
    EXPECT_EQ(cg.charged(), 0u);
    cg.charge();
    cg.charge();
    EXPECT_EQ(cg.charged(), 2u);
    EXPECT_FALSE(cg.atLimit());
    cg.charge();
    cg.charge();
    EXPECT_TRUE(cg.atLimit());
    cg.uncharge();
    EXPECT_FALSE(cg.atLimit());
}

TEST(CgroupDeath, ChargeBeyondLimitPanics)
{
    Cgroup cg(Pid{1}, 1);
    cg.charge();
    EXPECT_DEATH(cg.charge(), "beyond");
}

TEST(CgroupDeath, UnchargeBelowZeroPanics)
{
    Cgroup cg(Pid{1}, 1);
    EXPECT_DEATH(cg.uncharge(), "below zero");
}

TEST(Cgroup, LruInsertVictimOrder)
{
    Cgroup cg(Pid{1}, 8);
    PageInfo a, b, c;
    cg.lruInsert(pageKey(Pid{1}, Vpn{10}), a);
    cg.lruInsert(pageKey(Pid{1}, Vpn{11}), b);
    cg.lruInsert(pageKey(Pid{1}, Vpn{12}), c);
    EXPECT_EQ(cg.lruSize(), 3u);
    EXPECT_EQ(cg.lruVictim(), pageKey(Pid{1}, Vpn{10})); // oldest
}

TEST(Cgroup, LruRotateMovesToMru)
{
    Cgroup cg(Pid{1}, 8);
    PageInfo a, b;
    cg.lruInsert(pageKey(Pid{1}, Vpn{10}), a);
    cg.lruInsert(pageKey(Pid{1}, Vpn{11}), b);
    cg.lruRotate(a); // 10 becomes MRU
    EXPECT_EQ(cg.lruVictim(), pageKey(Pid{1}, Vpn{11}));
}

TEST(Cgroup, LruRemoveClearsMembership)
{
    Cgroup cg(Pid{1}, 8);
    PageInfo a, b;
    cg.lruInsert(pageKey(Pid{1}, Vpn{10}), a);
    cg.lruInsert(pageKey(Pid{1}, Vpn{11}), b);
    cg.lruRemove(a);
    EXPECT_FALSE(a.inLru);
    EXPECT_EQ(cg.lruSize(), 1u);
    EXPECT_EQ(cg.lruVictim(), pageKey(Pid{1}, Vpn{11}));
}

TEST(CgroupDeath, DoubleInsertPanics)
{
    Cgroup cg(Pid{1}, 8);
    PageInfo a;
    cg.lruInsert(pageKey(Pid{1}, Vpn{10}), a);
    EXPECT_DEATH(cg.lruInsert(pageKey(Pid{1}, Vpn{10}), a), "already");
}

TEST(PageKey, RoundTripsPidAndVpn)
{
    std::uint64_t k = pageKey(Pid{0xBEEF}, Vpn{0xABCDEF123456ull});
    EXPECT_EQ(keyPid(k), Pid{0xBEEF});
    EXPECT_EQ(keyVpn(k), Vpn{0xABCDEF123456ull});
}

TEST(PageTable, GetCreatesUntouched)
{
    PageTable pt;
    PageInfo &pi = pt.get(Pid{1}, Vpn{42});
    EXPECT_EQ(pi.state, PageState::Untouched);
    EXPECT_EQ(pt.size(), 1u);
    EXPECT_EQ(pt.find(Pid{1}, Vpn{42}), &pi);
    EXPECT_EQ(pt.find(Pid{1}, Vpn{43}), nullptr);
}

TEST(PageTable, PresentOnlyForResident)
{
    PageTable pt;
    PageInfo &pi = pt.get(Pid{1}, Vpn{42});
    EXPECT_FALSE(pt.present(Pid{1}, Vpn{42}));
    pi.state = PageState::Resident;
    EXPECT_TRUE(pt.present(Pid{1}, Vpn{42}));
    pi.state = PageState::SwapCached;
    EXPECT_FALSE(pt.present(Pid{1}, Vpn{42}));
}

TEST(PageTable, ForEachPresentVisitsOnlyMapped)
{
    PageTable pt;
    pt.get(Pid{1}, Vpn{1}).state = PageState::Resident;
    pt.get(Pid{1}, Vpn{2}).state = PageState::Swapped;
    pt.get(Pid{2}, Vpn{3}).state = PageState::Resident;
    int visits = 0;
    pt.forEach([&](std::uint64_t key, const PageInfo &pi) {
        if (pi.state != PageState::Resident)
            return;
        ++visits;
        EXPECT_TRUE(key == pageKey(Pid{1}, Vpn{1}) ||
                    key == pageKey(Pid{2}, Vpn{3}));
    });
    EXPECT_EQ(visits, 2);
}

TEST(PageTable, CountStateTallies)
{
    PageTable pt;
    pt.get(Pid{1}, Vpn{1}).state = PageState::Resident;
    pt.get(Pid{1}, Vpn{2}).state = PageState::Resident;
    pt.get(Pid{1}, Vpn{3}).state = PageState::Swapped;
    EXPECT_EQ(pt.countState(PageState::Resident), 2u);
    EXPECT_EQ(pt.countState(PageState::Swapped), 1u);
    EXPECT_EQ(pt.countState(PageState::Untouched), 0u);
}
