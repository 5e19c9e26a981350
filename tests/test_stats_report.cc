/**
 * @file
 * Tests for the machine-wide statistics report: every component
 * contributes, the dump is parseable, and key values agree with the
 * RunResult the machine returned.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/json.hh"
#include "runner/machine.hh"
#include "runner/stats_report.hh"

using namespace hopp;
using namespace hopp::runner;

namespace
{

double
valueOf(const std::vector<stats::StatSet> &sets,
        const std::string &name)
{
    for (const auto &s : sets) {
        for (const auto &v : s.values()) {
            if (v.name == name)
                return v.value;
        }
    }
    ADD_FAILURE() << "stat '" << name << "' not found";
    return -1;
}

} // namespace

TEST(StatsReport, AllComponentSetsPresentForHoppMachine)
{
    MachineConfig cfg;
    cfg.system = SystemKind::Hopp;
    cfg.localMemRatio = 0.5;
    Machine m(cfg);
    m.addWorkload(workloads::makeWorkload("kmeans-omp", {0.1, 0.3}));
    m.run();
    std::string report = statsReport(m);
    for (const char *prefix :
         {"llc.hits", "dram.frames_total", "vms.faults",
          "remote.demand_reads", "prefetch.accuracy",
          "net.read.bytes", "net.write.bytes", "hopp.hpd.hot_pages",
          "hopp.tier.ssp.issued", "hopp.policy.feedbacks"}) {
        EXPECT_NE(report.find(prefix), std::string::npos) << prefix;
    }
}

TEST(StatsReport, NoHoppSectionForPlainFastswap)
{
    MachineConfig cfg;
    cfg.system = SystemKind::Fastswap;
    cfg.localMemRatio = 0.5;
    Machine m(cfg);
    m.addWorkload(workloads::makeWorkload("kmeans-omp", {0.1, 0.3}));
    m.run();
    std::string report = statsReport(m);
    EXPECT_EQ(report.find("hopp."), std::string::npos);
    EXPECT_NE(report.find("vms.faults"), std::string::npos);
}

TEST(StatsReport, ValuesAgreeWithRunResult)
{
    MachineConfig cfg;
    cfg.system = SystemKind::Hopp;
    cfg.localMemRatio = 0.5;
    Machine m(cfg);
    m.addWorkload(workloads::makeWorkload("quicksort", {0.1, 0.3}));
    auto r = m.run();
    auto sets = collectStats(m);
    EXPECT_DOUBLE_EQ(valueOf(sets, "vms.accesses"),
                     static_cast<double>(r.vms.accesses));
    EXPECT_DOUBLE_EQ(valueOf(sets, "vms.faults"),
                     static_cast<double>(r.vms.faults()));
    EXPECT_DOUBLE_EQ(valueOf(sets, "remote.demand_reads"),
                     static_cast<double>(r.demandRemote));
    EXPECT_DOUBLE_EQ(valueOf(sets, "prefetch.accuracy"), r.accuracy);
    EXPECT_DOUBLE_EQ(valueOf(sets, "prefetch.coverage"), r.coverage);
}

TEST(StatsReport, EveryLineIsNameValueComment)
{
    MachineConfig cfg;
    cfg.system = SystemKind::HoppOnly;
    cfg.localMemRatio = 0.5;
    Machine m(cfg);
    m.addWorkload(workloads::makeWorkload("npb-mg", {0.1, 0.3}));
    m.run();
    std::istringstream in(statsReport(m));
    std::string line;
    unsigned lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        std::istringstream ls(line);
        std::string name;
        double value;
        ASSERT_TRUE(static_cast<bool>(ls >> name >> value)) << line;
        EXPECT_NE(line.find('#'), std::string::npos) << line;
    }
    EXPECT_GT(lines, 40u);
}

TEST(StatsReport, TrafficConservation)
{
    // DRAM traffic split by source must sum to the module total.
    MachineConfig cfg;
    cfg.system = SystemKind::Hopp;
    cfg.localMemRatio = 0.5;
    Machine m(cfg);
    m.addWorkload(workloads::makeWorkload("npb-is", {0.1, 0.3}));
    m.run();
    auto sets = collectStats(m);
    double sum = valueOf(sets, "dram.bytes_app_read") +
                 valueOf(sets, "dram.bytes_app_write") +
                 valueOf(sets, "dram.bytes_page_dma") +
                 valueOf(sets, "dram.bytes_hot_page") +
                 valueOf(sets, "dram.bytes_rpt_query") +
                 valueOf(sets, "dram.bytes_rpt_update");
    EXPECT_DOUBLE_EQ(sum,
                     static_cast<double>(m.dram().totalTraffic()));
}

TEST(StatsReport, StatsJsonIsValidAndDeterministic)
{
    MachineConfig cfg;
    cfg.system = SystemKind::Hopp;
    cfg.localMemRatio = 0.5;
    Machine m(cfg);
    m.addWorkload(workloads::makeWorkload("kmeans-omp", {0.1, 0.3}));
    m.run();
    std::string doc = statsJson(m);
    obs::json::Value root;
    std::string err;
    ASSERT_TRUE(obs::json::parse(doc, root, &err)) << err;
    ASSERT_TRUE(root.isObject());
    EXPECT_NE(root.find("vms.faults"), nullptr);
    EXPECT_NE(root.find("latency.remote_fault.p50_ns"), nullptr);
    // Re-rendering the same machine is byte-identical.
    EXPECT_EQ(doc, statsJson(m));
}
