/**
 * @file
 * Tests for the report plumbing: summaries and `key value` dumps.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.hh"
#include "runtime/planner.hh"
#include "workloads/polybench.hh"

namespace streampim
{
namespace
{

ExecutionReport
sampleReport()
{
    SystemConfig cfg = SystemConfig::paperDefault();
    Planner p(cfg);
    Executor e(cfg);
    return e.run(p.plan(makePolybench(PolybenchKernel::Atax, 64)));
}

TEST(Report, SummaryMentionsKeyNumbers)
{
    ExecutionReport r = sampleReport();
    std::string s = summarizeReport(r);
    EXPECT_NE(s.find("PIM VPCs"), std::string::npos);
    EXPECT_NE(s.find("overlapped"), std::string::npos);
}

TEST(Report, DumpIsParsable)
{
    ExecutionReport r = sampleReport();
    std::ostringstream os;
    dumpReport(r, os, "dev");
    // Every line is `dev.<key> <value>` with a unique key.
    std::istringstream in(os.str());
    std::map<std::string, std::string> values;
    std::string line;
    while (std::getline(in, line)) {
        const auto space = line.find(' ');
        ASSERT_NE(space, std::string::npos) << line;
        ASSERT_EQ(line.rfind("dev.", 0), 0u) << line;
        const std::string key = line.substr(4, space - 4);
        EXPECT_TRUE(values.emplace(key, line.substr(space + 1)).second)
            << key;
    }
    EXPECT_EQ(values.at("makespan_ticks"), std::to_string(r.makespan));
    EXPECT_EQ(values.at("pim_vpcs"), std::to_string(r.pimVpcs));
    EXPECT_EQ(values.at("batches"), std::to_string(r.batches));
    EXPECT_EQ(values.at("process_ticks"),
              std::to_string(r.breakdown.processTicks));
    EXPECT_EQ(values.at("ops_pim_mul"),
              std::to_string(r.energy.count(EnergyOp::PimMul)));
    EXPECT_EQ(values.count("energy_pj_pim_mul.sum"), 1u);
    EXPECT_EQ(values.count("energy_pj_pim_mul.mean"), 1u);
    // Categories that recorded nothing are left out.
    EXPECT_EQ(values.count("ops_dram_access"), 0u);
}

TEST(Report, CoveragePercentagesAreSane)
{
    ExecutionReport r = sampleReport();
    const auto &b = r.breakdown;
    EXPECT_LE(b.exclusiveTransfer + b.exclusiveProcess +
                  b.overlapped + b.idle,
              r.makespan);
}

namespace
{

std::vector<BankHealth>
sampleHealth()
{
    BankHealth b0;
    b0.bank = 0;
    b0.deposits = 1200;
    b0.maxWear = 37;
    b0.trackRemaps = 2;
    b0.sparesUsed = 2;
    b0.sparesTotal = 16;
    b0.redeposits = 9;
    b0.writeFailures = 1;
    BankHealth b1;
    b1.bank = 1;
    b1.sparesTotal = 16;
    return {b0, b1};
}

} // namespace

TEST(Report, BankHealthSummaryIsOneLinePerBank)
{
    auto health = sampleHealth();
    const std::string s = summarizeBankHealth(health);
    EXPECT_NE(s.find("bank 0: spares 14/16 remaining"),
              std::string::npos);
    EXPECT_NE(s.find("max wear 37"), std::string::npos);
    EXPECT_NE(s.find("bank 1: spares 16/16 remaining"),
              std::string::npos);
    EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 1);
}

} // namespace
} // namespace streampim
