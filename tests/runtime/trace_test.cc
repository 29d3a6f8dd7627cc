/**
 * @file
 * Tests for VPC trace serialization.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/executor.hh"
#include "runtime/planner.hh"
#include "runtime/trace.hh"
#include "support/schedules.hh"
#include "workloads/polybench.hh"

namespace streampim
{
namespace
{

std::string
written(const VpcTrace &trace)
{
    std::stringstream os;
    writeTrace(trace, os);
    return os.str();
}

VpcTrace
parsed(const std::string &text)
{
    std::stringstream is(text);
    return readTrace(is);
}

VpcTrace
sampleTrace()
{
    SystemConfig cfg = SystemConfig::paperDefault();
    Planner p(cfg);
    VpcTrace t;
    t.workload = "atax";
    t.schedule = p.plan(makePolybench(PolybenchKernel::Atax, 48));
    return t;
}

TEST(Trace, RoundTripPreservesEveryBatch)
{
    VpcTrace t = sampleTrace();
    VpcTrace back = parsed(written(t));
    EXPECT_EQ(back.workload, "atax");
    const std::vector<VpcBatch> want = expandedBatches(t.schedule);
    const std::vector<VpcBatch> got = expandedBatches(back.schedule);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        const auto &a = want[i];
        const auto &b = got[i];
        EXPECT_EQ(a.kind, b.kind) << i;
        EXPECT_EQ(a.subarray, b.subarray) << i;
        EXPECT_EQ(a.dstSubarray, b.dstSubarray) << i;
        EXPECT_EQ(a.vpcCount, b.vpcCount) << i;
        EXPECT_EQ(a.vectorLen, b.vectorLen) << i;
        EXPECT_EQ(a.depA, b.depA) << i;
        EXPECT_EQ(a.depB, b.depB) << i;
        EXPECT_EQ(a.barrier, b.barrier) << i;
    }
}

TEST(Trace, ReplayedTraceProducesIdenticalTiming)
{
    VpcTrace t = sampleTrace();
    SystemConfig cfg = SystemConfig::paperDefault();
    Executor ex(cfg);
    Tick direct = ex.run(t.schedule).makespan;
    VpcTrace loaded = parsed(written(t));
    Tick replayed = ex.run(loaded.schedule).makespan;
    EXPECT_EQ(direct, replayed);
}

TEST(Trace, FileRoundTrip)
{
    VpcTrace t = sampleTrace();
    const std::string path = "/tmp/streampim_trace_test.stpim";
    saveTraceFile(t, path);
    VpcTrace loaded = loadTraceFile(path);
    EXPECT_EQ(loaded.schedule.batchCount(), t.schedule.batchCount());
    EXPECT_EQ(loaded.schedule.pimVpcs(), t.schedule.pimVpcs());
}

TEST(Trace, CommentsAndBlankLinesIgnored)
{
    VpcTrace t;
    t.workload = "demo";
    VpcBatch b;
    b.kind = VpcKind::Mul;
    b.subarray = 3;
    b.vpcCount = 2;
    b.vectorLen = 7;
    t.schedule.push(b);
    std::string text = written(t);
    text = "# a comment\n\n" + text + "# trailing\n";
    VpcTrace back = parsed(text);
    ASSERT_EQ(back.schedule.batchCount(), 1u);
    EXPECT_EQ(expandedBatches(back.schedule)[0].vectorLen, 7u);
}

TEST(TraceDeath, RejectsBadHeader)
{
    EXPECT_DEATH(parsed("NOTATRACE 1\n"), "STPIMTRACE");
    EXPECT_DEATH(parsed(""), "empty trace");
}

TEST(TraceDeath, RejectsForwardDependencies)
{
    std::string text =
        "STPIMTRACE 1\nworkload x\nbatches 1\n"
        "B MUL 0 0 1 4 7 - 0\n"; // dep 7 does not exist
    EXPECT_DEATH(parsed(text), "forward");
}

TEST(TraceDeath, RejectsCountMismatch)
{
    std::string text =
        "STPIMTRACE 1\nworkload x\nbatches 2\n"
        "B MUL 0 0 1 4 - - 0\n";
    EXPECT_DEATH(parsed(text), "declares");
}

TEST(TraceDeath, RejectsUnknownMnemonic)
{
    std::string text =
        "STPIMTRACE 1\nworkload x\nbatches 1\n"
        "B FROB 0 0 1 4 - - 0\n";
    EXPECT_DEATH(parsed(text), "mnemonic");
}

} // namespace
} // namespace streampim
