#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hh"

using namespace streampim;

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, SingleJobRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.jobs(), 1u);
    std::thread::id caller = std::this_thread::get_id();
    std::thread::id seen;
    pool.submit([&] { seen = std::this_thread::get_id(); });
    pool.wait();
    EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
    pool.submit([&] { ran.fetch_add(1); });
    pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, PropagatesTaskException)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("cell failed"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The error is consumed; the pool keeps working.
    std::atomic<int> ran{0};
    pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
}

TEST(ParallelFor, CoversTheWholeRangeOnce)
{
    for (unsigned jobs : {1u, 3u, 8u}) {
        std::vector<std::atomic<int>> hits(257);
        parallelFor(hits.size(), jobs,
                    [&](std::size_t i) { hits[i].fetch_add(1); });
        for (auto &h : hits)
            EXPECT_EQ(h.load(), 1) << "jobs=" << jobs;
    }
}

TEST(ParallelFor, EmptyRangeIsANoOp)
{
    parallelFor(0, 4, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, ResultsIndependentOfJobCount)
{
    auto compute = [](unsigned jobs) {
        std::vector<double> out(64);
        parallelFor(out.size(), jobs, [&](std::size_t i) {
            double v = double(i) + 1.0;
            for (int it = 0; it < 1000; ++it)
                v = v * 1.0000001 + 0.5;
            out[i] = v;
        });
        return out;
    };
    EXPECT_EQ(compute(1), compute(7));
}

TEST(ThreadPool, DefaultJobsIsPositive)
{
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
}

TEST(ThreadPool, WaitWithZeroTasksReturnsImmediately)
{
    ThreadPool pool(4);
    pool.wait(); // nothing submitted: must not block or throw
    ThreadPool inline_pool(1);
    inline_pool.wait();
}

TEST(ThreadPool, NestedSubmitFromWorkerRuns)
{
    // The parallel VPC engine submits a task's ready successors
    // from inside the task body; wait() must not return before
    // those nested tasks finish.
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i)
        pool.submit([&] {
            pool.submit([&] {
                pool.submit([&] { ran.fetch_add(1); });
                ran.fetch_add(1);
            });
            ran.fetch_add(1);
        });
    pool.wait();
    EXPECT_EQ(ran.load(), 48);
}

TEST(ThreadPool, WaitCoversATaskThatSubmitsAndKeepsRunning)
{
    // The VPC engine's continuation: a task submits one ready
    // successor and keeps executing its own chain. wait() must
    // return only after both finish, whichever of them ends last.
    using namespace std::chrono_literals;
    ThreadPool pool(2);
    for (bool child_ends_first : {true, false}) {
        std::atomic<bool> child_done{false};
        std::atomic<bool> parent_done{false};
        pool.submit([&] {
            pool.submit([&] {
                if (!child_ends_first)
                    std::this_thread::sleep_for(20ms);
                child_done = true;
            });
            if (child_ends_first) {
                while (!child_done)
                    std::this_thread::yield();
                std::this_thread::sleep_for(20ms);
            }
            parent_done = true;
        });
        pool.wait();
        EXPECT_TRUE(child_done) << "child_ends_first "
                                << child_ends_first;
        EXPECT_TRUE(parent_done) << "child_ends_first "
                                 << child_ends_first;
    }
}

TEST(ThreadPool, ExceptionDoesNotStopQueuedWork)
{
    // One failing task must not prevent the rest of the queue from
    // draining; the first error surfaces at wait().
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.submit([] { throw std::runtime_error("task failed"); });
    for (int i = 0; i < 32; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, ResolveJobsPassesThroughOutsideSerialSection)
{
    ASSERT_FALSE(ThreadPool::inSerialSection());
    EXPECT_EQ(ThreadPool::resolveJobs(7), 7u);
    EXPECT_EQ(ThreadPool::resolveJobs(0),
              ThreadPool::defaultJobs());
}

TEST(ThreadPool, SerialSectionForcesOneJobAndNests)
{
    {
        ThreadPool::SerialSection outer;
        EXPECT_TRUE(ThreadPool::inSerialSection());
        EXPECT_EQ(ThreadPool::resolveJobs(8), 1u);
        EXPECT_EQ(ThreadPool::resolveJobs(0), 1u);
        {
            ThreadPool::SerialSection inner;
            EXPECT_EQ(ThreadPool::resolveJobs(8), 1u);
        }
        // Still serial: the outer section is alive.
        EXPECT_TRUE(ThreadPool::inSerialSection());
        EXPECT_EQ(ThreadPool::resolveJobs(8), 1u);
    }
    EXPECT_FALSE(ThreadPool::inSerialSection());
    EXPECT_EQ(ThreadPool::resolveJobs(8), 8u);
}

TEST(ThreadPool, SerialSectionIsThreadLocal)
{
    ThreadPool::SerialSection serial;
    ASSERT_TRUE(ThreadPool::inSerialSection());
    bool other_thread_serial = true;
    std::thread probe([&] {
        other_thread_serial = ThreadPool::inSerialSection();
    });
    probe.join();
    EXPECT_FALSE(other_thread_serial);
}

TEST(ThreadPool, SplitJobsSharesTheBudgetAcrossLevels)
{
    // gtest_discover_tests runs each TEST in its own process, so
    // mutating the environment here cannot leak into other tests.
    setenv("STREAMPIM_JOBS", "8", 1);

    // Fan-out smaller than the budget: every device runs, and the
    // leftover budget becomes engine jobs inside each.
    ThreadPool::JobSplit s = ThreadPool::splitJobs(4);
    EXPECT_EQ(s.outer, 4u);
    EXPECT_EQ(s.inner, 2u);

    // Fan-out larger than the budget: outer caps at the budget.
    s = ThreadPool::splitJobs(16);
    EXPECT_EQ(s.outer, 8u);
    EXPECT_EQ(s.inner, 1u);

    // Zero fan-out degenerates to one device with the full budget.
    s = ThreadPool::splitJobs(0);
    EXPECT_EQ(s.outer, 1u);
    EXPECT_EQ(s.inner, 8u);

    unsetenv("STREAMPIM_JOBS");
}

TEST(ThreadPool, SplitJobsNeverOversubscribes)
{
    // outer * inner <= the resolved budget at every combination of
    // fan-out and STREAMPIM_JOBS.
    for (unsigned jobs : {1u, 2u, 5u, 8u}) {
        setenv("STREAMPIM_JOBS", std::to_string(jobs).c_str(), 1);
        for (unsigned fanout : {0u, 1u, 2u, 4u, 9u}) {
            const ThreadPool::JobSplit s =
                ThreadPool::splitJobs(fanout);
            EXPECT_GE(s.outer, 1u);
            EXPECT_GE(s.inner, 1u);
            EXPECT_LE(s.outer, std::max(fanout, 1u));
            EXPECT_LE(s.outer * s.inner, jobs)
                << "jobs=" << jobs << " fanout=" << fanout;
        }
    }
    unsetenv("STREAMPIM_JOBS");
}

TEST(ThreadPool, SplitJobsCollapsesInSerialSection)
{
    setenv("STREAMPIM_JOBS", "8", 1);
    ThreadPool::SerialSection serial;
    const ThreadPool::JobSplit s = ThreadPool::splitJobs(4);
    EXPECT_EQ(s.outer, 1u);
    EXPECT_EQ(s.inner, 1u);
    unsetenv("STREAMPIM_JOBS");
}
