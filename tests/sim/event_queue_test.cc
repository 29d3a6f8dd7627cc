/**
 * @file
 * Tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/clocked.hh"
#include "sim/event_queue.hh"

namespace streampim
{
namespace
{

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_EQ(eq.nextTick(), kTickMax);
}

TEST(EventQueue, EventsRunInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(100, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        fired++;
        if (fired < 10)
            eq.scheduleIn(5, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(eq.curTick(), 45u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { fired++; });
    eq.schedule(50, [&] { fired++; });
    bool more = eq.runUntil(20);
    EXPECT_TRUE(more);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.curTick(), 20u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ProcessedCountsEvents)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.processed(), 7u);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.curTick(), 0u);
}

TEST(EventQueueDeath, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, [] {}), "past");
}

TEST(ClockDomain, HundredMegahertzPeriod)
{
    // The paper's 100 MHz core clock = 10 ns = 10'000 ticks.
    ClockDomain clk(100e6);
    EXPECT_EQ(clk.cyclesToTicks(1), 10000u);
    EXPECT_EQ(clk.cyclesToTicks(3), 30000u);
}

} // namespace
} // namespace streampim
