/**
 * @file
 * Tests for the busy-until resource models.
 */

#include <gtest/gtest.h>

#include "sim/resource.hh"

namespace streampim
{
namespace
{

TEST(TickResource, BackToBackRequestsQueue)
{
    TickResource r;
    auto s1 = r.acquire(0, 100);
    EXPECT_EQ(s1.start, 0u);
    EXPECT_EQ(s1.end, 100u);
    auto s2 = r.acquire(0, 50);
    EXPECT_EQ(s2.start, 100u); // waits for the first request
    EXPECT_EQ(s2.end, 150u);
}

TEST(TickResource, LateArrivalStartsAtArrival)
{
    TickResource r;
    r.acquire(0, 10);
    auto s = r.acquire(500, 10);
    EXPECT_EQ(s.start, 500u);
}

TEST(TickResource, BusyTicksAccumulate)
{
    TickResource r;
    r.acquire(0, 10);
    r.acquire(0, 30);
    EXPECT_EQ(r.busyTicks(), 40u);
}

} // namespace
} // namespace streampim
