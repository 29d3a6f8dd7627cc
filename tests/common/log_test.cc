/**
 * @file
 * Tests for the error-reporting substrate.
 */

#include <gtest/gtest.h>

#include "common/log.hh"

namespace streampim
{
namespace
{

TEST(LogDeath, PanicAborts)
{
    EXPECT_DEATH(SPIM_PANIC("boom ", 42), "panic: boom 42");
}

TEST(LogDeath, FatalExitsWithCodeOne)
{
    EXPECT_EXIT(SPIM_FATAL("bad config ", "x"),
                ::testing::ExitedWithCode(1), "fatal: bad config x");
}

TEST(LogDeath, AssertIncludesConditionText)
{
    int x = 1;
    EXPECT_DEATH(SPIM_ASSERT(x == 2, "x was ", x),
                 "assertion failed: x == 2");
}

TEST(LogDeath, AssertPassesQuietly)
{
    SPIM_ASSERT(1 + 1 == 2, "arithmetic broke");
    SUCCEED();
}

TEST(LogConcat, FormatsMixedTypes)
{
    EXPECT_EQ(detail::concat("a=", 1, " b=", 2.5, " c=", 'x'),
              "a=1 b=2.5 c=x");
}

} // namespace
} // namespace streampim
