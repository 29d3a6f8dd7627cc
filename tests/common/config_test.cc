/**
 * @file
 * Tests for the environment helpers and RNG.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>

#include "common/config.hh"
#include "common/rng.hh"
#include "parallel/thread_pool.hh"

namespace streampim
{
namespace
{

TEST(Config, EnvHelpers)
{
    ::setenv("SPIM_TEST_ENV_INT", "123", 1);
    EXPECT_EQ(Config::envInt("SPIM_TEST_ENV_INT", 0, 0, 1000), 123);
    // Both ends of the range are inclusive.
    EXPECT_EQ(Config::envInt("SPIM_TEST_ENV_INT", 0, 123, 123), 123);
    ::setenv("SPIM_TEST_ENV_INT", "", 1);
    EXPECT_EQ(Config::envInt("SPIM_TEST_ENV_INT", 5, 0, 10), 5);
    ::unsetenv("SPIM_TEST_ENV_INT");
    EXPECT_EQ(Config::envInt("SPIM_TEST_ENV_INT", 5, 0, 10), 5);

    ::setenv("SPIM_TEST_ENV_FLAG", "1", 1);
    EXPECT_TRUE(Config::envFlag("SPIM_TEST_ENV_FLAG"));
    ::setenv("SPIM_TEST_ENV_FLAG", "0", 1);
    EXPECT_FALSE(Config::envFlag("SPIM_TEST_ENV_FLAG"));
    ::unsetenv("SPIM_TEST_ENV_FLAG");
    EXPECT_FALSE(Config::envFlag("SPIM_TEST_ENV_FLAG"));

    ::setenv("SPIM_TEST_ENV_STR", "dir", 1);
    EXPECT_EQ(Config::envString("SPIM_TEST_ENV_STR", "x"), "dir");
    ::setenv("SPIM_TEST_ENV_STR", "", 1);
    EXPECT_EQ(Config::envString("SPIM_TEST_ENV_STR", "x"), "x");
    ::unsetenv("SPIM_TEST_ENV_STR");
    EXPECT_EQ(Config::envString("SPIM_TEST_ENV_STR"), "");
}

// Each bad value dies while the variable is parsed: defaultJobs() is
// what a ThreadPool asks before it starts any worker.
TEST(ConfigDeath, NegativeValueIsFatal)
{
    EXPECT_DEATH(
        {
            ::setenv("STREAMPIM_DIM", "-1", 1);
            (void)Config::envInt("STREAMPIM_DIM", 256, 1,
                                 Config::kMaxDim);
        },
        "STREAMPIM_DIM='-1' is outside");
}

TEST(ConfigDeath, TrailingGarbageIsFatal)
{
    EXPECT_DEATH(
        {
            ::setenv("STREAMPIM_JOBS", "8x", 1);
            (void)ThreadPool::defaultJobs();
        },
        "STREAMPIM_JOBS='8x' is not an integer");
}

TEST(ConfigDeath, JobCountAboveLimitIsFatal)
{
    EXPECT_DEATH(
        {
            ::setenv("STREAMPIM_JOBS", "2000000", 1);
            (void)ThreadPool::defaultJobs();
        },
        "STREAMPIM_JOBS='2000000' is outside");
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowIsRoughlyUniform)
{
    Rng r(1234);
    std::map<std::uint64_t, int> hist;
    const int n = 80000;
    for (int i = 0; i < n; ++i)
        hist[r.below(8)]++;
    for (auto &[v, count] : hist)
        EXPECT_NEAR(double(count), n / 8.0, n * 0.01) << v;
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(5);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

} // namespace
} // namespace streampim
