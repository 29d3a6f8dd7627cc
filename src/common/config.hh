/**
 * @file
 * Environment overrides (STREAMPIM_DIM, STREAMPIM_JOBS, ...).
 *
 * Benches and examples build a SystemConfig programmatically; these
 * helpers read the few knobs that want to be overridable from the
 * environment, without pulling in a configuration library.
 */

#ifndef STREAMPIM_COMMON_CONFIG_HH_
#define STREAMPIM_COMMON_CONFIG_HH_

#include <cstdint>
#include <string>

namespace streampim
{

/** Typed readers of environment variables, with defaults. */
class Config
{
  public:
    Config() = delete;

    /** Inclusive upper bounds of the integer knobs. */
    static constexpr std::int64_t kMaxJobs = 1024;   //!< JOBS
    static constexpr std::int64_t kMaxDim = 65536;   //!< DIM
    /** Largest fleet a ShardedSystem or fleet campaign accepts. */
    static constexpr std::int64_t kMaxDevices = 64;

    /**
     * Read an integer in [@p lo, @p hi] from environment variable
     * @p env, falling back to @p def when unset or empty. Text that
     * is not a whole decimal integer, or a value out of range, is a
     * fatal configuration error naming the variable and its value.
     */
    static std::int64_t envInt(const std::string &env, std::int64_t def,
                               std::int64_t lo, std::int64_t hi);

    /** Read a flag (non-empty, not "0") from the environment. */
    static bool envFlag(const std::string &env);

    /**
     * Read a string from environment variable @p env, falling back
     * to @p def when unset or empty.
     */
    static std::string envString(const std::string &env,
                                 const std::string &def = "");
};

} // namespace streampim

#endif // STREAMPIM_COMMON_CONFIG_HH_
