/**
 * @file
 * Error reporting in the gem5 spirit.
 *
 * panic()  — an internal invariant of the simulator is broken (a bug in
 *            StreamPIM itself); aborts.
 * fatal()  — the simulation cannot continue because of a user error
 *            (bad configuration, invalid arguments); exits with code 1.
 */

#ifndef STREAMPIM_COMMON_LOG_HH_
#define STREAMPIM_COMMON_LOG_HH_

#include <sstream>
#include <string>

namespace streampim
{

namespace detail
{

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Fold a variadic pack into one string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Abort: simulator-internal invariant violated. */
template <typename... Args>
[[noreturn]] void
panicAt(const char *file, int line, Args &&...args)
{
    detail::panicImpl(file, line, detail::concat(
        std::forward<Args>(args)...));
}

/** Exit(1): unrecoverable user/configuration error. */
template <typename... Args>
[[noreturn]] void
fatalAt(const char *file, int line, Args &&...args)
{
    detail::fatalImpl(file, line, detail::concat(
        std::forward<Args>(args)...));
}

} // namespace streampim

#define SPIM_PANIC(...) \
    ::streampim::panicAt(__FILE__, __LINE__, __VA_ARGS__)
#define SPIM_FATAL(...) \
    ::streampim::fatalAt(__FILE__, __LINE__, __VA_ARGS__)

/** Assert an internal invariant; compiled in all build types. */
#define SPIM_ASSERT(cond, ...)                                         \
    do {                                                               \
        if (!(cond)) {                                                 \
            SPIM_PANIC("assertion failed: " #cond " ", __VA_ARGS__);   \
        }                                                              \
    } while (0)

#endif // STREAMPIM_COMMON_LOG_HH_
