#include "common/config.hh"

#include <charconv>
#include <cstdlib>
#include <cstring>

#include "common/log.hh"

namespace streampim
{

std::int64_t
Config::envInt(const std::string &env, std::int64_t def,
               std::int64_t lo, std::int64_t hi)
{
    const char *v = std::getenv(env.c_str());
    if (v == nullptr || *v == '\0')
        return def;
    const char *end = v + std::strlen(v);
    std::int64_t value = 0;
    const auto [ptr, ec] = std::from_chars(v, end, value);
    if (ec != std::errc() || ptr != end)
        SPIM_FATAL(env, "='", v, "' is not an integer");
    if (value < lo || value > hi)
        SPIM_FATAL(env, "='", v, "' is outside [", lo, ", ", hi, "]");
    return value;
}

bool
Config::envFlag(const std::string &env)
{
    const char *v = std::getenv(env.c_str());
    return v != nullptr && *v != '\0' && std::string(v) != "0";
}

std::string
Config::envString(const std::string &env, const std::string &def)
{
    const char *v = std::getenv(env.c_str());
    return (v == nullptr || *v == '\0') ? def : v;
}

} // namespace streampim
