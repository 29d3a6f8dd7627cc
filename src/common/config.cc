#include "common/config.hh"

#include <cstdlib>

#include "common/log.hh"

namespace streampim
{

std::int64_t
Config::envInt(const std::string &env, std::int64_t def)
{
    const char *v = std::getenv(env.c_str());
    if (v == nullptr || *v == '\0')
        return def;
    try {
        return std::stoll(v);
    } catch (...) {
        warn("ignoring unparsable env ", env, "='", v, "'");
        return def;
    }
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
