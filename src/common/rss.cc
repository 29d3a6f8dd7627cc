#include "common/rss.hh"

#include <cstring>
#include <fstream>
#include <string>

namespace streampim
{

namespace
{

/** The "<field>: N kB" line of /proc/self/status, in MiB. */
double
statusMib(const char *field)
{
    std::ifstream in("/proc/self/status");
    const std::size_t len = std::strlen(field);
    std::string line;
    while (std::getline(in, line))
        if (line.compare(0, len, field) == 0 && line[len] == ':')
            return std::stod(line.substr(len + 1)) / 1024.0;
    return 0.0;
}

} // namespace

double
peakResidentMib()
{
    return statusMib("VmHWM");
}

} // namespace streampim
