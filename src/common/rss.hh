/**
 * @file
 * The process's resident memory, read from /proc/self/status: what
 * the reports' `peak_rss_mib` and the memory-bound tests measure.
 */

#ifndef STREAMPIM_COMMON_RSS_HH_
#define STREAMPIM_COMMON_RSS_HH_

namespace streampim
{

/** Resident set now (VmRSS), in MiB; 0 where it cannot be read. */
double residentMib();

/** Peak resident set so far (VmHWM), in MiB; 0 where unreadable. */
double peakResidentMib();

} // namespace streampim

#endif // STREAMPIM_COMMON_RSS_HH_
