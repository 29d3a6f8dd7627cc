/**
 * @file
 * The process's peak resident memory, read from /proc/self/status:
 * what the reports' `peak_rss_mib` and the memory-bound tests
 * measure.
 */

#ifndef STREAMPIM_COMMON_RSS_HH_
#define STREAMPIM_COMMON_RSS_HH_

namespace streampim
{

/** Peak resident set so far (VmHWM), in MiB; 0 where unreadable. */
double peakResidentMib();

} // namespace streampim

#endif // STREAMPIM_COMMON_RSS_HH_
