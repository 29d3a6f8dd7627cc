/**
 * @file
 * VPC trace serialization.
 *
 * The paper's methodology (Sec. V-A) generates VPC traces from the
 * instrumented workloads and feeds them to the cycle-accurate
 * simulator ("our cycle-accurate simulator then extracts all
 * VPC-related information from these traces and processes them").
 * This module provides the same decoupling for this reproduction: a
 * planned VpcSchedule can be saved to a portable text format,
 * inspected or edited offline, and replayed later on any executor
 * configuration.
 *
 * Format (line-oriented, '#' comments allowed):
 *
 *   STPIMTRACE 1
 *   workload <name>
 *   batches <n>
 *   B <kind> <subarray> <dst> <count> <len> <depA> <depB> <barrier>
 *   ...
 *
 * kind is the Table II mnemonic; dep fields use '-' for none.
 */

#ifndef STREAMPIM_RUNTIME_TRACE_HH_
#define STREAMPIM_RUNTIME_TRACE_HH_

#include <iosfwd>
#include <string>

#include "runtime/schedule.hh"

namespace streampim
{

/** A schedule plus its provenance metadata. */
struct VpcTrace
{
    std::string workload;
    VpcSchedule schedule;
};

/** Write a trace in the STPIMTRACE text format. */
void writeTrace(const VpcTrace &trace, std::ostream &os);

/**
 * Parse a trace. fatal() on malformed input (bad header, unknown
 * mnemonic, forward dependencies) — trace files are user input.
 */
VpcTrace readTrace(std::istream &is);

/** Save/load via the filesystem. */
void saveTraceFile(const VpcTrace &trace, const std::string &path);
VpcTrace loadTraceFile(const std::string &path);

} // namespace streampim

#endif // STREAMPIM_RUNTIME_TRACE_HH_
