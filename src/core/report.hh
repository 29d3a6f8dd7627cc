/**
 * @file
 * Reporting glue: render ExecutionReports and bank telemetry as
 * human-readable summaries and `group.key value` dumps, so external
 * tooling (and the benches) consume one stable format.
 */

#ifndef STREAMPIM_CORE_REPORT_HH_
#define STREAMPIM_CORE_REPORT_HH_

#include <ostream>
#include <span>
#include <string>

#include "core/executor.hh"
#include "core/stream_pim.hh"

namespace streampim
{

/** Render a compact multi-line summary of a report. */
std::string summarizeReport(const ExecutionReport &report);

/**
 * Stream a report as `<group>.<key> <value>` lines: every count and
 * tick figure plus `ops_<category>` for each energy category that
 * recorded an operation, sorted by key; then that category's
 * `energy_pj_<category>.sum` and `.mean`, sorted by key.
 */
void dumpReport(const ExecutionReport &report, std::ostream &os,
                const std::string &group_name = "streampim");

/** Render a one-line-per-bank SMART health summary. */
std::string summarizeBankHealth(std::span<const BankHealth> health);

} // namespace streampim

#endif // STREAMPIM_CORE_REPORT_HH_
