/**
 * @file
 * SweepRunner: the shared engine behind the figure/table benches.
 *
 * A bench declares its sweep as a (row, column) grid of independent
 * cells — typically workload x platform — where each cell is a
 * closure that constructs its own simulator instances and returns a
 * scalar value plus optional named metrics. run() executes the
 * cells on a thread pool (STREAMPIM_JOBS workers, 1 = serial) and
 * stores results in declaration order, so tables and reports are
 * bit-identical regardless of the job count.
 *
 * Alongside the human-readable table each bench can emit a
 * machine-readable report, BENCH_<name>.json, for plotting scripts
 * and regression tooling:
 *  - `--json <path>` writes the report to an explicit file;
 *  - STREAMPIM_JSON=1 writes BENCH_<name>.json in the working
 *    directory, any other non-empty value names the directory.
 */

#ifndef STREAMPIM_PARALLEL_SWEEP_HH_
#define STREAMPIM_PARALLEL_SWEEP_HH_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"

namespace streampim
{

/**
 * Version of the BENCH_*.json report shape. Bump it whenever the
 * report layout changes (fields added/removed/renamed), so CI jobs
 * that diff reports fail loudly on format drift instead of silently
 * comparing mismatched shapes. History: 1 = the PR 1-3 shape
 * (implicit, no version field); 2 = schema_version added; 3 = perf
 * section may carry serial_seconds / speedup_vs_serial from
 * measureSerialReference(); 4 = perf section carries simd_backend,
 * and micro_components modes gained an avx2 row plus per-mode
 * allocations / bytes_allocated counters; 5 = recovery: fault
 * campaigns carry recovered / unrecoverable / first_unrecoverable
 * trajectories and recovery-ladder counters, executor reports carry
 * recovery_ticks and the recovery energy category, and the
 * abl_recovery bench joined the golden set; 6 = sharding: benches can
 * merge extra perf objects via perfNote() (abl_sharding records
 * per-device utilization, merge_seconds and speedup_vs_one_device
 * there), and the abl_sharding bench joined the golden set. Fields
 * inside perf are timing telemetry that every report_check.py key set
 * strips, so adding one needs no bump: perf is now always present
 * and carries peak_rss_mib, at version 6.
 */
constexpr int kBenchReportSchemaVersion = 6;

/**
 * Resolve the report path for bench @p name from its command line
 * (`--json <path>`) or STREAMPIM_JSON (see the file comment); empty
 * when no report was requested. SweepRunner uses this internally;
 * benches with hand-rolled reports share the same convention.
 */
std::string resolveBenchReportPath(const std::string &name, int argc,
                                   const char *const *argv);

/** What one sweep cell produces. */
struct SweepCellResult
{
    /** The cell's headline scalar (speedup, joules, ...). */
    double value = 0.0;
    /**
     * Optional named metrics carried into the report. The key
     * "functional_ops" is reserved: cells reporting it are summed
     * into the report's perf section (total functional operations,
     * wall seconds, ops/second) so regression tooling can track
     * simulator throughput next to the simulated results. The count
     * itself must be deterministic; only the derived rates are
     * timing-dependent.
     */
    std::map<std::string, double> metrics;
};

/** Declares, executes and reports one bench's sweep grid. */
class SweepRunner
{
  public:
    using CellFn = std::function<SweepCellResult()>;

    /**
     * @param name  report stem: the file is BENCH_<name>.json.
     * @param argc/argv  bench command line, scanned for `--json`.
     */
    SweepRunner(std::string name, int argc = 0,
                const char *const *argv = nullptr);

    /**
     * Declare a cell. Cells run in any order but results are kept
     * in declaration order; (row, col) must be unique.
     */
    void add(std::string row, std::string col, CellFn fn);

    /** Execute all cells on the pool and record wall time. */
    void run();

    /**
     * Cell result. When (row, col) was never declared, exits the
     * process with status 1 and a diagnostic naming this bench and
     * the missing (row, col) — a report-assembly bug in the bench,
     * reported as an error message rather than an abort mid-report.
     * Use findCell() to probe for a cell that may be absent.
     */
    const SweepCellResult &cell(const std::string &row,
                                const std::string &col) const;

    /** Like cell(), but returns nullptr when never declared. */
    const SweepCellResult *findCell(const std::string &row,
                                    const std::string &col) const;
    /** Shorthand for cell(row, col).value. */
    double value(const std::string &row,
                 const std::string &col) const;

    /** Unique row/column labels in declaration order. */
    std::vector<std::string> rows() const;
    std::vector<std::string> cols() const;

    /** All values of one column, in row declaration order. */
    std::vector<double> columnValues(const std::string &col) const;

    /** Attach a summary entry (paper references, shape notes...). */
    void note(const std::string &key, Json value);

    /**
     * Attach an entry to the report's PERF section instead of the
     * summary. Everything in perf is timing telemetry that CI
     * differs strip wholesale — the home for wall-clock-derived
     * observations (utilization, speedups) that must never leak
     * into the deterministic cells/summary, where
     * measureSerialReference() and the byte-identity diffs would
     * reject them.
     */
    void perfNote(const std::string &key, Json value);

    /** Wall seconds one cell took in run() (valid after run()). */
    double cellSeconds(const std::string &row,
                       const std::string &col) const;

    /** Worker count run() will use / used. */
    unsigned jobs() const { return jobs_; }

    /** Wall-clock seconds of the whole run() (valid after run()). */
    double wallSeconds() const { return wallSeconds_; }

    /**
     * Re-run every cell inline (inside a ThreadPool::SerialSection,
     * so nested parallel engines run serially too) and record the
     * serial wall time, asserting the re-run reproduces run()'s
     * results exactly — the determinism invariant. Opt-in because it
     * roughly doubles the bench's wall-clock: runs when @p force or
     * STREAMPIM_PERF_REF is set. Call between run() and report().
     * @return true when the reference was measured.
     */
    bool measureSerialReference(bool force = false);

    /** Serial reference seconds (0 when never measured). */
    double serialSeconds() const { return serialSeconds_; }

    /** serialSeconds()/wallSeconds(), 0 when not measured. */
    double speedupVsSerial() const;

    /** Sum of the cells' reserved "functional_ops" metric. */
    double functionalOps() const;

    /**
     * Write BENCH_<name>.json when requested; prints the path on
     * success. A requested path that cannot be written is fatal.
     * @return false when no report was requested.
     */
    bool writeReport() const;

    /** The report document (valid after run()). */
    Json report() const;

  private:
    struct Cell
    {
        std::string row;
        std::string col;
        CellFn fn;
        SweepCellResult result;
        double seconds = 0.0;
    };

    std::string name_;
    std::string reportPath_;
    unsigned jobs_;
    std::vector<Cell> cells_;
    Json summary_ = Json::object();
    Json perfExtras_ = Json::object();
    double wallSeconds_ = 0.0;
    double serialSeconds_ = 0.0;
    bool ran_ = false;
};

} // namespace streampim

#endif // STREAMPIM_PARALLEL_SWEEP_HH_
