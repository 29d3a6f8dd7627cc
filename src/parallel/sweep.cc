#include "parallel/sweep.hh"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/config.hh"
#include "common/log.hh"
#include "common/rss.hh"
#include "common/simd.hh"
#include "parallel/thread_pool.hh"

namespace streampim
{

std::string
resolveBenchReportPath(const std::string &name, int argc,
                       const char *const *argv)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], "--json") == 0)
            return argv[i + 1];
    const std::string env = Config::envString("STREAMPIM_JSON");
    if (env.empty() || env == "0")
        return "";
    std::string file = "BENCH_" + name + ".json";
    if (env == "1")
        return file;
    std::string dir = env;
    if (dir.back() != '/')
        dir += '/';
    return dir + file;
}

SweepRunner::SweepRunner(std::string name, int argc,
                         const char *const *argv)
    : name_(std::move(name)),
      reportPath_(resolveBenchReportPath(name_, argc, argv)),
      jobs_(ThreadPool::defaultJobs())
{
}

void
SweepRunner::add(std::string row, std::string col, CellFn fn)
{
    SPIM_ASSERT(!ran_, "SweepRunner: add() after run()");
    for (const Cell &c : cells_)
        SPIM_ASSERT(c.row != row || c.col != col,
                    "SweepRunner: duplicate cell");
    cells_.push_back(
        Cell{std::move(row), std::move(col), std::move(fn), {}, 0.0});
}

void
SweepRunner::run()
{
    SPIM_ASSERT(!ran_, "SweepRunner: run() twice");
    ran_ = true;
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    // Cells only write their own slot, so the pool needs no result
    // locking; declaration order of cells_ is the merge order.
    parallelFor(cells_.size(), jobs_, [this](std::size_t i) {
        const auto c0 = clock::now();
        cells_[i].result = cells_[i].fn();
        cells_[i].seconds =
            std::chrono::duration<double>(clock::now() - c0)
                .count();
    });
    wallSeconds_ =
        std::chrono::duration<double>(clock::now() - t0).count();
}

const SweepCellResult &
SweepRunner::cell(const std::string &row,
                  const std::string &col) const
{
    SPIM_ASSERT(ran_, "SweepRunner: cell() before run()");
    if (const SweepCellResult *r = findCell(row, col))
        return *r;
    // A bench asked for a cell it never declared: a report-assembly
    // bug. Name the bench and the missing coordinates and exit
    // nonzero (SPIM_FATAL) so abl_* benches fail with a diagnostic
    // instead of aborting mid-report.
    SPIM_FATAL("SweepRunner(", name_, "): no cell (", row, ", ", col,
               ") — the bench never declared this row/column pair");
}

const SweepCellResult *
SweepRunner::findCell(const std::string &row,
                      const std::string &col) const
{
    for (const Cell &c : cells_)
        if (c.row == row && c.col == col)
            return &c.result;
    return nullptr;
}

double
SweepRunner::value(const std::string &row,
                   const std::string &col) const
{
    return cell(row, col).value;
}

namespace
{

std::vector<std::string>
uniqueLabels(const std::vector<std::string> &all)
{
    std::vector<std::string> out;
    for (const std::string &s : all) {
        bool seen = false;
        for (const std::string &o : out)
            seen |= o == s;
        if (!seen)
            out.push_back(s);
    }
    return out;
}

} // namespace

std::vector<std::string>
SweepRunner::rows() const
{
    std::vector<std::string> all;
    for (const Cell &c : cells_)
        all.push_back(c.row);
    return uniqueLabels(all);
}

std::vector<std::string>
SweepRunner::cols() const
{
    std::vector<std::string> all;
    for (const Cell &c : cells_)
        all.push_back(c.col);
    return uniqueLabels(all);
}

std::vector<double>
SweepRunner::columnValues(const std::string &col) const
{
    SPIM_ASSERT(ran_, "SweepRunner: columnValues() before run()");
    std::vector<double> out;
    for (const Cell &c : cells_)
        if (c.col == col)
            out.push_back(c.result.value);
    return out;
}

void
SweepRunner::note(const std::string &key, Json value)
{
    summary_[key] = std::move(value);
}

void
SweepRunner::perfNote(const std::string &key, Json value)
{
    perfExtras_[key] = std::move(value);
}

double
SweepRunner::cellSeconds(const std::string &row,
                         const std::string &col) const
{
    SPIM_ASSERT(ran_, "SweepRunner: cellSeconds() before run()");
    for (const Cell &c : cells_)
        if (c.row == row && c.col == col)
            return c.seconds;
    SPIM_FATAL("SweepRunner(", name_, "): no cell (", row, ", ", col,
               ") — the bench never declared this row/column pair");
}

bool
SweepRunner::measureSerialReference(bool force)
{
    SPIM_ASSERT(ran_,
                "SweepRunner: measureSerialReference() before run()");
    if (!force && !Config::envFlag("STREAMPIM_PERF_REF"))
        return false;
    using clock = std::chrono::steady_clock;
    // The section forces every resolveJobs() below us to 1, so the
    // cells — and any parallel VPC engine inside them — run inline
    // on this thread.
    ThreadPool::SerialSection serial;
    const auto t0 = clock::now();
    for (const Cell &c : cells_) {
        SweepCellResult ref = c.fn();
        SPIM_ASSERT(ref.value == c.result.value &&
                        ref.metrics == c.result.metrics,
                    "SweepRunner: serial re-run of (", c.row, ", ",
                    c.col, ") diverged from the ", jobs_,
                    "-job run — determinism violation");
    }
    serialSeconds_ =
        std::chrono::duration<double>(clock::now() - t0).count();
    std::printf("perf: serial reference %.3f s vs %u-job %.3f s "
                "-> speedup %.2fx\n",
                serialSeconds_, jobs_, wallSeconds_,
                speedupVsSerial());
    return true;
}

double
SweepRunner::speedupVsSerial() const
{
    if (serialSeconds_ <= 0.0 || wallSeconds_ <= 0.0)
        return 0.0;
    return serialSeconds_ / wallSeconds_;
}

double
SweepRunner::functionalOps() const
{
    SPIM_ASSERT(ran_, "SweepRunner: functionalOps() before run()");
    double total = 0.0;
    for (const Cell &c : cells_) {
        auto it = c.result.metrics.find("functional_ops");
        if (it != c.result.metrics.end())
            total += it->second;
    }
    return total;
}

Json
SweepRunner::report() const
{
    SPIM_ASSERT(ran_, "SweepRunner: report() before run()");
    Json doc = Json::object();
    doc["schema_version"] = kBenchReportSchemaVersion;
    doc["bench"] = name_;
    doc["jobs"] = jobs_;
    doc["wall_seconds"] = wallSeconds_;
    Json cfg = Json::object();
    cfg["dim"] = Config::envInt("STREAMPIM_DIM", 256, 1, Config::kMaxDim);
    cfg["full"] = Config::envFlag("STREAMPIM_FULL");
    doc["config"] = std::move(cfg);
    Json cells = Json::array();
    for (const Cell &c : cells_) {
        Json jc = Json::object();
        jc["row"] = c.row;
        jc["col"] = c.col;
        jc["value"] = c.result.value;
        jc["seconds"] = c.seconds;
        if (!c.result.metrics.empty()) {
            Json m = Json::object();
            for (const auto &[k, v] : c.result.metrics)
                m[k] = v;
            jc["metrics"] = std::move(m);
            auto it = c.result.metrics.find("functional_ops");
            if (it != c.result.metrics.end() && c.seconds > 0.0)
                jc["ops_per_second"] = it->second / c.seconds;
        }
        cells.push(std::move(jc));
    }
    doc["cells"] = std::move(cells);
    // Perf section: simulator throughput and memory, for regression
    // tracking. Everything here (and every *per_second / seconds
    // field above) is timing — tooling diffing runs must strip
    // these; all other fields are deterministic at any
    // STREAMPIM_JOBS.
    const double ops = functionalOps();
    Json perf = Json::object();
    // Word-kernel implementation label (common/simd.hh); kept so the
    // report shape stays stable across schema versions.
    perf["simd_backend"] = simd::backendName();
    perf["functional_ops"] = ops;
    perf["wall_seconds"] = wallSeconds_;
    perf["functional_ops_per_second"] =
        wallSeconds_ > 0.0 ? ops / wallSeconds_ : 0.0;
    // Peak resident memory of the whole process so far.
    perf["peak_rss_mib"] = peakResidentMib();
    if (serialSeconds_ > 0.0) {
        perf["serial_seconds"] = serialSeconds_;
        perf["speedup_vs_serial"] = speedupVsSerial();
    }
    for (const auto &[k, v] : perfExtras_.members())
        perf[k] = v;
    doc["perf"] = std::move(perf);
    doc["summary"] = summary_;
    return doc;
}

bool
SweepRunner::writeReport() const
{
    if (reportPath_.empty())
        return false;
    std::ofstream out(reportPath_);
    if (!out)
        SPIM_FATAL("SweepRunner(", name_, "): cannot write ",
                   reportPath_);
    out << report().dump(2);
    out.close();
    if (!out)
        SPIM_FATAL("SweepRunner(", name_, "): writing ", reportPath_,
                   " failed");
    std::printf("\nwrote %s\n", reportPath_.c_str());
    return true;
}

} // namespace streampim
