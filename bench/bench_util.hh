/**
 * @file
 * Shared helpers for the figure/table benches: environment-driven
 * run sizes, aligned table printing, and geometric means.
 *
 * Every bench prints the paper's reported number next to the
 * measured one; absolute values differ (our substrate is this
 * simulator, not the authors' gem5 testbed) but the shape — who
 * wins, by roughly what factor — is the reproduction target.
 */

#ifndef STREAMPIM_BENCH_BENCH_UTIL_HH_
#define STREAMPIM_BENCH_BENCH_UTIL_HH_

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/config.hh"

namespace streampim::bench
{

/** Base dimension: 256 for quick runs; STREAMPIM_DIM=2000 = paper. */
inline unsigned
runDim()
{
    return unsigned(
        Config::envInt("STREAMPIM_DIM", 256, 1, Config::kMaxDim));
}

/** Whether to run the full kernel set / sweeps. */
inline bool
fullRun()
{
    return Config::envFlag("STREAMPIM_FULL");
}

/** Geometric mean of a vector of positive values. */
inline double
geoMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / double(values.size()));
}

/** Simple fixed-width table printer. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {
    }

    void
    addRow(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
    }

    void
    print() const
    {
        std::vector<std::size_t> width(headers_.size());
        for (std::size_t c = 0; c < headers_.size(); ++c)
            width[c] = headers_[c].size();
        for (const auto &row : rows_)
            for (std::size_t c = 0;
                 c < row.size() && c < width.size(); ++c)
                width[c] = std::max(width[c], row[c].size());

        auto line = [&](const std::vector<std::string> &cells) {
            std::string out;
            for (std::size_t c = 0; c < headers_.size(); ++c) {
                std::string cell =
                    c < cells.size() ? cells[c] : "";
                cell.resize(width[c], ' ');
                out += cell;
                out += "  ";
            }
            std::printf("%s\n", out.c_str());
        };
        line(headers_);
        std::string rule;
        for (std::size_t c = 0; c < headers_.size(); ++c)
            rule += std::string(width[c], '-') + "  ";
        std::printf("%s\n", rule.c_str());
        for (const auto &row : rows_)
            line(row);
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Wall-clock stopwatch for bench perf summaries. */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    /** Seconds elapsed since construction (or the last reset()). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

    void reset() { start_ = std::chrono::steady_clock::now(); }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** Rate with a zero-elapsed guard (ops in zero time reads as 0). */
inline double
perSecond(double ops, double seconds)
{
    return seconds > 0.0 ? ops / seconds : 0.0;
}

/**
 * Print the one-line perf footer the benches share: how fast the
 * simulator itself ran, next to (never mixed into) the simulated
 * results above it.
 */
inline void
printPerf(const char *what, double ops, double seconds)
{
    std::printf("perf: %.0f %s in %.3f s (%.3e %s/s)\n", ops, what,
                seconds, perSecond(ops, seconds), what);
}

/** Format a double with the given precision. */
inline std::string
fmt(double v, int prec = 2)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

/** Format in scientific notation. */
inline std::string
fmtSci(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2e", v);
    return buf;
}

} // namespace streampim::bench

#endif // STREAMPIM_BENCH_BENCH_UTIL_HH_
