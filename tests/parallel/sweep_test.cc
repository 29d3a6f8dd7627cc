#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/rss.hh"
#include "parallel/sweep.hh"
#include "parallel/thread_pool.hh"

using namespace streampim;

namespace
{

SweepRunner
makeGrid(int argc = 0, const char *const *argv = nullptr)
{
    SweepRunner sweep("unit_grid", argc, argv);
    for (const char *row : {"atax", "bicg"})
        for (const char *col : {"StPIM", "CORUSCANT"}) {
            std::string r = row, c = col;
            sweep.add(r, c, [r, c] {
                SweepCellResult res;
                res.value = double(r.size()) * double(c.size());
                res.metrics["rows"] = double(r.size());
                return res;
            });
        }
    return sweep;
}

/** Object member @p key of @p doc; nullptr when absent. */
const Json *
member(const Json &doc, const std::string &key)
{
    for (const auto &[k, v] : doc.members())
        if (k == key)
            return &v;
    return nullptr;
}

/** A number member, read back from its serialized text. */
double
number(const Json &doc, const std::string &key)
{
    const Json *v = member(doc, key);
    EXPECT_NE(v, nullptr) << key;
    return v ? std::stod(v->dump(0)) : 0.0;
}

/** @p text without its lines containing @p needle. */
std::string
withoutLines(const std::string &text, const std::string &needle)
{
    std::istringstream in(text);
    std::string line, out;
    while (std::getline(in, line))
        if (line.find(needle) == std::string::npos)
            out += line + "\n";
    return out;
}

} // namespace

TEST(SweepRunner, RunsCellsAndKeepsDeclarationOrder)
{
    SweepRunner sweep = makeGrid();
    sweep.run();
    EXPECT_EQ(sweep.rows(),
              (std::vector<std::string>{"atax", "bicg"}));
    EXPECT_EQ(sweep.cols(),
              (std::vector<std::string>{"StPIM", "CORUSCANT"}));
    EXPECT_DOUBLE_EQ(sweep.value("atax", "StPIM"), 4.0 * 5.0);
    EXPECT_DOUBLE_EQ(sweep.value("bicg", "CORUSCANT"), 4.0 * 9.0);
    EXPECT_EQ(sweep.columnValues("StPIM"),
              (std::vector<double>{20.0, 20.0}));
}

TEST(SweepRunner, FindCellReturnsNullForUndeclaredPair)
{
    SweepRunner sweep = makeGrid();
    sweep.run();
    EXPECT_NE(sweep.findCell("atax", "StPIM"), nullptr);
    EXPECT_EQ(sweep.findCell("atax", "NoSuchCol"), nullptr);
    EXPECT_EQ(sweep.findCell("nope", "StPIM"), nullptr);
}

TEST(SweepRunnerDeath, UndeclaredCellExitsWithDiagnostic)
{
    // cell() on a never-declared (row, col) must exit nonzero with
    // a message naming the bench and the missing coordinates — not
    // abort mid-report.
    SweepRunner sweep = makeGrid();
    sweep.run();
    EXPECT_EXIT(sweep.cell("atax", "NoSuchCol"),
                ::testing::ExitedWithCode(1),
                "SweepRunner\\(unit_grid\\): no cell \\(atax, "
                "NoSuchCol\\)");
}

TEST(SweepRunner, CellsMayRunOnOtherThreads)
{
    // Smoke-test the concurrency path: many slow-ish cells, results
    // still land in their own slots.
    SweepRunner sweep("unit_threads");
    for (int i = 0; i < 32; ++i)
        sweep.add("r" + std::to_string(i), "c", [i] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
            return SweepCellResult{double(i), {}};
        });
    sweep.run();
    for (int i = 0; i < 32; ++i)
        EXPECT_DOUBLE_EQ(
            sweep.value("r" + std::to_string(i), "c"), double(i));
}

TEST(SweepRunner, ReportNotRequestedByDefault)
{
    SweepRunner sweep("unit_noreport");
    sweep.add("r", "c", [] { return SweepCellResult{1.0, {}}; });
    sweep.run();
    EXPECT_FALSE(sweep.writeReport());
}

TEST(SweepRunnerDeath, UnwritableReportPathIsFatal)
{
    // A requested report that cannot be written must fail the bench,
    // naming the path, so a golden diff never runs without a report.
    const char *path = "no_such_dir/BENCH_unit_grid.json";
    const char *argv[] = {"bench", "--json", path};
    SweepRunner sweep = makeGrid(3, argv);
    sweep.run();
    EXPECT_EXIT(sweep.writeReport(), ::testing::ExitedWithCode(1),
                "cannot write no_such_dir/BENCH_unit_grid.json");
}

TEST(SweepRunner, WritesParsableJsonReport)
{
    // Relative path: lands in the ctest working directory.
    const char *path = "BENCH_unit_grid.json";
    const char *argv[] = {"bench", "--json", path};
    SweepRunner sweep = makeGrid(3, argv);
    sweep.run();
    sweep.note("paper_mean", 39.1);
    sweep.note("shape", "StPIM > CORUSCANT");
    ASSERT_TRUE(sweep.writeReport());

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    // The file is report().dump(), up to the live VmHWM reading.
    const std::string text = sweep.report().dump();
    EXPECT_EQ(withoutLines(buf.str(), "\"peak_rss_mib\""),
              withoutLines(text, "\"peak_rss_mib\""));

    // Versioned shape: tooling diffing reports keys off this field.
    EXPECT_NE(text.find("\"schema_version\": " +
                        std::to_string(kBenchReportSchemaVersion)),
              std::string::npos);
    EXPECT_NE(text.find("\"bench\": \"unit_grid\""),
              std::string::npos);
    EXPECT_NE(text.find("\"dim\": "), std::string::npos);
    // Declaration order is preserved in the report.
    EXPECT_NE(text.find("\"row\": \"atax\",\n"
                        "      \"col\": \"StPIM\",\n"
                        "      \"value\": 20,"),
              std::string::npos);
    EXPECT_NE(text.find("\"rows\": 4"), std::string::npos);
    EXPECT_NE(text.find("\"summary\": {\n"
                        "    \"paper_mean\": 39.100000000000001,\n"
                        "    \"shape\": \"StPIM > CORUSCANT\"\n"
                        "  }"),
              std::string::npos);

    std::remove(path);
}

TEST(SweepRunner, SchemaVersionLeadsTheReport)
{
    // Insertion order is the serialization order, so the version is
    // the first thing a reader (or a failing CI diff) sees.
    SweepRunner sweep("unit_schema");
    sweep.add("r", "c", [] { return SweepCellResult{1.0, {}}; });
    sweep.run();
    const std::string dump = sweep.report().dump(2);
    const auto v = dump.find("\"schema_version\"");
    const auto b = dump.find("\"bench\"");
    ASSERT_NE(v, std::string::npos);
    ASSERT_NE(b, std::string::npos);
    EXPECT_LT(v, b);
}

TEST(SweepRunner, ValuesIndependentOfDeclarationVsExecutionOrder)
{
    // Two identical grids; results must match cell for cell even
    // though execution interleaving differs between runs.
    SweepRunner a = makeGrid();
    SweepRunner b = makeGrid();
    a.run();
    b.run();
    for (const auto &row : a.rows())
        for (const auto &col : a.cols())
            EXPECT_DOUBLE_EQ(a.value(row, col), b.value(row, col));
}

TEST(SweepRunner, SerialReferenceIsOptIn)
{
    SweepRunner sweep = makeGrid();
    sweep.run();
    // Without force / STREAMPIM_PERF_REF the reference is skipped.
    EXPECT_FALSE(sweep.measureSerialReference());
    EXPECT_DOUBLE_EQ(sweep.serialSeconds(), 0.0);
    EXPECT_DOUBLE_EQ(sweep.speedupVsSerial(), 0.0);
    // And the report's perf section carries no reference timing.
    const Json doc = sweep.report();
    const Json *perf = member(doc, "perf");
    ASSERT_NE(perf, nullptr);
    EXPECT_EQ(member(*perf, "serial_seconds"), nullptr);
    EXPECT_EQ(member(*perf, "speedup_vs_serial"), nullptr);
}

TEST(SweepRunner, PerfSectionAlwaysCarriesWallTimeAndPeakRss)
{
    // Even a grid with no functional ops reports its wall time and
    // the process's peak resident memory.
    SweepRunner sweep = makeGrid();
    sweep.run();
    const double peak = peakResidentMib();
    const Json doc = sweep.report();
    const Json *perf = member(doc, "perf");
    ASSERT_NE(perf, nullptr);
    EXPECT_EQ(member(*perf, "wall_seconds")->dump(0),
              Json(sweep.wallSeconds()).dump(0));
    // The peak covers what was resident before the report.
    EXPECT_GT(peak, 0.0);
    EXPECT_GE(number(*perf, "peak_rss_mib"), peak);
}

TEST(SweepRunner, SerialReferenceRecordsTimingAndVerifies)
{
    SweepRunner sweep = makeGrid();
    sweep.run();
    ASSERT_TRUE(sweep.measureSerialReference(/*force=*/true));
    EXPECT_GT(sweep.serialSeconds(), 0.0);
    EXPECT_GT(sweep.speedupVsSerial(), 0.0);

    const Json doc = sweep.report();
    const Json *perf = member(doc, "perf");
    ASSERT_NE(perf, nullptr);
    EXPECT_DOUBLE_EQ(number(*perf, "serial_seconds"),
                     sweep.serialSeconds());
    EXPECT_DOUBLE_EQ(number(*perf, "speedup_vs_serial"),
                     sweep.speedupVsSerial());
}

TEST(SweepRunner, SerialReferenceRunsCellsInsideSerialSection)
{
    // Cells observing ThreadPool::inSerialSection() prove the
    // reference timing really runs everything inline.
    SweepRunner sweep("unit_serial_section");
    auto *serial_seen = new std::atomic<int>(0);
    sweep.add("r", "c", [serial_seen] {
        if (ThreadPool::inSerialSection())
            serial_seen->fetch_add(1);
        return SweepCellResult{1.0, {}};
    });
    sweep.run();
    EXPECT_EQ(serial_seen->load(), 0);
    ASSERT_TRUE(sweep.measureSerialReference(/*force=*/true));
    EXPECT_EQ(serial_seen->load(), 1);
    delete serial_seen;
}
