/**
 * @file
 * Closed-loop benchmark harness: one client, one process, one
 * workload. It runs the workload's first op as set-up (time to first
 * result), then repeats ops until the timed window ends,
 * and prints one JSON document describing every op. run.py turns
 * that document into the benchmark's metrics and checks.
 *
 *   perfbench_harness --workload <name> --seed <n> --seconds <s>
 *                     --trace <0|1> [--setup-only]
 *
 * Spans are recorded only from here, around the public calls into
 * each layer; nothing inside the library is instrumented. With
 * --trace 1, op 0, every odd window op and the final op are traced
 * and the other ops are not, so the tracing overhead is measured
 * within one process.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/json.hh"
#include "common/simd.hh"
#include "core/executor.hh"
#include "core/fault_campaign.hh"
#include "core/stream_pim.hh"
#include "core/system_config.hh"
#include "core/tiled_matmul.hh"
#include "dwlogic/mode.hh"
#include "runtime/planner.hh"
#include "workloads/dnn.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace streampim;

namespace
{

using Clock = std::chrono::steady_clock;

const Clock::time_point g_start = Clock::now();

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - g_start)
        .count();
}

/** Resident or peak resident set from /proc/self/status, in MiB. */
double
procStatusMib(const char *field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::size_t len = std::strlen(field);
    while (std::getline(in, line))
        if (line.compare(0, len, field) == 0 && line[len] == ':')
            return std::stod(line.substr(len + 1)) / 1024.0;
    return 0.0;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Records spans around layer calls of one op. When off it only runs
 * the call, so an untraced op pays nothing for it.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }

    template <typename F>
    auto
    span(const char *name, F &&call)
    {
        if (!on_)
            return call();
        const std::int64_t start = nowNs();
        auto result = call();
        spans_.push_back({name, start, nowNs()});
        return result;
    }

    /** Resident-set growth across @p call, as a named count. */
    template <typename F>
    auto
    rssGrowth(const char *name, F &&call)
    {
        if (!on_)
            return call();
        const double before = procStatusMib("VmRSS");
        auto result = call();
        counts_[name] = procStatusMib("VmRSS") - before;
        return result;
    }

    void count(const char *name, double value)
    {
        if (on_)
            counts_[name] = value;
    }

    Json
    spansJson() const
    {
        Json out = Json::array();
        for (const auto &s : spans_) {
            Json j = Json::object();
            j["name"] = s.name;
            j["start_ns"] = s.start;
            j["end_ns"] = s.end;
            out.push(std::move(j));
        }
        return out;
    }

    const Json &counts() const { return counts_; }

  private:
    struct Span
    {
        const char *name;
        std::int64_t start;
        std::int64_t end;
    };

    bool on_;
    std::vector<Span> spans_;
    Json counts_ = Json::object();
};

/** What one op hands back: its outputs and its simulated VPCs. */
struct OpOutput
{
    Json detail = Json::object();
    std::uint64_t vpcs = 0;
    /**
     * Checked inside the harness (functional_matmul only, against
     * the reference computed at set-up); run.py checks the rest.
     */
    bool verified = true;
};

using OpFn = std::function<OpOutput(std::uint64_t op_seed, Tracer &)>;

/** One workload: its pinned config and its op. */
struct Workload
{
    unsigned jobs = 1;
    /** Runs one op with per-op seed @p op_seed. */
    OpFn op;
    /**
     * Traced runs only: work run after each op with the op's seed,
     * off its clock. Its detail is recorded as the op's probe.
     */
    OpFn afterTracedOp;
};

// --- Timed path: TaskGraph -> Planner -> VpcSchedule -> Executor ---

Workload
timedWorkload(std::function<TaskGraph()> build)
{
    Workload w;
    w.op = [build](std::uint64_t, Tracer &t) {
        const SystemConfig config = SystemConfig::paperDefault();
        TaskGraph graph = t.span("workloads.build", build);
        Planner planner(config);
        VpcSchedule sched = t.rssGrowth("planner.rss_growth_mib", [&] {
            return t.span("planner.plan",
                          [&] { return planner.plan(graph); });
        });
        ExecutionReport rep =
            t.rssGrowth("executor.rss_growth_mib", [&] {
                return t.span("executor.run", [&] {
                    return Executor(config).run(sched);
                });
            });
        const PlanStats &ps = planner.stats();
        OpOutput out;
        out.vpcs = ps.pimVpcs + ps.moveVpcs;
        Json &d = out.detail;
        d["makespan_ticks"] = rep.makespan;
        d["energy_pj"] = rep.energy.totalPj();
        d["overlapped_ticks"] = rep.breakdown.overlapped;
        d["idle_ticks"] = rep.breakdown.idle;
        d["batches"] = ps.batches;
        d["pim_vpcs"] = ps.pimVpcs;
        d["move_vpcs"] = ps.moveVpcs;
        d["executed_batches"] = rep.batches;
        d["executed_pim_vpcs"] = rep.pimVpcs;
        d["executed_move_vpcs"] = rep.moveVpcs;
        d["tiled_matmuls"] = ps.tiledMatmuls;
        d["tile_tasks"] = ps.tileTasks;
        t.count("schedule.mib",
                double(sched.batches.capacity() * sizeof(VpcBatch)) /
                    (1024.0 * 1024.0));
        return out;
    };
    return w;
}

// --- Functional path, fallible: endurance campaign with recovery ---

/**
 * One endurance campaign per call: 40 rounds of the 12-VPC program
 * under write and shift faults, with the full recovery ladder and the
 * adaptive health policy, drained inline (engine jobs 1).
 */
OpFn
campaignOp()
{
    EnduranceCampaignConfig c;
    c.base.pWrite0 = 1e-4;
    c.base.writeEndurance = 500.0;
    c.base.weibullShape = 6.0;
    c.base.spareTracks = 0;
    c.base.pStep = 1e-4;
    c.base.engineJobs = 1;
    c.rounds = 40;
    c.recovery.enabled = true;
    c.recovery.retryBudget = 2;
    c.recovery.rehomeBudget = 1;
    c.recovery.replanBudget = 1;
    c.adaptive.enabled = true;
    c.adaptive.cadence = 1;
    c.adaptive.migrationSpareThreshold = 0;
    c.adaptive.migrationWearThreshold =
        std::uint64_t(c.base.writeEndurance * 1.5);
    return [c](std::uint64_t op_seed, Tracer &t) {
        EnduranceCampaignConfig cfg = c;
        cfg.base.seed = op_seed;
        EnduranceCampaignResult r = t.span(
            "fault_campaign.run", [&] { return runEnduranceCampaign(cfg); });
        OpOutput out;
        out.vpcs = std::uint64_t(r.clean) + r.corrected + r.retried +
                   r.failed;
        Json &d = out.detail;
        d["program_vpcs"] = std::uint64_t(cfg.rounds) * cfg.base.vpcs;
        d["verified_vpcs"] = out.vpcs;
        d["clean"] = r.clean;
        d["corrected"] = r.corrected;
        d["retried"] = r.retried;
        d["failed"] = r.failed;
        d["mismatched_recovered"] = r.mismatchedRecovered;
        d["recovered"] = r.recovered;
        d["unrecoverable"] = r.unrecoverable;
        d["recovery_deposits"] = r.recoveryDeposits;
        d["migrations"] = r.migrations;
        d["quarantined"] = r.quarantinedSubarrays;
        d["migration_deposits"] = r.migrationDeposits;
        d["deposits"] = r.stats.depositPulses;
        return out;
    };
}

// --- Functional path, fault-free: packed tiled matmul ---

constexpr std::uint32_t kMatDim = 64;

Workload
functionalMatmulWorkload(std::uint64_t seed, Tracer &setup_tracer)
{
    struct Operands
    {
        std::vector<std::uint8_t> a, b, reference;
    };
    auto ops = std::make_shared<Operands>(
        setup_tracer.span("workloads.build", [seed] {
            Operands o;
            std::uint64_t s = seed;
            const std::size_t n = std::size_t(kMatDim) * kMatDim;
            for (auto *v : {&o.a, &o.b}) {
                v->resize(n);
                for (auto &x : *v)
                    x = std::uint8_t(s = splitmix64(s));
            }
            o.reference = hostMatmulReference(o.a, o.b, kMatDim,
                                              kMatDim, kMatDim);
            return o;
        }));

    Workload w;
    w.jobs = 2;
    auto run = [ops](unsigned jobs, Tracer &t, const char *construct,
                     const char *run_span) {
        auto device = t.span(construct, [] {
            return std::make_unique<StreamPimSystem>(
                smallFunctionalParams());
        });
        TiledMatmulConfig cfg;
        cfg.jobs = jobs;
        TiledMatmulStats stats;
        auto c = t.span(run_span, [&] {
            return runTiledMatmul(*device, ops->a, ops->b, kMatDim,
                                  kMatDim, kMatDim, cfg, &stats);
        });
        OpOutput out;
        out.vpcs = stats.vpcs;
        out.verified = c == ops->reference;
        Json &d = out.detail;
        d["vpcs"] = stats.vpcs;
        d["pim_vpcs"] = stats.pimVpcs;
        d["tile_tasks"] = stats.tileTasks;
        d["rounds"] = stats.rounds;
        return out;
    };
    const unsigned jobs = w.jobs;
    w.op = [run, jobs](std::uint64_t, Tracer &t) {
        return run(jobs, t, "stream_pim.construct", "tiled_matmul.run");
    };
    // Traced runs re-run the op inline (jobs 1) to price the engine,
    // then run one campaign as the fallible-path probe.
    w.afterTracedOp = [run, campaign = campaignOp()](std::uint64_t op_seed,
                                                    Tracer &t) {
        const bool inline_ok =
            run(1, t, "stream_pim.inline_construct",
                "stream_pim.inline_run")
                .verified;
        OpOutput probe = campaign(op_seed, t);
        probe.verified = inline_ok;
        return probe;
    };
    return w;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    bool setupOnly = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_harness: %s\nusage: perfbench_harness "
                 "--workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--setup-only]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            a.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        try {
            if (flag == "--workload") {
                a.workload = v;
            } else if (flag == "--seed") {
                a.seed = std::stoull(v);
                have_seed = true;
            } else if (flag == "--seconds") {
                a.seconds = std::stod(v);
                have_seconds = true;
            } else if (flag == "--trace") {
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                a.trace = v == "1";
            } else {
                usage(("unknown flag " + flag).c_str());
            }
        } catch (const std::exception &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (a.workload.empty() || !have_seed || !have_seconds ||
        !(a.seconds > 0))
        usage("--workload, --seed and a positive --seconds are required");
    return a;
}

Json
opJson(std::int64_t start, std::int64_t end, const OpOutput &out,
       std::uint64_t op_seed, const Tracer &t)
{
    Json j = Json::object();
    j["start_ns"] = start;
    j["end_ns"] = end;
    j["seed"] = std::to_string(op_seed);
    j["vpcs"] = out.vpcs;
    j["verified"] = out.verified;
    j["detail"] = out.detail;
    j["traced"] = t.on();
    if (t.on()) {
        j["spans"] = t.spansJson();
        j["counts"] = t.counts();
    }
    return j;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (strictGates()) {
        std::fprintf(stderr, "perfbench_harness: refusing to run under "
                             "STREAMPIM_STRICT_GATES\n");
        return 2;
    }

    // Set-up: the clock started at process start (g_start). It stops
    // at op 0's result.
    Tracer setup_tracer(args.trace);
    Workload w;
    if (args.workload == "timed_bert") {
        w = timedWorkload([] {
            BertConfig cfg;
            cfg.layers = 2;
            return makeBert(cfg);
        });
    } else if (args.workload == "timed_mlp") {
        w = timedWorkload([] { return makeMlp(MlpConfig{}); });
    } else if (args.workload == "functional_matmul") {
        w = functionalMatmulWorkload(args.seed, setup_tracer);
    } else {
        usage(("unknown workload " + args.workload).c_str());
    }

    auto opSeed = [&](std::uint64_t i) {
        return splitmix64(args.seed ^ splitmix64(i));
    };

    // Time after each op's result (checks, traced re-runs, records)
    // is kept off the window's clock.
    Json ops = Json::array();
    std::int64_t off_clock_ns = 0;
    std::int64_t last_op_ns = 0;
    auto runOp = [&](std::uint64_t op_seed, bool traced,
                     Tracer *tracer_in = nullptr) {
        Tracer local(traced);
        Tracer &t = tracer_in ? *tracer_in : local;
        const std::int64_t start = nowNs();
        OpOutput out = w.op(op_seed, t);
        const std::int64_t end = nowNs();
        last_op_ns = end - start;
        std::optional<OpOutput> probe;
        if (traced && w.afterTracedOp)
            probe = w.afterTracedOp(op_seed, t);
        Json op = opJson(start, end, out, op_seed, t);
        if (probe) {
            op["verified"] = out.verified && probe->verified;
            op["probe"] = probe->detail;
        }
        ops.push(std::move(op));
        off_clock_ns += nowNs() - end;
        return end;
    };

    // Op 0 is set-up's first op; traced runs also trace it, so set-up
    // spans (input generation) reach the per-layer metrics.
    const std::int64_t setup_end =
        runOp(opSeed(0), args.trace, &setup_tracer);
    const double setup_s = double(setup_end) * 1e-9;

    const std::int64_t window_start = nowNs();
    double window_s = 0.0;
    if (!args.setupOnly) {
        off_clock_ns = 0;
        const std::int64_t budget = std::int64_t(args.seconds * 1e9);
        // Stop once two more ops of the last op's length would not
        // fit; one of them is the closing repeat op below. The window
        // thus ends near the budget, never far past it.
        std::uint64_t i = 1;
        do {
            runOp(opSeed(i), args.trace && i % 2 == 1);
            ++i;
        } while (nowNs() - window_start + 2 * last_op_ns < budget);
        // The last op repeats op 0's seed (traced like op 0 in traced
        // runs); run.py checks that it reproduces op 0's outputs.
        const std::int64_t before_last = off_clock_ns;
        const std::int64_t window_end = runOp(opSeed(0), args.trace);
        window_s = double(window_end - window_start - before_last) *
                   1e-9;
    }

    Json doc = Json::object();
    Json env = Json::object();
    env["nproc"] = unsigned(sysconf(_SC_NPROCESSORS_ONLN));
    env["build_type"] = PERFBENCH_BUILD_TYPE;
    env["simd_backend"] = simd::backendName();
    env["jobs"] = w.jobs;
    env["seed"] = std::to_string(args.seed);
    doc["env"] = std::move(env);
    doc["workload"] = args.workload;
    doc["setup_s"] = setup_s;
    doc["window_s"] = window_s;
    doc["peak_rss_mib"] = procStatusMib("VmHWM");
    doc["ops"] = std::move(ops);
    std::cout << doc.dump(-1) << "\n";
    return 0;
}
