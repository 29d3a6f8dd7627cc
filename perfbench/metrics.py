"""Metrics and output checks of the StreamPIM benchmark.

Pure functions over the JSON documents perfbench_harness prints, so
the rules are testable without building or running the simulator
(see test_metrics.py).
"""

import math
import statistics

# Share of an op's wall time its top-level spans must cover.
MIN_SPAN_COVERAGE = 0.90

# Outputs of a timed op that must equal the recorded values.
TIMED_FIELDS = ("makespan_ticks", "energy_pj", "overlapped_ticks",
                "idle_ticks", "batches", "pim_vpcs", "move_vpcs",
                "tiled_matmuls", "tile_tasks")

# Top-level spans of one op, per workload; their sum is the op's
# covered wall time.
OP_SPANS = {
    "timed_bert": ("workloads.build", "planner.plan", "executor.run"),
    "timed_mlp": ("workloads.build", "planner.plan", "executor.run"),
    "functional_matmul": ("stream_pim.construct", "tiled_matmul.run"),
}

# name -> unit of every end-to-end metric (--trace 0).
END_TO_END_UNITS = {
    "setup_s": "s",
    "vpcs_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}

# name -> unit of every per-layer metric (--trace 1). A layer the
# workload does not exercise reads 0.
PER_LAYER_UNITS = {
    "workloads.build_ms": "ms",
    "planner.plan_ms": "ms",
    "planner.ns_per_batch": "ns",
    "planner.rss_growth_mib": "MiB",
    "executor.run_ms": "ms",
    "executor.ns_per_batch": "ns",
    "executor.rss_growth_mib": "MiB",
    "schedule.batches": "count",
    "schedule.vpcs_per_batch": "vpc/batch",
    "schedule.mib": "MiB",
    "tiler.tiled_matmuls": "count",
    "tiler.tile_tasks": "count",
    "sim.makespan_ticks": "ticks",
    "sim.energy_pj": "pJ",
    "sim.overlapped_ticks": "ticks",
    "sim.idle_ticks": "ticks",
    "stream_pim.construct_ms": "ms",
    "stream_pim.inline_run_ms": "ms",
    "stream_pim.engine_overhead_ms": "ms",
    "tiled_matmul.run_ms": "ms",
    "tiled_matmul.ns_per_vpc": "ns",
    "tiled_matmul.vpcs": "count",
    "tiled_matmul.pim_vpcs": "count",
    "tiled_matmul.tile_tasks": "count",
    "tiled_matmul.rounds": "count",
    "tiled_matmul.vpcs_per_round": "vpc/round",
    "fault_campaign.run_ms": "ms",
    "fault_campaign.ns_per_vpc": "ns",
    "fault_campaign.clean": "count",
    "fault_campaign.corrected": "count",
    "fault_campaign.retried": "count",
    "fault_campaign.failed": "count",
    "fault_campaign.mismatched_recovered": "count",
    "recovery.recovered": "count",
    "recovery.unrecoverable": "count",
    "recovery.deposits": "count",
    "recovery.saved_ratio": "ratio",
    "health_policy.migrations": "count",
    "health_policy.quarantined": "count",
    "endurance.program_deposit_ratio": "ratio",
    "trace.overhead_pct": "%",
    "trace.min_coverage_pct": "%",
}


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(samples, candidates=(99.9, 99.0, 90.0)):
    """The highest percentile with at least ten samples beyond it.

    Returns (percentile, value) by the nearest-rank rule, or None
    when no candidate has ten samples beyond it.
    """
    n = len(samples)
    ordered = sorted(samples)
    for p in candidates:
        # Rounded so 99.9% of 10000 is rank 9990, not 9991.
        if round(n * (100.0 - p) / 100.0, 9) >= 10:
            rank = max(1, math.ceil(round(p * n / 100.0, 9)))
            return p, ordered[rank - 1]
    return None


def window_throughput(vpcs, window_s):
    """Simulated VPCs completed per host second over the window."""
    if window_s <= 0:
        raise ValueError("empty timed window")
    return sum(vpcs) / window_s


def op_wall_ms(op):
    return (op["end_ns"] - op["start_ns"]) * 1e-6


def span_ms(op, name):
    """Total duration of the op's spans called @p name, in ms."""
    return sum((s["end_ns"] - s["start_ns"]) * 1e-6
               for s in op.get("spans", ()) if s["name"] == name)


def span_coverage(workload, op):
    """Share of the op's wall time its top-level spans cover."""
    covered = sum(span_ms(op, name) for name in OP_SPANS[workload])
    return covered / op_wall_ms(op)


def check_ops(workload, ops, expected):
    """Return {op index: [reasons]} for every op that fails a check.

    @p ops are one harness process's ops in run order; op 0 is the
    set-up op. @p expected holds the recorded timed-path outputs.
    """
    failures = {}

    def fail(i, why):
        failures.setdefault(i, []).append(why)

    if ops[-1]["seed"] != ops[0]["seed"] and len(ops) > 1:
        fail(len(ops) - 1, "last op does not repeat op 0's seed")
    for i, op in enumerate(ops):
        d = op["detail"]
        if not op["verified"]:
            fail(i, "result differs from hostMatmulReference")
        if workload in ("timed_bert", "timed_mlp"):
            want = expected[workload]
            for field in TIMED_FIELDS:
                if d[field] != want[field]:
                    fail(i, f"{field} {d[field]!r} != recorded "
                            f"{want[field]!r}")
            for kind in ("batches", "pim_vpcs", "move_vpcs"):
                if d["executed_" + kind] != d[kind]:
                    fail(i, f"executor ran {d['executed_' + kind]} "
                            f"{kind}, plan has {d[kind]}")
        probe = op.get("probe")
        if probe is not None:
            if probe["mismatched_recovered"] != 0:
                fail(i, f"campaign: {probe['mismatched_recovered']} "
                        "non-Failed VPCs are not bit-exact")
            if probe["verified_vpcs"] != probe["program_vpcs"]:
                fail(i, f"campaign verified {probe['verified_vpcs']} of "
                        f"{probe['program_vpcs']} program VPCs")
            if (i > 0 and op["seed"] == ops[0]["seed"] and
                    probe != ops[0].get("probe")):
                fail(i, "campaign repeat of op 0's seed did not "
                        "reproduce op 0's counts")
        if op["traced"] and i > 0:
            cov = span_coverage(workload, op)
            if cov < MIN_SPAN_COVERAGE:
                fail(i, f"spans cover {cov:.1%} of the op")
    return failures


def end_to_end(setup_samples, main):
    """End-to-end metrics of one untraced run.

    @p setup_samples are set-up times of every process of the run;
    @p main is the document of the process that ran the window.
    Returns (metrics, tail): tail is (name, value) or None.
    """
    window = main["ops"][1:]
    walls = [op_wall_ms(op) for op in window]
    metrics = {
        "setup_s": median(setup_samples),
        "vpcs_per_s": window_throughput([op["vpcs"] for op in window],
                                        main["window_s"]),
        "op_p50_ms": median(walls),
        "peak_rss_mib": main["peak_rss_mib"],
    }
    tail = tail_percentile(walls)
    if tail is not None:
        p, value = tail
        tail = (f"op_p{p:g}_ms", value)
    return metrics, tail


def per_layer(workload, main):
    """Per-layer metrics of one traced run (see README.md)."""
    ops = main["ops"]
    traced = [op for op in ops[1:] if op["traced"]]
    untraced = [op for op in ops[1:] if not op["traced"]]
    if not traced:
        raise ValueError("traced run holds no traced op after set-up")
    m = dict.fromkeys(PER_LAYER_UNITS, 0.0)

    def med_span(name, pool=traced):
        return median([span_ms(op, name) for op in pool
                       if any(s["name"] == name for s in op["spans"])])

    def mean_detail(key, field="detail"):
        return sum(op[field][key] for op in traced) / len(traced)

    def mean_probe(key):
        return mean_detail(key, "probe")

    def med_count(key):
        return median([op["counts"][key] for op in traced])

    m["workloads.build_ms"] = med_span(
        "workloads.build", [op for op in ops if op["traced"]])

    if workload in ("timed_bert", "timed_mlp"):
        batches = mean_detail("batches")
        vpcs = mean_detail("pim_vpcs") + mean_detail("move_vpcs")
        m["planner.plan_ms"] = med_span("planner.plan")
        m["planner.ns_per_batch"] = m["planner.plan_ms"] * 1e6 / batches
        m["planner.rss_growth_mib"] = med_count("planner.rss_growth_mib")
        m["executor.run_ms"] = med_span("executor.run")
        m["executor.ns_per_batch"] = m["executor.run_ms"] * 1e6 / batches
        m["executor.rss_growth_mib"] = med_count(
            "executor.rss_growth_mib")
        m["schedule.batches"] = batches
        m["schedule.vpcs_per_batch"] = vpcs / batches
        m["schedule.mib"] = med_count("schedule.mib")
        m["tiler.tiled_matmuls"] = mean_detail("tiled_matmuls")
        m["tiler.tile_tasks"] = mean_detail("tile_tasks")
        m["sim.makespan_ticks"] = mean_detail("makespan_ticks")
        m["sim.energy_pj"] = mean_detail("energy_pj")
        m["sim.overlapped_ticks"] = mean_detail("overlapped_ticks")
        m["sim.idle_ticks"] = mean_detail("idle_ticks")

    if workload == "functional_matmul":
        m["stream_pim.construct_ms"] = med_span("stream_pim.construct")
        m["stream_pim.inline_run_ms"] = med_span("stream_pim.inline_run")
        m["tiled_matmul.run_ms"] = med_span("tiled_matmul.run")
        m["stream_pim.engine_overhead_ms"] = (
            m["tiled_matmul.run_ms"] - m["stream_pim.inline_run_ms"])
        vpcs = mean_detail("vpcs")
        m["tiled_matmul.ns_per_vpc"] = m["tiled_matmul.run_ms"] * 1e6 / vpcs
        m["tiled_matmul.vpcs"] = vpcs
        m["tiled_matmul.pim_vpcs"] = mean_detail("pim_vpcs")
        m["tiled_matmul.tile_tasks"] = mean_detail("tile_tasks")
        m["tiled_matmul.rounds"] = mean_detail("rounds")
        m["tiled_matmul.vpcs_per_round"] = vpcs / m["tiled_matmul.rounds"]

    # The campaign probe: off the op's clock, on the fallible path.
    if workload == "functional_matmul":
        m["fault_campaign.run_ms"] = med_span("fault_campaign.run")
        m["fault_campaign.ns_per_vpc"] = (
            m["fault_campaign.run_ms"] * 1e6 /
            mean_probe("verified_vpcs"))
        for key in ("clean", "corrected", "retried", "failed",
                    "mismatched_recovered"):
            m["fault_campaign." + key] = mean_probe(key)
        m["recovery.recovered"] = mean_probe("recovered")
        m["recovery.unrecoverable"] = mean_probe("unrecoverable")
        m["recovery.deposits"] = mean_probe("recovery_deposits")
        failed = mean_probe("failed")
        # No Failed VPC means nothing was lost: the ladder saved all.
        m["recovery.saved_ratio"] = (
            mean_probe("recovered") / failed if failed else 1.0)
        m["health_policy.migrations"] = mean_probe("migrations")
        m["health_policy.quarantined"] = mean_probe("quarantined")
        deposits = mean_probe("deposits")
        useful = (deposits - mean_probe("migration_deposits") -
                  mean_probe("recovery_deposits"))
        m["endurance.program_deposit_ratio"] = useful / deposits

    if untraced:
        m["trace.overhead_pct"] = 100.0 * (
            median([op_wall_ms(op) for op in traced]) /
            median([op_wall_ms(op) for op in untraced]) - 1.0)
    m["trace.min_coverage_pct"] = 100.0 * min(
        span_coverage(workload, op) for op in traced)
    return m
