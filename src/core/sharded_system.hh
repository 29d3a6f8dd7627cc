/**
 * @file
 * ShardedSystem: N independent StreamPIM devices behind a two-level
 * (device x subarray) parallel execution engine.
 *
 * Production-scale means more than one racetrack device/channel. A
 * ShardedSystem owns N StreamPimSystem instances with identical
 * geometry and drains
 * all their VPC queues concurrently: device-level fan-out on the
 * shared parallel/ThreadPool on top, PR 5's subarray conflict-graph
 * engine inside each device below. The job budget is two-level too
 * (ThreadPool::splitJobs): outer devices x inner engine jobs never
 * exceeds the resolved pool size, so nesting cannot oversubscribe
 * the host.
 *
 * Determinism: devices share no mutable state, each device's drain
 * is byte-identical at any engine job count (DESIGN.md §6), and
 * per-device records merge back in device order — so every record,
 * fault trajectory, wear counter and memory image is byte-identical
 * at any (deviceJobs x engineJobs) combination. Per-device seeds
 * derive with deviceSeed(): device d's seed depends only on
 * (seed, d), never on the device count, so a device's fault
 * trajectory is invariant under fleet resizing (and device 0
 * reproduces the single-device system bit-exact). Fault injection
 * is enabled per device through device(d).
 *
 * The row-block workload runners (runShardedMatmul,
 * runShardedVectorAdd) sit on top: partitionRows (runtime/tiler.hh)
 * slices the row dimension across devices (A sliced, B replicated),
 * each device runs the existing tiled-matmul dataflow on its block —
 * re-tiling *within* the device when the block is still out-of-core
 * — and the per-device C blocks concatenate in plan order. See
 * DESIGN.md §11.
 */

#ifndef STREAMPIM_CORE_SHARDED_SYSTEM_HH_
#define STREAMPIM_CORE_SHARDED_SYSTEM_HH_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/stream_pim.hh"
#include "core/tiled_matmul.hh"
#include "parallel/thread_pool.hh"
#include "runtime/tiler.hh"

namespace streampim
{

/** Multi-device StreamPIM fleet with a two-level drain engine. */
class ShardedSystem
{
  public:
    /**
     * @param params  geometry of EVERY device (identical shards).
     * @param devices device count, 1..Config::kMaxDevices; any
     *                other count is fatal.
     */
    explicit ShardedSystem(RmParams params = smallFunctionalParams(),
                           unsigned devices = 1);
    ~ShardedSystem();

    /**
     * Seed of device @p device derived from master @p seed (the
     * fleet campaigns use it for inputs and injectors alike):
     * device 0 keeps the master seed (a 1-device fleet reproduces
     * the single-device system bit-exact), higher devices mix in a
     * splitmix-style odd multiple of their index — a pure function
     * of (seed, device), independent of the fleet size.
     */
    static std::uint64_t deviceSeed(std::uint64_t seed,
                                    unsigned device);

    /**
     * Resolve the two-level (device x engine) budget for a fan-out
     * of @p fanout shards: both levels 0 derives the split of the
     * resolved pool budget (ThreadPool::splitJobs); otherwise both
     * are taken as given, 0 reading as 1 and the device level
     * capped at @p fanout. Inside a SerialSection both levels
     * collapse to 1.
     */
    static ThreadPool::JobSplit resolveSplit(unsigned fanout,
                                             unsigned deviceJobs,
                                             unsigned engineJobs);

    unsigned devices() const { return unsigned(devices_.size()); }
    const RmParams &params() const { return params_; }

    StreamPimSystem &device(unsigned d);
    const StreamPimSystem &device(unsigned d) const;

    /** Enqueue a VPC on device @p d's queue. */
    bool submit(unsigned d, const Vpc &vpc);

    /**
     * Drain every device's VPC queue through the two-level engine:
     * up to @p deviceJobs devices run concurrently (device fan-out
     * on the shared ThreadPool), each through its own
     * processQueueInto(@p engineJobs) conflict-graph drain.
     * Both levels 0 derives the budgeted split (resolveSplit over
     * the resolved STREAMPIM_JOBS budget); explicit values are
     * clamped to 1 inside a ThreadPool::SerialSection. @p records
     * is resized to one vector per device, each in that device's
     * exact submit order — results are byte-identical at any
     * (deviceJobs x engineJobs).
     *
     * @p deviceSeconds, when non-null, receives one wall-clock busy
     * time per device (the utilization telemetry of the sharding
     * bench) — timing only, never part of the deterministic output.
     */
    void processAll(std::vector<std::vector<VpcExecutionRecord>>
                        &records,
                    unsigned deviceJobs = 0, unsigned engineJobs = 0,
                    std::vector<double> *deviceSeconds = nullptr);

  private:
    /** Lazily (re)build the device-level pool for @p jobs. */
    void ensurePool(unsigned jobs);

    RmParams params_;
    std::vector<std::unique_ptr<StreamPimSystem>> devices_;
    std::unique_ptr<ThreadPool> pool_; //!< device-level fan-out
    unsigned poolJobs_ = 0;
};

/** Knobs of the sharded matmul runner. */
struct ShardedMatmulConfig
{
    /**
     * Per-device dataflow knobs. `tiled.jobs` is the inner
     * (engine) level of the two-level budget; 0 derives the split.
     */
    TiledMatmulConfig tiled;
    /** Device-level fan-out; 0 derives the budgeted split. */
    unsigned deviceJobs = 0;
};

/** Telemetry of one sharded run (utilization, merge overhead). */
struct ShardedMatmulStats
{
    /** The row partition, one block per device (possibly idle). */
    std::vector<RowBlock> blocks;
    /** Per-device tiled-matmul telemetry, in device order. */
    std::vector<TiledMatmulStats> perDevice;
    unsigned activeDevices = 0;
    std::uint64_t vpcs = 0;      //!< fleet total
    std::uint64_t tileTasks = 0; //!< fleet total
    std::uint64_t mergedBytes = 0;

    // --- Timing telemetry (never part of deterministic output).
    /** Wall-clock busy seconds per device, in device order. */
    std::vector<double> deviceSeconds;
    double mergeSeconds = 0.0; //!< C-block concatenation
    double wallSeconds = 0.0;  //!< whole sharded run

    /**
     * Mean fraction of the run each device spent busy:
     * sum(deviceSeconds) / (devices * wallSeconds). 1.0 = perfectly
     * overlapped fleet; 1/devices = serialized.
     */
    double utilization() const;
};

/**
 * C = A x B sharded by row blocks across @p sys's devices: device d
 * stages its A row block plus a full B replica and streams the
 * existing tiled-matmul dataflow over them (re-tiling within the
 * device when its block is still out-of-core); the per-device C
 * blocks concatenate in plan order. Bit-identical to
 * hostMatmulReference() — and to itself at ANY device count —
 * because each C row is computed exactly by exactly one device.
 */
std::vector<std::uint8_t> runShardedMatmul(
    ShardedSystem &sys, std::span<const std::uint8_t> a,
    std::span<const std::uint8_t> b, std::uint32_t n,
    std::uint32_t k, std::uint32_t m,
    const ShardedMatmulConfig &config = ShardedMatmulConfig{},
    ShardedMatmulStats *stats = nullptr);

/** Telemetry of one sharded element-wise run. */
struct ShardedElementwiseStats
{
    std::vector<RowBlock> blocks;
    unsigned activeDevices = 0;
    std::uint64_t vpcs = 0;
    std::uint64_t mergedBytes = 0;
    std::vector<double> deviceSeconds;
    double mergeSeconds = 0.0;
    double wallSeconds = 0.0;
};

/**
 * Element-wise C[i] = A[i] + B[i] (mod 256) sharded by element
 * ranges: each device stages its A/B slices, runs chunked ADD VPCs
 * through the two-level engine, and the result slices concatenate
 * in plan order. @p deviceJobs / @p engineJobs as in processAll.
 */
std::vector<std::uint8_t> runShardedVectorAdd(
    ShardedSystem &sys, std::span<const std::uint8_t> a,
    std::span<const std::uint8_t> b, unsigned deviceJobs = 0,
    unsigned engineJobs = 0,
    ShardedElementwiseStats *stats = nullptr);

} // namespace streampim

#endif // STREAMPIM_CORE_SHARDED_SYSTEM_HH_
