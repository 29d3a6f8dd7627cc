#include "core/sharded_system.hh"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/config.hh"
#include "common/log.hh"
#include "parallel/thread_pool.hh"

namespace streampim
{

namespace
{

using clock_type = std::chrono::steady_clock;

double
secondsSince(clock_type::time_point t0)
{
    return std::chrono::duration<double>(clock_type::now() - t0)
        .count();
}

} // namespace

ThreadPool::JobSplit
ShardedSystem::resolveSplit(unsigned fanout, unsigned deviceJobs,
                            unsigned engineJobs)
{
    if (fanout == 0)
        fanout = 1;
    ThreadPool::JobSplit split;
    if (deviceJobs == 0 && engineJobs == 0) {
        split = ThreadPool::splitJobs(fanout);
    } else {
        split.outer = std::min(std::max(deviceJobs, 1u), fanout);
        split.inner = std::max(engineJobs, 1u);
    }
    if (ThreadPool::inSerialSection())
        split = ThreadPool::JobSplit{1, 1};
    return split;
}

ShardedSystem::ShardedSystem(RmParams params, unsigned devices)
    : params_(params)
{
    params_.validate();
    if (devices < 1 || devices > Config::kMaxDevices)
        SPIM_FATAL("device count out of range: ", devices);
    devices_.reserve(devices);
    for (unsigned d = 0; d < devices; ++d)
        devices_.push_back(
            std::make_unique<StreamPimSystem>(params_));
}

ShardedSystem::~ShardedSystem() = default;

std::uint64_t
ShardedSystem::deviceSeed(std::uint64_t seed, unsigned device)
{
    // Device 0 keeps the master seed so a 1-device fleet reproduces
    // the single-device system bit-exact; higher devices decorrelate
    // via a splitmix-style odd multiplier. A pure function of
    // (seed, device): resizing the fleet never perturbs an existing
    // device's injector streams.
    if (device == 0)
        return seed;
    return seed ^ (0xbf58476d1ce4e5b9ULL * device);
}

StreamPimSystem &
ShardedSystem::device(unsigned d)
{
    SPIM_ASSERT(d < devices_.size(), "device ", d, " out of range");
    return *devices_[d];
}

const StreamPimSystem &
ShardedSystem::device(unsigned d) const
{
    SPIM_ASSERT(d < devices_.size(), "device ", d, " out of range");
    return *devices_[d];
}

bool
ShardedSystem::submit(unsigned d, const Vpc &vpc)
{
    return device(d).submit(vpc);
}

void
ShardedSystem::ensurePool(unsigned jobs)
{
    if (pool_ && poolJobs_ == jobs)
        return;
    pool_ = std::make_unique<ThreadPool>(jobs);
    poolJobs_ = jobs;
}

void
ShardedSystem::processAll(
    std::vector<std::vector<VpcExecutionRecord>> &records,
    unsigned deviceJobs, unsigned engineJobs,
    std::vector<double> *deviceSeconds)
{
    const unsigned count = devices();
    records.resize(count);
    if (deviceSeconds != nullptr)
        deviceSeconds->assign(count, 0.0);

    const ThreadPool::JobSplit split =
        resolveSplit(count, deviceJobs, engineJobs);

    auto drainOne = [&](unsigned d) {
        const auto t0 = clock_type::now();
        devices_[d]->processQueueInto(records[d], split.inner);
        if (deviceSeconds != nullptr)
            (*deviceSeconds)[d] = secondsSince(t0);
    };

    if (split.outer == 1) {
        for (unsigned d = 0; d < count; ++d)
            drainOne(d);
        return;
    }
    // Device-level fan-out: devices share no mutable state, each
    // closure writes only its own records/seconds slot, and each
    // device's drain is byte-identical at any engine job count — so
    // the merged (device-ordered) output is schedule-independent.
    ensurePool(split.outer);
    for (unsigned d = 0; d < count; ++d)
        pool_->submit([&drainOne, d] { drainOne(d); });
    pool_->wait();
}

double
ShardedMatmulStats::utilization() const
{
    if (wallSeconds <= 0.0 || deviceSeconds.empty())
        return 0.0;
    double busy = 0.0;
    for (double s : deviceSeconds)
        busy += s;
    return busy / (double(deviceSeconds.size()) * wallSeconds);
}

std::vector<std::uint8_t>
runShardedMatmul(ShardedSystem &sys,
                 std::span<const std::uint8_t> a,
                 std::span<const std::uint8_t> b, std::uint32_t n,
                 std::uint32_t k, std::uint32_t m,
                 const ShardedMatmulConfig &config,
                 ShardedMatmulStats *stats)
{
    SPIM_ASSERT(a.size() == std::uint64_t(n) * k,
                "A shape mismatch: ", a.size(), " vs ", n, "x", k);
    SPIM_ASSERT(b.size() == std::uint64_t(k) * m,
                "B shape mismatch: ", b.size(), " vs ", k, "x", m);

    const unsigned count = sys.devices();
    ShardedMatmulStats st;
    st.blocks = partitionRows(n, count);
    for (const RowBlock &blk : st.blocks)
        st.activeDevices += !blk.idle();
    st.perDevice.assign(count, TiledMatmulStats{});
    st.deviceSeconds.assign(count, 0.0);

    const ThreadPool::JobSplit split = ShardedSystem::resolveSplit(
        st.activeDevices, config.deviceJobs, config.tiled.jobs);

    std::vector<std::vector<std::uint8_t>> blocks(count);
    const auto run0 = clock_type::now();

    // One closure per active device: slice A's row block (rows are
    // contiguous in row-major A), replicate B, and stream the
    // existing tiled-matmul dataflow on that device — which re-tiles
    // WITHIN the device when the block is still out-of-core. Each
    // closure touches only its own device and result slot.
    auto runOne = [&](unsigned d) {
        const RowBlock &blk = st.blocks[d];
        if (blk.idle())
            return;
        const auto t0 = clock_type::now();
        TiledMatmulConfig tiled = config.tiled;
        tiled.jobs = split.inner;
        blocks[d] = runTiledMatmul(
            sys.device(d),
            a.subspan(std::uint64_t(blk.begin) * k,
                      std::uint64_t(blk.rows) * k),
            b, blk.rows, k, m, tiled, &st.perDevice[d]);
        st.deviceSeconds[d] = secondsSince(t0);
    };

    parallelFor(count, split.outer,
                [&](std::size_t d) { runOne(unsigned(d)); });

    for (const TiledMatmulStats &ts : st.perDevice) {
        st.vpcs += ts.vpcs;
        st.tileTasks += ts.tileTasks;
    }

    // Merge: concatenate the C row blocks in plan (device) order —
    // deterministic at any device count because device d's block is
    // exactly rows [begin, begin + rows) of the full product.
    const auto merge0 = clock_type::now();
    std::vector<std::uint8_t> c(std::uint64_t(n) * m);
    for (unsigned d = 0; d < count; ++d) {
        const RowBlock &blk = st.blocks[d];
        if (blk.idle())
            continue;
        SPIM_ASSERT(blocks[d].size() == std::uint64_t(blk.rows) * m,
                    "device ", d, " returned a mis-sized C block");
        std::memcpy(c.data() + std::uint64_t(blk.begin) * m,
                    blocks[d].data(), blocks[d].size());
        st.mergedBytes += blocks[d].size();
    }
    st.mergeSeconds = secondsSince(merge0);
    st.wallSeconds = secondsSince(run0);

    if (stats != nullptr)
        *stats = std::move(st);
    return c;
}

std::vector<std::uint8_t>
runShardedVectorAdd(ShardedSystem &sys,
                    std::span<const std::uint8_t> a,
                    std::span<const std::uint8_t> b,
                    unsigned deviceJobs, unsigned engineJobs,
                    ShardedElementwiseStats *stats)
{
    SPIM_ASSERT(a.size() == b.size(),
                "element-wise operands differ in length: ", a.size(),
                " vs ", b.size());

    SPIM_ASSERT(a.size() <= 0xFFFFFFFFull,
                "element-wise operands cap at 32-bit ranges");

    const unsigned count = sys.devices();
    ShardedElementwiseStats st;
    st.blocks = partitionRows(std::uint32_t(a.size()), count);
    for (const RowBlock &blk : st.blocks)
        st.activeDevices += !blk.idle();

    // Per-device layout in subarray 0: the A slice, the B slice and
    // the destination, back to back (the subarray tail stays free
    // for the engine's remote-operand staging convention).
    const std::uint64_t sub_bytes =
        sys.params().bytesPerSubarray();
    const auto run0 = clock_type::now();
    for (unsigned d = 0; d < count; ++d) {
        const RowBlock &blk = st.blocks[d];
        if (blk.idle())
            continue;
        SPIM_ASSERT(3ull * blk.rows + 64 <= sub_bytes,
                    "element-wise block (", blk.rows,
                    " elements) does not fit a subarray three times "
                    "over; use more devices or a larger geometry");
        const std::uint64_t a_off = 0;
        const std::uint64_t b_off = blk.rows;
        const std::uint64_t dst_off = 2ull * blk.rows;
        sys.device(d).write(a_off, a.subspan(blk.begin, blk.rows));
        sys.device(d).write(b_off, b.subspan(blk.begin, blk.rows));
        // Chunked ADDs. Their data are independent, but every chunk
        // lives in subarray 0, so their touch masks coincide and the
        // conflict-graph engine runs a device's chunks as one chain:
        // the parallelism here is across devices only.
        constexpr std::uint32_t kChunk = 256;
        for (std::uint32_t at = 0; at < blk.rows; at += kChunk) {
            const std::uint32_t len =
                std::min(kChunk, blk.rows - at);
            const bool ok = sys.submit(
                d, Vpc{VpcKind::Add, a_off + at, b_off + at,
                       dst_off + at, len});
            SPIM_ASSERT(ok, "element-wise program overflowed the "
                            "VPC queue");
            st.vpcs++;
        }
    }

    std::vector<std::vector<VpcExecutionRecord>> records;
    sys.processAll(records, deviceJobs, engineJobs,
                   &st.deviceSeconds);

    const auto merge0 = clock_type::now();
    std::vector<std::uint8_t> out(a.size());
    for (unsigned d = 0; d < count; ++d) {
        const RowBlock &blk = st.blocks[d];
        if (blk.idle())
            continue;
        const auto slice =
            sys.device(d).read(2ull * blk.rows, blk.rows);
        std::memcpy(out.data() + blk.begin, slice.data(),
                    slice.size());
        st.mergedBytes += slice.size();
    }
    st.mergeSeconds = secondsSince(merge0);
    st.wallSeconds = secondsSince(run0);

    if (stats != nullptr)
        *stats = std::move(st);
    return out;
}

} // namespace streampim
