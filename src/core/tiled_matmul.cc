#include "core/tiled_matmul.hh"

#include <algorithm>

#include "common/log.hh"
#include "runtime/health_policy.hh"
#include "runtime/tiler.hh"

namespace streampim
{

namespace
{

/** Shared device layout of one tiled-matmul run (element offsets are
 * sized for the run's starting tile shape, so any k-slice with
 * tk <= tileK fits the same regions — what lets a re-tile shrink the
 * k-edge mid-run without moving the accumulator). */
struct TiledLayout
{
    std::uint64_t subBytes = 0;
    unsigned computeSubs = 0;
    std::uint64_t aOff = 0, bOff = 0, partialOff = 0, accOff = 0;
    Addr aBase = 0, btBase = 0, cBase = 0, stageBase = 0;
    std::uint64_t stageBytes = 0;
};

/**
 * One run's VPC stream into the device's finite queue, plus the
 * run's counters. The queue is flushed through the parallel engine
 * whenever submission backs up; conflicting VPCs keep submit order
 * across rounds, so accumulator and staging-buffer reuse is safe by
 * construction.
 */
struct TileStream
{
    StreamPimSystem &device;
    const TiledMatmulConfig &config;
    const MatmulTiling &t;
    const TiledLayout &lay;
    TiledMatmulStats &st;
    /** A drained VPC came back Failed (cleared per recoverable
     * slice). */
    bool failed = false;

    void
    drain()
    {
        auto records = device.processQueue(config.jobs);
        if (!records.empty())
            st.rounds++;
        for (const auto &rec : records) {
            st.worstFault = std::max(st.worstFault, rec.fault.status);
            if (rec.fault.status == FaultStatus::Failed)
                failed = true;
        }
    }

    void
    issue(const Vpc &vpc)
    {
        if (!device.submit(vpc)) {
            drain();
            const bool ok = device.submit(vpc);
            SPIM_ASSERT(ok, "VPC rejected by a drained queue");
        }
        st.vpcs++;
        if (isPimVpc(vpc.kind))
            st.pimVpcs++;
    }

    /**
     * Issue the [kpos, kpos + tk) k-slice of C tile (i, j) on
     * compute subarray @p sub, staged through buffer @p buffer
     * (0 or 1; always 0 when single-buffered).
     */
    void
    issueSlice(unsigned sub, std::uint32_t i, std::uint32_t j,
               std::uint32_t kpos, std::uint32_t tk, unsigned buffer)
    {
        const Addr compute_base = Addr(sub) * lay.subBytes;
        const std::uint32_t tr = t.rowsOf(i);
        const std::uint32_t tc = t.colsOf(j);
        const Addr buf =
            lay.stageBase +
            (config.doubleBuffer ? buffer : 0) * lay.stageBytes;

        // Gather the tile slices into the staging buffer: A rows
        // first, then B columns, densely packed.
        for (std::uint32_t r = 0; r < tr; ++r)
            issue({VpcKind::Tran,
                   lay.aBase +
                       std::uint64_t(i * t.tileRows + r) * t.k + kpos,
                   0, buf + std::uint64_t(r) * tk, tk});
        for (std::uint32_t c = 0; c < tc; ++c)
            issue({VpcKind::Tran,
                   lay.btBase +
                       std::uint64_t(j * t.tileCols + c) * t.k + kpos,
                   0,
                   buf + std::uint64_t(tr) * tk +
                       std::uint64_t(c) * tk,
                   tk});

        // Spread the packed tiles to the compute subarray.
        issue({VpcKind::Tran, buf, 0, compute_base + lay.aOff,
               tr * tk});
        issue({VpcKind::Tran, buf + std::uint64_t(tr) * tk, 0,
               compute_base + lay.bOff, tc * tk});

        // Partial dot products over this k-slice.
        for (std::uint32_t r = 0; r < tr; ++r)
            for (std::uint32_t c = 0; c < tc; ++c)
                issue({VpcKind::Mul,
                       compute_base + lay.aOff +
                           std::uint64_t(r) * tk,
                       compute_base + lay.bOff +
                           std::uint64_t(c) * tk,
                       compute_base + lay.partialOff +
                           4ull * (r * tc + c),
                       tk});

        // Output-stationary accumulation of the partial low bytes;
        // the first k-slice initializes device-side.
        for (std::uint32_t r = 0; r < tr; ++r)
            for (std::uint32_t c = 0; c < tc; ++c) {
                const Addr partial = compute_base + lay.partialOff +
                                     4ull * (r * tc + c);
                const Addr acc = compute_base + lay.accOff +
                                 std::uint64_t(r) * tc + c;
                if (kpos == 0)
                    issue({VpcKind::Tran, partial, 0, acc, 1});
                else
                    issue({VpcKind::Add, acc, partial, acc, 1});
            }

        // Last k-slice: the C tile is final; collect it row by row
        // to the backing store.
        if (kpos + tk == t.k)
            for (std::uint32_t r = 0; r < tr; ++r)
                issue({VpcKind::Tran,
                       compute_base + lay.accOff +
                           std::uint64_t(r) * tc,
                       0,
                       lay.cBase +
                           std::uint64_t(i * t.tileRows + r) * t.m +
                           std::uint64_t(j) * t.tileCols,
                       tc});
    }
};

/**
 * Transactional, task-granular dataflow (config.recovery.enabled;
 * DESIGN.md §10). The only state a k-slice task carries forward is
 * its C-tile accumulator (plus the C rows on the collecting slice):
 * staging buffers, spread operand tiles and partial dots are all
 * re-staged from the backing store on every attempt. One journal
 * group per slice therefore makes the whole slice a transaction
 * that rolls back bit-exact, and the ladder runs at slice
 * granularity:
 *
 *   rung 1 — rollback + retry in place (retryBudget per episode);
 *   rung 3 + re-tile — quarantine the blamed compute subarray (it
 *       absorbs essentially every deposit of the slice), evacuate
 *       the in-flight accumulator onto the least-worn survivor,
 *       derate the k-edge for the shrunken pool, and re-run the
 *       slice there (replanBudget escalations per episode, each
 *       with a fresh retry budget);
 *
 * after which the slice surfaces unrecoverable: rolled back to its
 * pre-slice bytes — stale, never corrupt. A run-local HealthPolicy
 * keeps the quarantine set and picks evacuation targets (the scan
 * RecoveryManager uses, without its strictly-healthier check).
 * Deterministic at any job count: drains are count-driven,
 * quarantine/evacuation decisions are pure functions of wear
 * telemetry with a total order, and
 * journal/rollback/evacuation traffic runs injection-detached.
 */
void
runRecoverableTasks(TileStream &run)
{
    StreamPimSystem &device = run.device;
    const TiledMatmulConfig &config = run.config;
    const MatmulTiling &t = run.t;
    const TiledLayout &lay = run.lay;
    TiledMatmulStats &st = run.st;
    config.recovery.validate();
    BatchJournal journal;
    RecoveryStats &rs = st.recovery;
    // Owns this run's quarantine set and evacuation order; it never
    // evaluates, so its config is the default.
    HealthPolicy policy(HealthPolicyConfig{},
                        device.params().totalSubarrays(),
                        device.params().subarraysPerBank);
    std::uint32_t cur_tile_k = t.tileK;
    std::uint64_t attempt = 0; // staging-buffer parity

    // One attempt at the [kpos, kpos + tk) slice of tile (i, j) on
    // compute subarray @p sub, drained on its own; true when no VPC
    // came back Failed.
    auto runSlice = [&](unsigned sub, std::uint32_t i,
                        std::uint32_t j, std::uint32_t kpos,
                        std::uint32_t tk) {
        run.failed = false;
        run.issueSlice(sub, i, j, kpos, tk, unsigned(attempt++ & 1));
        run.drain();
        return !run.failed;
    };

    for (std::uint32_t i = 0; i < t.iTiles; ++i) {
        for (std::uint32_t j = 0; j < t.jTiles; ++j) {
            std::vector<unsigned> live;
            for (unsigned s = 0; s < lay.computeSubs; ++s)
                if (!policy.isQuarantined(s))
                    live.push_back(s);
            if (live.empty()) {
                // The whole compute pool is quarantined: the tile
                // never runs; its C bytes stay stale and the loss
                // is surfaced honestly.
                rs.failedVpcs++;
                rs.unrecoverable++;
                st.worstFault = FaultStatus::Failed;
                continue;
            }
            unsigned sub =
                live[(std::uint64_t(i) * t.jTiles + j) % live.size()];
            const std::uint32_t tr = t.rowsOf(i);
            const std::uint32_t tc = t.colsOf(j);
            std::uint32_t kpos = 0;
            unsigned escalations = 0;
            bool episode = false;
            bool episode_retiled = false;
            bool episode_escalated = false;
            bool tile_lost = false;
            while (kpos < t.k) {
                const std::uint32_t tk =
                    std::min(cur_tile_k, t.k - kpos);
                const bool collect = kpos + tk == t.k;
                if (!episode)
                    st.tileTasks++;

                // Journal the slice transaction: the live
                // accumulator (a synthetic self-TRAN's write set is
                // exactly that region), plus the C rows the
                // collecting slice overwrites.
                const Addr acc_addr =
                    Addr(sub) * lay.subBytes + lay.accOff;
                journal.clear();
                device.journalVpc(journal, {VpcKind::Tran, acc_addr,
                                            0, acc_addr, tr * tc});
                if (collect)
                    for (std::uint32_t r = 0; r < tr; ++r)
                        device.journalExtra(
                            journal, 0,
                            lay.cBase +
                                std::uint64_t(i * t.tileRows + r) *
                                    t.m +
                                std::uint64_t(j) * t.tileCols,
                            tc);
                rs.batches++;
                rs.snapshots += journal.regionCount();
                rs.snapshotBytes += journal.snapshotBytes();

                bool ok = runSlice(sub, i, j, kpos, tk);
                if (!ok) {
                    if (!episode) {
                        rs.failedVpcs++;
                        episode = true;
                    }
                    rs.rollbacks++;
                    rs.rollbackBytes +=
                        device.rollbackGroup(journal, 0);
                    // Rung 1: retry in place.
                    for (unsigned r = 0;
                         r < config.recovery.retryBudget && !ok;
                         ++r) {
                        rs.retries++;
                        ok = runSlice(sub, i, j, kpos, tk);
                        if (!ok) {
                            rs.rollbacks++;
                            rs.rollbackBytes +=
                                device.rollbackGroup(journal, 0);
                        }
                    }
                }
                if (ok) {
                    if (episode) {
                        rs.recovered++;
                        if (episode_retiled)
                            rs.recoveredByRetile++;
                        else if (episode_escalated)
                            rs.recoveredByReplan++;
                        else
                            rs.recoveredByRetry++;
                        episode = false;
                        episode_retiled = false;
                        episode_escalated = false;
                        escalations = 0;
                    }
                    kpos += tk;
                    continue;
                }

                // Rung 3: quarantine, evacuate, re-tile.
                if (escalations >= config.recovery.replanBudget) {
                    tile_lost = true;
                    break;
                }
                policy.forceQuarantine(sub);
                rs.replans++;
                // The least-worn live compute subarray; anything
                // >= computeSubs means none survive.
                const unsigned to = policy.leastWornTarget(
                    device.wearSummaries(), sub, [&](std::uint32_t s) {
                        return s >= lay.computeSubs;
                    });
                if (to >= lay.computeSubs) {
                    tile_lost = true;
                    break;
                }
                // Each lost compute subarray quadruples the
                // per-element derating footprint, halving the
                // power-of-two k-edge: the survivors absorb the
                // quarantined subarray's traffic, so smaller slices
                // bound every later transaction's blast radius and
                // retry cost.
                const std::uint32_t derated = tileEdgeForBudget(
                    lay.subBytes,
                    8u << std::min(2 * policy.quarantinedCount(), 20u));
                if (derated < cur_tile_k) {
                    cur_tile_k = derated;
                    rs.retiles++;
                    episode_retiled = true;
                }
                device.controllerCopy(
                    acc_addr, Addr(to) * lay.subBytes + lay.accOff,
                    tr * tc);
                rs.rehomes++;
                episode_escalated = true;
                escalations++;
                sub = to;
                // Re-enter at the same kpos: the rolled-back
                // accumulated k-tiles are preserved at the new home
                // and the remaining range re-chunks at the
                // (possibly smaller) current k-edge.
            }
            if (tile_lost) {
                // Every failed attempt already rolled back, so the
                // pre-slice bytes are in place — stale, never
                // corrupt.
                rs.unrecoverable++;
            }
        }
    }
    st.finalTileK = cur_tile_k;
}

} // namespace

std::vector<std::uint8_t>
hostMatmulReference(std::span<const std::uint8_t> a,
                    std::span<const std::uint8_t> b, std::uint32_t n,
                    std::uint32_t k, std::uint32_t m)
{
    SPIM_ASSERT(a.size() == std::uint64_t(n) * k,
                "A shape mismatch: ", a.size(), " vs ", n, "x", k);
    SPIM_ASSERT(b.size() == std::uint64_t(k) * m,
                "B shape mismatch: ", b.size(), " vs ", k, "x", m);
    std::vector<std::uint8_t> c(std::uint64_t(n) * m);
    for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t j = 0; j < m; ++j) {
            std::uint32_t acc = 0;
            for (std::uint32_t kk = 0; kk < k; ++kk)
                acc += std::uint32_t(a[std::uint64_t(i) * k + kk]) *
                       b[std::uint64_t(kk) * m + j];
            c[std::uint64_t(i) * m + j] = std::uint8_t(acc);
        }
    }
    return c;
}

std::vector<std::uint8_t>
runTiledMatmul(StreamPimSystem &device,
               std::span<const std::uint8_t> a,
               std::span<const std::uint8_t> b, std::uint32_t n,
               std::uint32_t k, std::uint32_t m,
               const TiledMatmulConfig &config,
               TiledMatmulStats *stats)
{
    if (n == 0 || k == 0 || m == 0)
        SPIM_FATAL("degenerate matmul shape ", n, "x", k, "x", m);
    if (a.size() != std::uint64_t(n) * k)
        SPIM_FATAL("A shape mismatch: ", a.size(), " vs ", n, "x", k);
    if (b.size() != std::uint64_t(k) * m)
        SPIM_FATAL("B shape mismatch: ", b.size(), " vs ", k, "x", m);

    const RmParams &rm = device.params();
    const unsigned total = rm.totalSubarrays();
    if (total < 2)
        SPIM_FATAL("tiled matmul needs a compute and a backing "
                   "subarray; geometry has ",
                   total);
    const std::uint64_t sub_bytes = rm.bytesPerSubarray();

    // Subarray roles: last = backing store, second-to-last = tile
    // staging (sharing the backing subarray in 2-subarray
    // geometries), the rest compute.
    const unsigned backing_sub = total - 1;
    const unsigned staging_sub = total >= 3 ? total - 2 : backing_sub;
    const unsigned compute_subs =
        staging_sub == backing_sub ? total - 1 : total - 2;

    // Tile grid: a square edge sized so one tile's full working set
    // (A tile + B tile + 4-byte partial dots + accumulator) fits a
    // compute subarray with headroom — footprint 8 bytes/element.
    const MatmulTiling t =
        MatmulTiling::build(n, k, m, tileEdgeForBudget(sub_bytes, 8));

    // Per-compute-subarray layout for one tile task. The trailing 64
    // bytes stay free: executeOne stages remote operands into the
    // subarray tail, and keeping clear of it preserves the shadow-
    // simulation memory-comparison convention.
    const std::uint64_t a_off = 0;
    const std::uint64_t b_off =
        std::uint64_t(t.tileRows) * t.tileK;
    const std::uint64_t partial_off =
        b_off + std::uint64_t(t.tileCols) * t.tileK;
    const std::uint64_t acc_off =
        partial_off + 4ull * t.tileRows * t.tileCols;
    const std::uint64_t compute_end =
        acc_off + std::uint64_t(t.tileRows) * t.tileCols;
    if (compute_end + 64 > sub_bytes)
        SPIM_FATAL("tile working set (", compute_end,
                   " B) does not fit a compute subarray (", sub_bytes,
                   " B); shrink the tile shape");

    // Backing layout: A row-major, then B transposed (so a column's
    // K elements are contiguous for staging), then C.
    const std::uint64_t a_bytes = std::uint64_t(n) * k;
    const std::uint64_t bt_bytes = std::uint64_t(m) * k;
    const std::uint64_t c_bytes = std::uint64_t(n) * m;
    const Addr backing_base = Addr(backing_sub) * sub_bytes;
    const Addr a_base = backing_base;
    const Addr bt_base = a_base + a_bytes;
    const Addr c_base = bt_base + bt_bytes;

    // Staging: two packed tile buffers (parity-alternated when
    // double-buffered), after C when sharing the backing subarray.
    const std::uint64_t stage_bytes =
        (std::uint64_t(t.tileRows) + t.tileCols) * t.tileK;
    const Addr stage_base =
        staging_sub == backing_sub
            ? c_base + c_bytes
            : Addr(staging_sub) * sub_bytes;
    const std::uint64_t backing_used =
        a_bytes + bt_bytes + c_bytes +
        (staging_sub == backing_sub ? 2 * stage_bytes : 0);
    if (backing_used + 64 > sub_bytes)
        SPIM_FATAL("operands (", backing_used,
                   " B) do not fit the backing subarray (", sub_bytes,
                   " B)");
    if (staging_sub != backing_sub && 2 * stage_bytes + 64 > sub_bytes)
        SPIM_FATAL("staging buffers do not fit their subarray");

    const TiledLayout lay{.subBytes = sub_bytes,
                          .computeSubs = compute_subs,
                          .aOff = a_off,
                          .bOff = b_off,
                          .partialOff = partial_off,
                          .accOff = acc_off,
                          .aBase = a_base,
                          .btBase = bt_base,
                          .cBase = c_base,
                          .stageBase = stage_base,
                          .stageBytes = stage_bytes};

    // Load the operands: A as-is, B transposed.
    device.write(a_base, a);
    {
        std::vector<std::uint8_t> bt(bt_bytes);
        for (std::uint32_t kk = 0; kk < k; ++kk)
            for (std::uint32_t j = 0; j < m; ++j)
                bt[std::uint64_t(j) * k + kk] =
                    b[std::uint64_t(kk) * m + j];
        device.write(bt_base, bt);
    }

    TiledMatmulStats st;
    TileStream run{device, config, t, lay, st};
    if (config.recovery.enabled) {
        runRecoverableTasks(run);
    } else {
        st.tileTasks = t.tasks();
        for (std::uint64_t task = 0; task < st.tileTasks; ++task) {
            const TileTask tt = t.task(task);
            run.issueSlice(unsigned(tt.tile % compute_subs), tt.i,
                           tt.j, tt.kpos, tt.depth,
                           unsigned(task & 1));
        }
        run.drain();
    }

    std::vector<std::uint8_t> c = device.read(c_base, c_bytes);
    // The join is part of this call's work, not the caller's later
    // teardown of the device.
    device.releaseWorkers();
    if (stats != nullptr)
        *stats = st;
    return c;
}

} // namespace streampim
