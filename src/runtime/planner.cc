#include "runtime/planner.hh"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/log.hh"

namespace streampim
{

namespace
{

/**
 * Compute subarrays a single tiled-matmul task fans out over. Caps
 * the per-task batch count so paper-scale grids stay replayable;
 * the compute set is carved into slots/kSlotsPerTile groups used
 * round-robin by C tile, which is what lets different C tiles
 * proceed concurrently.
 */
constexpr std::uint32_t kSlotsPerTile = 64;

/**
 * Walk the slots owning rows of a @p rows-row matrix distributed
 * round-robin over @p slots slots as runs of equal row counts:
 * fn(first_slot, run_slots, rows_each). Slots below rows % slots own
 * one row more, so there are at most two runs, and the owning slots
 * are the prefix [0, min(rows, slots)).
 */
template <typename Fn>
void
forEachSlotRun(std::uint32_t rows, std::uint32_t slots, Fn &&fn)
{
    const std::uint32_t each = rows / slots, extra = rows % slots;
    if (extra > 0)
        fn(0u, extra, each + 1);
    if (each > 0)
        fn(extra, slots - extra, each);
}

} // namespace

Planner::Planner(const SystemConfig &config) : cfg_(config)
{
    cfg_.validate();
    const auto &rm = cfg_.rm;

    // Compute set: one subarray for base; every PIM subarray
    // otherwise. PIM banks are banks [0, pimBanks), so the global
    // ids of PIM subarrays are contiguous from 0.
    const unsigned pim = rm.pimSubarrays();
    if (cfg_.optLevel == OptLevel::Base) {
        computeSet_ = {0};
    } else {
        computeSet_.resize(pim);
        for (unsigned i = 0; i < pim; ++i)
            computeSet_[i] = i;
    }
    // Slot i is subarray i: the run emitters (emitBroadcast,
    // emitPhasedRuns) step through slots by stepping subarrays.
    SPIM_ASSERT(computeSet_.front() == 0 &&
                    computeSet_.back() + 1 == computeSet_.size(),
                "compute set is not [0, n)");

    // Staging set: disjoint subarrays in the memory banks under
    // unblock; deliberately overlapping the compute set otherwise
    // (that overlap is what distribute fails to avoid).
    if (cfg_.optLevel == OptLevel::Unblock) {
        unsigned staging = std::min<unsigned>(
            SystemConfig::kStagingSubarrays,
            rm.totalSubarrays() - pim);
        SPIM_ASSERT(staging > 0,
                    "no memory-bank subarrays available for staging");
        stagingSet_.resize(staging);
        for (unsigned i = 0; i < staging; ++i)
            stagingSet_[i] = pim + i;
    } else {
        stagingSet_ = {computeSet_.front()};
    }
}

VpcSchedule
Planner::planRecovery(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> &moves,
    std::uint64_t bytes) const
{
    SPIM_ASSERT(bytes > 0, "moving zero bytes");
    VpcSchedule sched;
    for (const auto &[from, to] : moves) {
        SPIM_ASSERT(from != to, "recovery copy onto the source subarray");
        VpcBatch b;
        b.kind = VpcKind::Tran;
        b.subarray = from;
        b.dstSubarray = to;
        b.vpcCount = 1;
        // TRAN batch elements are bytes (Executor::runTransfer).
        b.vectorLen = std::uint32_t(bytes);
        b.recovery = true;
        sched.push(b);
    }
    return sched;
}

std::uint32_t
Planner::rowsOnSlot(std::uint32_t rows, std::uint32_t slot) const
{
    const auto slots = std::uint32_t(computeSet_.size());
    return rows / slots + (slot < rows % slots ? 1 : 0);
}

std::uint32_t
Planner::vectorHome(MatrixId id) const
{
    return stagingSet_[id % stagingSet_.size()];
}

std::uint32_t
Planner::streamHome(std::uint32_t j) const
{
    return stagingSet_[j % stagingSet_.size()];
}

std::uint32_t
Planner::emitBroadcast(LowerCtx &ctx, std::uint32_t home,
                       std::uint32_t first, std::uint32_t count,
                       std::uint32_t len, std::uint32_t dep,
                       bool &barrier) const
{
    // The vector crosses the shared device bus once per destination
    // bank (to a relay subarray, the bank's first destination), then
    // fans out over that bank's internal bus. This keeps broadcast
    // bandwidth scaling with the bank count instead of saturating
    // the device bus (cf. the Fig. 21 discussion).
    SPIM_ASSERT(count > 0, "broadcast to no subarray");
    const unsigned spb = cfg_.rm.subarraysPerBank;
    const std::uint32_t end = first + count;
    const auto first_hop = std::uint32_t(ctx.sched->batchCount());
    for (std::uint32_t relay = first; relay < end;) {
        const std::uint32_t bank_end =
            std::min<std::uint32_t>(end, (relay / spb + 1) * spb);
        VpcBatch hop;
        hop.kind = VpcKind::Tran;
        hop.subarray = home;
        hop.dstSubarray = relay;
        hop.vpcCount = 1;
        hop.vectorLen = len;
        hop.depA = dep;
        hop.barrier = barrier;
        barrier = false;
        const std::uint32_t hop_idx = ctx.sched->push(hop);

        // Bank-local fan-out from the relay, one copy per remaining
        // subarray of the bank.
        if (bank_end - relay > 1) {
            VpcBatch fan;
            fan.kind = VpcKind::Tran;
            fan.subarray = relay;
            fan.dstSubarray = relay + 1;
            fan.vpcCount = 1;
            fan.vectorLen = len;
            fan.depA = hop_idx;
            fan.repeat = bank_end - relay - 1;
            fan.dstSubarrayStep = 1;
            ctx.sched->pushRun(fan);
        }
        relay = bank_end;
    }
    return first_hop;
}

std::uint32_t
Planner::emitPhasedRuns(LowerCtx &ctx, std::uint32_t first,
                        std::uint32_t slots, std::uint32_t rows,
                        std::uint32_t k, std::uint32_t copy0,
                        std::uint32_t dst) const
{
    SPIM_ASSERT(k > 0 && k <= cfg_.maxVpcElements,
                "a phased run needs unsliced dot products");
    std::uint32_t comp0 = kNoBatch;
    forEachSlotRun(rows, slots, [&](std::uint32_t t0, std::uint32_t n,
                                    std::uint32_t each) {
        VpcBatch c;
        c.kind = VpcKind::Mul;
        c.subarray = first + t0;
        c.vpcCount = each;
        c.vectorLen = k;
        c.depA = copy0 + t0;
        c.repeat = n;
        c.subarrayStep = 1;
        c.depAStep = 1;
        const std::uint32_t idx = ctx.sched->pushRun(c);
        if (t0 == 0)
            comp0 = idx;
    });
    std::uint32_t last_collect = kNoBatch;
    forEachSlotRun(rows, slots, [&](std::uint32_t t0, std::uint32_t n,
                                    std::uint32_t each) {
        VpcBatch col;
        col.kind = VpcKind::Tran;
        col.subarray = first + t0;
        col.dstSubarray = dst;
        col.vpcCount = each;
        col.vectorLen = 1;
        col.depA = comp0 + t0;
        col.repeat = n;
        col.subarrayStep = 1;
        col.depAStep = 1;
        last_collect = ctx.sched->pushRun(col) + (n - 1);
    });
    return last_collect;
}

std::uint32_t
Planner::pushCollect(LowerCtx &ctx, std::uint32_t src,
                     std::uint32_t dst, std::uint32_t results,
                     std::uint32_t dep) const
{
    VpcBatch col;
    col.kind = VpcKind::Tran;
    col.subarray = src;
    col.dstSubarray = dst;
    col.vpcCount = results;
    col.vectorLen = 1;
    col.depA = dep;
    return ctx.sched->push(col);
}

std::uint32_t
Planner::emitCompute(LowerCtx &ctx, VpcKind kind,
                     std::uint32_t subarray, std::uint32_t vpc_count,
                     std::uint64_t vector_len,
                     std::uint32_t dep, std::uint32_t dep_b) const
{
    SPIM_ASSERT(isPimVpc(kind), "emitCompute on TRAN");
    SPIM_ASSERT(vpc_count > 0 && vector_len > 0,
                "degenerate compute batch");

    const std::uint64_t max_len = cfg_.maxVpcElements;
    if (vector_len <= max_len) {
        VpcBatch b;
        b.kind = kind;
        b.subarray = subarray;
        b.vpcCount = vpc_count;
        b.vectorLen = std::uint32_t(vector_len);
        b.depA = dep;
        b.depB = dep_b;
        return ctx.sched->push(b);
    }

    // Slicing (Sec. IV-C): an oversized vector is processed as
    // several slices whose partial results are recombined with
    // additions.
    const std::uint64_t slices =
        (vector_len + max_len - 1) / max_len;
    std::uint32_t last = dep;
    std::uint64_t remaining = vector_len;
    for (std::uint64_t s = 0; s < slices; ++s) {
        std::uint64_t len = std::min(remaining, max_len);
        remaining -= len;
        VpcBatch b;
        b.kind = kind;
        b.subarray = subarray;
        b.vpcCount = vpc_count;
        b.vectorLen = std::uint32_t(len);
        b.depA = last;
        b.depB = s == 0 ? dep_b : kNoBatch;
        last = ctx.sched->push(b);
        stats_.slicedVpcs += vpc_count;
    }
    // Combine the partial results.
    VpcBatch combine;
    combine.kind = VpcKind::Add;
    combine.subarray = subarray;
    combine.vpcCount = vpc_count;
    combine.vectorLen = std::uint32_t(slices - 1);
    combine.depA = last;
    return ctx.sched->push(combine);
}

void
Planner::lowerMatVec(LowerCtx &ctx, const TaskGraph &g,
                     const MatrixOp &op, bool transposed) const
{
    const MatrixDesc &a = g.matrices[op.a];
    const std::uint32_t out_rows = transposed ? a.cols : a.rows;
    const std::uint32_t k = transposed ? a.rows : a.cols;
    const std::uint32_t x_home = vectorHome(op.b);
    const std::uint32_t y_home = vectorHome(op.c);
    const auto slots = std::uint32_t(computeSet_.size());

    bool barrier = ctx.written[op.a] || ctx.written[op.b];

    // Phase 1: broadcast the operand vector to every compute slot
    // that owns output rows (hierarchical per-bank fan-out). Every
    // bank hop of the broadcast — not only the barrier-carrying
    // first one — must wait until the producing op's final collect
    // has landed the vector at x_home.
    const std::uint32_t owners = std::min(out_rows, slots);
    SPIM_ASSERT(rowsOnSlot(out_rows, owners - 1) > 0 &&
                    (owners == slots || rowsOnSlot(out_rows, owners) == 0),
                "row-owning slots are not a prefix");
    const std::uint32_t copy0 =
        emitBroadcast(ctx, x_home, computeSet_.front(), owners, k,
                      ctx.lastWriter[op.b], barrier);

    // Phases 2-3: dot products and per-element result collection.
    // distribute pairs each compute with its collect (the naive
    // order that triggers head-of-line serialization); unblock
    // separates the phases.
    if (cfg_.optLevel == OptLevel::Unblock && k <= cfg_.maxVpcElements) {
        ctx.lastWriter[op.c] = emitPhasedRuns(
            ctx, computeSet_.front(), slots, out_rows, k, copy0, y_home);
        ctx.written[op.c] = true;
        return;
    }
    std::vector<std::uint32_t> comp_idx(owners, kNoBatch);
    auto emit_comp = [&](std::uint32_t i) {
        std::uint32_t rows = rowsOnSlot(out_rows, i);
        comp_idx[i] = emitCompute(ctx, VpcKind::Mul, computeSet_[i],
                                  rows, k, copy0 + i);
    };
    auto emit_collect = [&](std::uint32_t i) {
        ctx.lastWriter[op.c] =
            pushCollect(ctx, computeSet_[i], y_home,
                        rowsOnSlot(out_rows, i), comp_idx[i]);
    };

    if (cfg_.optLevel == OptLevel::Unblock) {
        for (std::uint32_t i = 0; i < owners; ++i)
            emit_comp(i);
        for (std::uint32_t i = 0; i < owners; ++i)
            emit_collect(i);
    } else {
        for (std::uint32_t i = 0; i < owners; ++i) {
            emit_comp(i);
            emit_collect(i);
        }
    }
    ctx.written[op.c] = true;
}

void
Planner::lowerMatMul(LowerCtx &ctx, const TaskGraph &g,
                     const MatrixOp &op) const
{
    const MatrixDesc &a = g.matrices[op.a];
    const MatrixDesc &b = g.matrices[op.b];
    const std::uint32_t rows_i = a.rows;
    const std::uint32_t k = a.cols;
    const std::uint32_t cols_j = b.cols;
    const auto slots = std::uint32_t(computeSet_.size());

    // When A has fewer rows than there are compute subarrays, row
    // distribution alone would strand parallelism. The layout
    // optimization replicates A's rows into `groups` column groups:
    // group g serves columns j with j % groups == g, so different
    // columns proceed concurrently on disjoint subarray sets.
    const std::uint32_t groups =
        cfg_.optLevel == OptLevel::Base
            ? 1
            : std::max<std::uint32_t>(
                  1, std::min(cols_j,
                              slots / std::max(1u, rows_i)));
    const std::uint32_t g_slots = slots / groups;
    auto group_slot = [&](std::uint32_t grp, std::uint32_t t) {
        return computeSet_[grp * g_slots + t];
    };
    auto rows_on = [&](std::uint32_t t) {
        return rows_i / g_slots + (t < rows_i % g_slots ? 1 : 0);
    };

    // A pristine rhs matrix is pre-laid column-distributed by the
    // task's layout optimization; a produced one is row-distributed
    // and each column must first be assembled on its stream home.
    const bool need_assembly = ctx.written[op.b];

    bool barrier = ctx.written[op.a] || ctx.written[op.b];

    // Replicate A's rows into groups 1..groups-1 (group 0 holds the
    // primary copy). One bulk transfer per destination subarray.
    if (groups > 1) {
        for (std::uint32_t grp = 1; grp < groups; ++grp) {
            for (std::uint32_t t = 0; t < g_slots; ++t) {
                std::uint32_t rows = rows_on(t);
                if (rows == 0)
                    continue;
                VpcBatch rep;
                rep.kind = VpcKind::Tran;
                rep.subarray = group_slot(0, t);
                rep.dstSubarray = group_slot(grp, t);
                rep.vpcCount = 1;
                rep.vectorLen = rows * k;
                rep.depA = ctx.lastWriter[op.a];
                rep.barrier = barrier;
                barrier = false;
                ctx.sched->push(rep);
            }
        }
    }

    const bool unblock = cfg_.optLevel == OptLevel::Unblock;
    const bool phased_runs = unblock && k <= cfg_.maxVpcElements;
    const std::uint32_t c_home = vectorHome(op.c);
    const std::uint32_t owners = std::min(rows_i, g_slots);
    SPIM_ASSERT(rows_on(owners - 1) > 0 &&
                    (owners == g_slots || rows_on(owners) == 0),
                "row-owning slots are not a prefix");
    std::uint32_t last_comp = kNoBatch;
    std::uint32_t last_collect = kNoBatch;
    std::vector<std::uint32_t> comp_idx(owners, kNoBatch);

    for (std::uint32_t j = 0; j < cols_j; ++j) {
        const std::uint32_t home = streamHome(j);
        const std::uint32_t grp = j % groups;

        std::uint32_t asm_idx = kNoBatch;
        if (need_assembly) {
            // Gather column j of B (row-distributed over group 0)
            // to the stream home: one element per source row. A
            // produced B is published by its op's final collect —
            // every gather must wait for it, not just the one
            // carrying the inter-op barrier.
            forEachSlotRun(k, g_slots, [&](std::uint32_t t0,
                                           std::uint32_t n,
                                           std::uint32_t src_rows) {
                VpcBatch gather;
                gather.kind = VpcKind::Tran;
                gather.subarray = group_slot(0, t0);
                gather.dstSubarray = home;
                gather.vpcCount = src_rows;
                gather.vectorLen = 1;
                gather.depA = ctx.lastWriter[op.b];
                gather.barrier = barrier;
                barrier = false;
                gather.repeat = n;
                gather.subarrayStep = 1;
                asm_idx = ctx.sched->pushRun(gather) + (n - 1);
            });
        }

        // Broadcast column j to every slot of its group owning rows
        // (hierarchical: one device-bus hop per bank, then bank-
        // local fan-out). A pre-laid column still depends on the
        // batch that published B.
        const std::uint32_t copy0 = emitBroadcast(
            ctx, home, group_slot(grp, 0), owners, k,
            need_assembly ? asm_idx : ctx.lastWriter[op.b], barrier);

        // Dot products, then collection of the column's results to
        // C's home. Under unblock the collects go to the disjoint
        // staging set in a separate phase; otherwise each subarray's
        // results are naively collected right after its compute —
        // exactly the compute/collect pairing that head-of-line
        // blocking serializes per bank.
        if (phased_runs) {
            last_collect = emitPhasedRuns(ctx, group_slot(grp, 0),
                                          g_slots, rows_i, k, copy0,
                                          c_home);
            continue;
        }
        for (std::uint32_t t = 0; t < owners; ++t) {
            last_comp = emitCompute(ctx, VpcKind::Mul,
                                    group_slot(grp, t), rows_on(t), k,
                                    copy0 + t);
            comp_idx[t] = last_comp;
            if (!unblock)
                last_collect = pushCollect(ctx, group_slot(grp, t),
                                           c_home, rows_on(t),
                                           last_comp);
        }
        if (unblock) {
            for (std::uint32_t t = 0; t < owners; ++t)
                last_collect = pushCollect(ctx, group_slot(grp, t),
                                           c_home, rows_on(t),
                                           comp_idx[t]);
        }
    }
    ctx.written[op.c] = true;
    // C is published only once the final collect has landed it at
    // c_home; recording the last *compute* here would let a
    // downstream consumer of C start before the collects finish.
    ctx.lastWriter[op.c] =
        last_collect != kNoBatch ? last_collect : last_comp;
}

void
Planner::lowerTiledMatMul(LowerCtx &ctx, const TaskGraph &g,
                          const MatrixOp &op) const
{
    const MatrixDesc &a = g.matrices[op.a];
    const MatrixDesc &b = g.matrices[op.b];

    const MatmulTiling t = MatmulTiling::build(
        a.rows, a.cols, b.cols,
        tilerCfg_.tileEdge != 0 ? tilerCfg_.tileEdge
                                : tileEdgeForBudget(cfg_.rm.matBytes));
    stats_.tiledMatmuls++;
    stats_.tileTasks += t.tasks();

    // One tile task fans out over a group of S compute slots; the
    // compute set is carved into slots/S groups used round-robin by
    // C tile, so different C tiles run on disjoint subarrays.
    const auto slots = std::uint32_t(computeSet_.size());
    const std::uint32_t per_tile =
        std::min({kSlotsPerTile, slots, t.tileRows});
    const std::uint32_t groups = std::max(1u, slots / per_tile);
    auto slot_of = [&](std::uint32_t grp, std::uint32_t x) {
        return computeSet_[grp * per_tile + x];
    };
    auto rows_on = [&](std::uint32_t rows, std::uint32_t x) {
        return rows / per_tile + (x < rows % per_tile ? 1 : 0);
    };

    // Tiles stream in from backing-store subarrays deep in the
    // memory banks (past the staging set) when the geometry has
    // them, rotating so consecutive tasks read disjoint sources.
    std::vector<std::uint32_t> backing;
    {
        const unsigned pim = cfg_.rm.pimSubarrays();
        const unsigned staged =
            cfg_.optLevel == OptLevel::Unblock
                ? unsigned(stagingSet_.size())
                : 0;
        for (unsigned s = pim + staged;
             s < cfg_.rm.totalSubarrays() && backing.size() < 64;
             ++s)
            backing.push_back(s);
        if (backing.empty())
            backing = stagingSet_;
    }
    auto stage_sub = [&](std::uint64_t task) {
        return stagingSet_[task % stagingSet_.size()];
    };

    const std::uint32_t c_home = vectorHome(op.c);
    bool barrier = ctx.written[op.a] || ctx.written[op.b];

    // Stage the operand tiles of task @p n: two bulk TRANs from the
    // backing store to the task's staging subarray.
    auto emit_stage = [&](std::uint64_t n, std::uint32_t dep_a,
                          std::uint32_t dep_b)
        -> std::pair<std::uint32_t, std::uint32_t> {
        const TileTask tt = t.task(n);
        VpcBatch sa;
        sa.kind = VpcKind::Tran;
        sa.subarray = backing[n % backing.size()];
        sa.dstSubarray = stage_sub(n);
        sa.vpcCount = 1;
        sa.vectorLen = tt.rows * tt.depth;
        sa.depA = dep_a;
        sa.barrier = barrier;
        barrier = false;
        VpcBatch sb = sa;
        sb.vectorLen = tt.depth * tt.cols;
        sb.depA = dep_b;
        sb.barrier = false;
        return {ctx.sched->push(sa), ctx.sched->push(sb)};
    };

    const std::uint64_t total = t.tasks();
    std::uint32_t staged_a = kNoBatch, staged_b = kNoBatch;
    std::uint32_t dist_last_prev = kNoBatch; // task n-1's last spread
    std::uint32_t last_collect = kNoBatch;
    // Last batch writing each slot's C-tile accumulator, per group.
    std::vector<std::vector<std::uint32_t>> acc(
        groups, std::vector<std::uint32_t>(per_tile, kNoBatch));
    std::vector<std::uint32_t> dist_a(per_tile), dist_b(per_tile);

    for (std::uint64_t n = 0; n < total; ++n) {
        const TileTask tt = t.task(n);
        const auto grp = std::uint32_t(tt.tile % groups);

        // Task 0 stages synchronously; later tasks were staged ahead
        // by their predecessor (double buffer) or after it completed
        // (single buffer).
        if (n == 0)
            std::tie(staged_a, staged_b) = emit_stage(
                0, ctx.lastWriter[op.a], ctx.lastWriter[op.b]);

        // Spread the staged tiles over the group: A rows partitioned
        // across slots, the B tile replicated to each (every slot
        // computes all tt.cols columns for its rows).
        std::uint32_t dist_last = kNoBatch;
        for (std::uint32_t x = 0; x < per_tile; ++x) {
            const std::uint32_t rows = rows_on(tt.rows, x);
            if (rows == 0)
                continue;
            VpcBatch da;
            da.kind = VpcKind::Tran;
            da.subarray = stage_sub(n);
            da.dstSubarray = slot_of(grp, x);
            da.vpcCount = 1;
            da.vectorLen = rows * tt.depth;
            da.depA = staged_a;
            dist_a[x] = ctx.sched->push(da);
            VpcBatch db = da;
            db.vectorLen = tt.depth * tt.cols;
            db.depA = staged_b;
            dist_b[x] = ctx.sched->push(db);
            dist_last = dist_b[x];
        }

        // Double buffer: stage task n+1 now, gated only on the
        // buffer's previous reader (task n-1's spread) — this is the
        // transfer that overlaps this task's compute. Emitted before
        // the computes so its dependencies always point backward.
        const bool has_next = n + 1 < total;
        if (tilerCfg_.doubleBuffer && has_next)
            std::tie(staged_a, staged_b) =
                emit_stage(n + 1, dist_last_prev, dist_last_prev);

        // Dot products, then output-stationary accumulation of the
        // partial C tile (kk > 0). The first k-tile's dots
        // initialize the accumulator.
        std::uint32_t task_last = dist_last;
        for (std::uint32_t x = 0; x < per_tile; ++x) {
            const std::uint32_t rows = rows_on(tt.rows, x);
            if (rows == 0)
                continue;
            std::uint32_t mul = emitCompute(
                ctx, VpcKind::Mul, slot_of(grp, x), rows * tt.cols,
                tt.depth, dist_a[x], dist_b[x]);
            if (tt.kk == 0) {
                acc[grp][x] = mul;
            } else {
                acc[grp][x] = emitCompute(ctx, VpcKind::Add,
                                          slot_of(grp, x), rows,
                                          tt.cols, mul, acc[grp][x]);
            }
            task_last = acc[grp][x];
        }

        // Final k-tile: collect the finished C tile rows to the
        // result home.
        if (tt.kk + 1 == t.kTiles) {
            for (std::uint32_t x = 0; x < per_tile; ++x) {
                const std::uint32_t rows = rows_on(tt.rows, x);
                if (rows == 0)
                    continue;
                VpcBatch col;
                col.kind = VpcKind::Tran;
                col.subarray = slot_of(grp, x);
                col.dstSubarray = c_home;
                col.vpcCount = rows;
                col.vectorLen = tt.cols;
                col.depA = acc[grp][x];
                last_collect = ctx.sched->push(col);
                task_last = last_collect;
            }
        }

        // Single buffer: the next task's staging must wait until
        // this whole round retires.
        if (!tilerCfg_.doubleBuffer && has_next)
            std::tie(staged_a, staged_b) =
                emit_stage(n + 1, task_last, task_last);

        dist_last_prev = dist_last;
    }

    ctx.written[op.c] = true;
    ctx.lastWriter[op.c] = last_collect;
}

void
Planner::lowerElementWise(LowerCtx &ctx, const TaskGraph &g,
                          const MatrixOp &op) const
{
    const MatrixDesc &a = g.matrices[op.a];
    const bool is_add = op.kind == MatOpKind::MatAdd;
    const VpcKind kind = is_add ? VpcKind::Add : VpcKind::Smul;
    const auto slots = std::uint32_t(computeSet_.size());

    bool barrier = ctx.written[op.a] ||
                   (is_add && ctx.written[op.b]);

    if (a.cols == 1) {
        // Vector-shaped element-wise op: the operands live whole on
        // their home subarrays; distribute chunks, compute, collect.
        // Chunks are kept at a useful granularity — spreading a
        // 2000-element add over 512 subarrays would pay one bus
        // fill per 4 elements, so the task caps the fan-out (part
        // of the Fig. 16 layout optimization).
        const std::uint32_t n = a.rows;
        const std::uint32_t min_chunk = 256;
        const std::uint32_t used = std::max<std::uint32_t>(
            1, std::min<std::uint32_t>(
                   slots, (n + min_chunk - 1) / min_chunk));
        auto chunk_on = [&](std::uint32_t i) {
            return i < used ? n / used + (i < n % used ? 1 : 0) : 0;
        };
        for (std::uint32_t i = 0; i < slots; ++i) {
            std::uint32_t chunk = chunk_on(i);
            if (chunk == 0)
                continue;
            // Copy chunk of a (and b) from their vector homes; the
            // compute must wait for *both* copies, not just the
            // last one pushed.
            VpcBatch ca;
            ca.kind = VpcKind::Tran;
            ca.subarray = vectorHome(op.a);
            ca.dstSubarray = computeSet_[i];
            ca.vpcCount = 1;
            ca.vectorLen = chunk;
            ca.depA = ctx.lastWriter[op.a];
            ca.barrier = barrier;
            barrier = false;
            std::uint32_t dep_a = ctx.sched->push(ca);
            std::uint32_t dep_b = kNoBatch;
            if (is_add) {
                VpcBatch cb = ca;
                cb.subarray = vectorHome(op.b);
                cb.depA = ctx.lastWriter[op.b];
                cb.barrier = false;
                dep_b = ctx.sched->push(cb);
            }
            std::uint32_t comp = emitCompute(
                ctx, kind, computeSet_[i], 1, chunk, dep_a, dep_b);
            VpcBatch out;
            out.kind = VpcKind::Tran;
            out.subarray = computeSet_[i];
            out.dstSubarray = vectorHome(op.c);
            out.vpcCount = 1;
            out.vectorLen = chunk;
            out.depA = comp;
            ctx.lastWriter[op.c] = ctx.sched->push(out);
        }
    } else {
        // Matrix-shaped: rows are resident (row-distributed); one
        // batch per slot, results in place.
        for (std::uint32_t i = 0; i < slots; ++i) {
            std::uint32_t rows = rowsOnSlot(a.rows, i);
            if (rows == 0)
                continue;
            // Row-resident operands: no copies needed; the batch
            // that published each operand (and, on the first slot,
            // the inter-op barrier) still orders us after the
            // producing op.
            std::uint32_t dep = ctx.lastWriter[op.a];
            std::uint32_t dep_b =
                is_add ? ctx.lastWriter[op.b] : kNoBatch;
            if (barrier) {
                VpcBatch fence;
                fence.kind = VpcKind::Tran;
                fence.subarray = computeSet_[i];
                fence.dstSubarray = computeSet_[i];
                fence.vpcCount = 1;
                fence.vectorLen = 1;
                fence.barrier = true;
                barrier = false;
                dep = ctx.sched->push(fence);
            }
            ctx.lastWriter[op.c] = emitCompute(
                ctx, kind, computeSet_[i], rows, a.cols, dep,
                dep_b);
        }
    }
    ctx.written[op.c] = true;
}

VpcSchedule
Planner::plan(const TaskGraph &graph) const
{
    VpcSchedule sched;
    LowerCtx ctx;
    ctx.sched = &sched;
    ctx.lastWriter.assign(graph.matrices.size(), kNoBatch);
    ctx.written.assign(graph.matrices.size(), false);
    stats_ = PlanStats{};

    for (const MatrixOp &op : graph.ops) {
        switch (op.kind) {
          case MatOpKind::MatMul:
            if (needsTiling(cfg_.rm, graph, op))
                lowerTiledMatMul(ctx, graph, op);
            else
                lowerMatMul(ctx, graph, op);
            break;
          case MatOpKind::MatVec:
            lowerMatVec(ctx, graph, op, false);
            break;
          case MatOpKind::MatVecT:
            lowerMatVec(ctx, graph, op, true);
            break;
          case MatOpKind::MatAdd:
          case MatOpKind::Scale:
            lowerElementWise(ctx, graph, op);
            break;
          case MatOpKind::Nonlinear:
            // Host-side; contributes no VPCs (the DNN harness adds
            // the host time separately), so it publishes no batch.
            // Any device-side writer of c stays recorded.
            ctx.written[op.c] = true;
            break;
        }
        sched.opResultBatch.push_back(
            op.kind == MatOpKind::Nonlinear ? kNoBatch
                                            : ctx.lastWriter[op.c]);
    }

    stats_.pimVpcs = sched.pimVpcs();
    stats_.moveVpcs = sched.moveVpcs();
    stats_.batches = sched.batchCount();
    return sched;
}

VpcSchedule
Planner::planTiledMatmul(std::uint32_t n, std::uint32_t k,
                         std::uint32_t m) const
{
    TaskGraph g;
    g.name = "tiled_matmul";
    MatrixId a = g.addMatrix("A", n, k);
    MatrixId b = g.addMatrix("B", k, m);
    MatrixId c = g.addMatrix("C", n, m);
    g.addTiledMatmul(a, b, c);
    return plan(g);
}

} // namespace streampim
