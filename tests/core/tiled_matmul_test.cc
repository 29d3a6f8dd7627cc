/**
 * @file
 * Functional streaming tiled matmul: bit-exactness against the host
 * reference and the untiled raw-MUL formulation across shape
 * classes, byte-identity at every engine job count, the shadow-
 * simulation invariant at 8 jobs, and the fault-campaign guarantee
 * that any non-Failed recovery status keeps the result bit-exact.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "core/tiled_matmul.hh"

namespace streampim
{
namespace
{

std::vector<std::uint8_t>
randomBytes(std::uint64_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> v(count);
    for (auto &b : v)
        b = std::uint8_t(rng.below(256));
    return v;
}

struct Shape
{
    std::uint32_t n, k, m;
};

/**
 * The untiled formulation of the integration tests: operands
 * resident in one shot, one raw MUL per (row, column) dot product,
 * low byte of each 4-byte result. Only valid for fitting shapes.
 */
void
untiledDeviceMatmul(const std::vector<std::uint8_t> &a,
                    const std::vector<std::uint8_t> &b, Shape s,
                    std::vector<std::uint8_t> &out)
{
    StreamPimSystem sys;
    const std::uint64_t a_bytes = std::uint64_t(s.n) * s.k;
    const std::uint64_t bt_bytes = std::uint64_t(s.m) * s.k;
    ASSERT_LE(a_bytes + bt_bytes + 4 * std::uint64_t(s.n) * s.m + 64,
              sys.params().bytesPerSubarray())
        << "shape is not a fitting shape";

    sys.write(0, a);
    std::vector<std::uint8_t> bt(bt_bytes);
    for (std::uint32_t kk = 0; kk < s.k; ++kk)
        for (std::uint32_t j = 0; j < s.m; ++j)
            bt[std::uint64_t(j) * s.k + kk] =
                b[std::uint64_t(kk) * s.m + j];
    sys.write(a_bytes, bt);

    const Addr out_base = a_bytes + bt_bytes;
    std::uint64_t pending = 0;
    for (std::uint32_t r = 0; r < s.n; ++r)
        for (std::uint32_t j = 0; j < s.m; ++j) {
            const bool ok = sys.submit(
                {VpcKind::Mul, Addr(r) * s.k,
                 a_bytes + Addr(j) * s.k,
                 out_base + 4 * (Addr(r) * s.m + j), s.k});
            ASSERT_TRUE(ok);
            if (++pending == 512) {
                sys.processQueue();
                pending = 0;
            }
        }
    sys.processQueue();

    out.assign(std::uint64_t(s.n) * s.m, 0);
    const auto raw = sys.read(out_base, 4 * out.size());
    for (std::uint64_t i = 0; i < out.size(); ++i)
        out[i] = raw[4 * i]; // little-endian low byte
}

TEST(TiledMatmul, MatchesHostReferenceAcrossShapeClasses)
{
    const Shape shapes[] = {
        {24, 24, 24}, // square, remainder tiles
        {20, 12, 28}, // rectangular
        {40, 6, 5},   // tall-skinny, multiple row blocks
        {6, 48, 5},   // K-dominant, multiple k-tiles
        {1, 16, 9},   // single row
        {9, 16, 1},   // single column
        {16, 16, 16}, // exact multiple of a tile
        {32, 32, 32}, // exactly one nominal tile
    };
    for (const Shape &s : shapes) {
        const auto a = randomBytes(std::uint64_t(s.n) * s.k,
                                   1000 + s.n);
        const auto b = randomBytes(std::uint64_t(s.k) * s.m,
                                   2000 + s.m);
        StreamPimSystem sys;
        TiledMatmulStats st;
        const auto c =
            runTiledMatmul(sys, a, b, s.n, s.k, s.m, {}, &st);
        EXPECT_EQ(c, hostMatmulReference(a, b, s.n, s.k, s.m))
            << s.n << "x" << s.k << "x" << s.m;
        EXPECT_GT(st.vpcs, 0u);
        EXPECT_EQ(st.worstFault, FaultStatus::Clean);
    }
}

TEST(TiledMatmul, MatchesUntiledFormulationOnFittingShapes)
{
    const Shape shapes[] = {{16, 16, 16}, {20, 12, 28}, {24, 24, 24}};
    for (const Shape &s : shapes) {
        const auto a =
            randomBytes(std::uint64_t(s.n) * s.k, 31 + s.n);
        const auto b =
            randomBytes(std::uint64_t(s.k) * s.m, 47 + s.m);
        std::vector<std::uint8_t> untiled;
        untiledDeviceMatmul(a, b, s, untiled);
        StreamPimSystem sys;
        const auto tiled = runTiledMatmul(sys, a, b, s.n, s.k, s.m);
        EXPECT_EQ(tiled, untiled)
            << s.n << "x" << s.k << "x" << s.m;
    }
}

TEST(TiledMatmul, OutOfCoreOperandsStreamInRounds)
{
    // 64x48x40 exceeds one tile (nominal edge 32 at the small
    // geometry), forcing a multi-tile multi-round stream.
    const Shape s = {64, 48, 40};
    const auto a = randomBytes(std::uint64_t(s.n) * s.k, 9);
    const auto b = randomBytes(std::uint64_t(s.k) * s.m, 10);
    StreamPimSystem sys;
    TiledMatmulStats st;
    const auto c = runTiledMatmul(sys, a, b, s.n, s.k, s.m, {}, &st);
    EXPECT_EQ(c, hostMatmulReference(a, b, s.n, s.k, s.m));
    EXPECT_GT(st.tileTasks, 1u);
    EXPECT_GT(st.rounds, 1u);
}

TEST(TiledMatmul, ByteIdenticalAcrossJobCounts)
{
    const Shape s = {40, 24, 36};
    const auto a = randomBytes(std::uint64_t(s.n) * s.k, 5);
    const auto b = randomBytes(std::uint64_t(s.k) * s.m, 6);

    std::vector<std::uint8_t> ref_c, ref_mem;
    for (unsigned jobs : {1u, 2u, 8u}) {
        StreamPimSystem sys;
        TiledMatmulConfig cfg;
        cfg.jobs = jobs;
        const auto c = runTiledMatmul(sys, a, b, s.n, s.k, s.m, cfg);
        const auto mem = sys.read(0, sys.capacityBytes());
        if (jobs == 1) {
            ref_c = c;
            ref_mem = mem;
        } else {
            EXPECT_EQ(c, ref_c) << "jobs " << jobs;
            EXPECT_EQ(mem, ref_mem) << "jobs " << jobs;
        }
    }
}

TEST(TiledMatmul, SecondRunOnOneDeviceRestartsItsWorkers)
{
    // Each call joins the device's engine workers before it returns;
    // the next call's first parallel drain starts them again.
    const Shape s = {40, 24, 36};
    StreamPimSystem sys;
    TiledMatmulConfig cfg;
    cfg.jobs = 2;
    for (std::uint64_t seed : {11u, 12u}) {
        const auto a = randomBytes(std::uint64_t(s.n) * s.k, seed);
        const auto b = randomBytes(std::uint64_t(s.k) * s.m, seed + 50);
        EXPECT_EQ(runTiledMatmul(sys, a, b, s.n, s.k, s.m, cfg),
                  hostMatmulReference(a, b, s.n, s.k, s.m))
            << "seed " << seed;
    }
}

TEST(TiledMatmul, MatchesShadowSimulationAtEightJobs)
{
    // The host-side shadow (mod-256 reference) predicts the exact
    // bytes the 8-job engine computes — the tiled analogue of
    // ParallelEngine.MatchesShadowSimulationAtEightJobs.
    const Shape s = {48, 40, 24};
    const auto a = randomBytes(std::uint64_t(s.n) * s.k, 4242);
    const auto b = randomBytes(std::uint64_t(s.k) * s.m, 2424);
    StreamPimSystem sys;
    TiledMatmulConfig cfg;
    cfg.jobs = 8;
    const auto c = runTiledMatmul(sys, a, b, s.n, s.k, s.m, cfg);
    EXPECT_EQ(c, hostMatmulReference(a, b, s.n, s.k, s.m));
}

TEST(TiledMatmul, DoubleBufferingDoesNotChangeResults)
{
    const Shape s = {40, 48, 20};
    const auto a = randomBytes(std::uint64_t(s.n) * s.k, 11);
    const auto b = randomBytes(std::uint64_t(s.k) * s.m, 12);

    StreamPimSystem dbs;
    TiledMatmulConfig db;
    db.doubleBuffer = true;
    const auto c_db = runTiledMatmul(dbs, a, b, s.n, s.k, s.m, db);

    StreamPimSystem sbs;
    TiledMatmulConfig sb;
    sb.doubleBuffer = false;
    const auto c_sb = runTiledMatmul(sbs, a, b, s.n, s.k, s.m, sb);

    EXPECT_EQ(c_db, c_sb);
    EXPECT_EQ(c_db, hostMatmulReference(a, b, s.n, s.k, s.m));
}

TEST(TiledMatmul, NonFailedFaultStatusesStayBitExact)
{
    // Under shift-fault injection with guard-based recovery, any
    // run whose worst VPC outcome is short of Failed must still be
    // bit-exact — the invariant the fault campaigns pin, here
    // carried through the full tiled dataflow.
    const Shape s = {24, 32, 20};
    const auto a = randomBytes(std::uint64_t(s.n) * s.k, 77);
    const auto b = randomBytes(std::uint64_t(s.k) * s.m, 78);

    StreamPimSystem sys;
    FaultConfig fc;
    fc.pStep = 2e-4;
    fc.guardCoverage = 1.0; // every fault is caught and realigned
    fc.seed = 99;
    sys.enableFaultInjection(fc);
    TiledMatmulStats st;
    const auto c = runTiledMatmul(sys, a, b, s.n, s.k, s.m, {}, &st);
    sys.disableFaultInjection();

    ASSERT_NE(st.worstFault, FaultStatus::Failed);
    EXPECT_EQ(c, hostMatmulReference(a, b, s.n, s.k, s.m));
}

/** Geometry with no remap headroom: one re-deposit exhaustion
 * escalates straight to Failed. */
RmParams
noSpareParams()
{
    RmParams p = smallFunctionalParams();
    p.spareTracksPerMat = 0;
    return p;
}

/** Pre-wears subarray @p sub to the brink (saturated Weibull hazard
 * over the tile working set) while it leaves every other subarray
 * alone: slices homed on @p sub come back Failed, pristine
 * subarrays stay healthy. */
void
preWearSubarray(StreamPimSystem &sys, unsigned sub)
{
    const auto junk = randomBytes(4096, 3);
    const Addr base = Addr(sub) * sys.params().bytesPerSubarray();
    for (int w = 0; w < 800; ++w)
        sys.write(base, junk);
}

FaultConfig
wearOutFaults()
{
    // One full write of a 512-byte track-group window wears each of
    // its 8 bit-plane tracks by 512, so a slice deposits ~512 wear
    // per touched track per attempt. eta sits far above that (a
    // pristine subarray survives the whole run at the p0 floor) but
    // far below the pre-worn subarray's ~410k wear, whose Weibull
    // hazard is then ~1: subarray 0 fails deterministically, the
    // rest stay healthy.
    FaultConfig fc;
    fc.pStep = 0.0; // endurance-driven failures only
    fc.pWrite0 = 1e-4;
    fc.writeEndurance = 50000.0;
    fc.weibullShape = 6.0;
    fc.redepositRetryBudget = 2;
    fc.seed = 5;
    return fc;
}

TEST(TiledMatmul, RecoveryLadderSurvivesQuarantineDrivenRetile)
{
    // End-to-end ladder exercise: the first tile is homed on the
    // doomed subarray 0 and its first k-slice Fails; retry-in-place
    // fails again (wear only grows), so the runner quarantines the
    // culprit, evacuates the in-flight accumulator onto pristine
    // subarray 1, and re-tiles the remaining k-range at the derated
    // edge — after which the whole product completes bit-exact.
    // Every counter is pinned exactly: one episode (two retries,
    // three rollbacks), one quarantine with one evacuation, one
    // re-tile from 32 to 16, and four journaled slices in all.
    const Shape s = {24, 48, 20};
    const auto a = randomBytes(std::uint64_t(s.n) * s.k, 61);
    const auto b = randomBytes(std::uint64_t(s.k) * s.m, 62);
    const auto want = hostMatmulReference(a, b, s.n, s.k, s.m);

    StreamPimSystem sys(noSpareParams());
    preWearSubarray(sys, 0);
    sys.enableFaultInjection(wearOutFaults());
    TiledMatmulConfig cfg;
    cfg.recovery.enabled = true;
    TiledMatmulStats st;
    const auto c = runTiledMatmul(sys, a, b, s.n, s.k, s.m, cfg, &st);
    sys.disableFaultInjection();

    EXPECT_EQ(c, want) << "recovered run must stay bit-exact";
    EXPECT_EQ(st.recovery.batches, 4u);
    EXPECT_EQ(st.recovery.snapshots, 28u);
    EXPECT_EQ(st.recovery.snapshotBytes, 2400u);
    EXPECT_EQ(st.recovery.failedVpcs, 1u);
    EXPECT_EQ(st.recovery.rollbacks, 3u);
    EXPECT_EQ(st.recovery.rollbackBytes, 1440u);
    EXPECT_EQ(st.recovery.retries, 2u);
    EXPECT_EQ(st.recovery.rehomes, 1u);
    EXPECT_EQ(st.recovery.replans, 1u);
    EXPECT_EQ(st.recovery.retiles, 1u);
    EXPECT_EQ(st.recovery.recovered, 1u);
    EXPECT_EQ(st.recovery.recoveredByRetry, 0u);
    EXPECT_EQ(st.recovery.recoveredByRehome, 0u);
    EXPECT_EQ(st.recovery.recoveredByReplan, 0u);
    EXPECT_EQ(st.recovery.recoveredByRetile, 1u);
    EXPECT_EQ(st.recovery.unrecoverable, 0u);
    EXPECT_EQ(st.finalTileK, 16u) << "one lost subarray halves the k-edge";
    EXPECT_EQ(st.worstFault, FaultStatus::Failed)
        << "raw fault telemetry stays honest about the transient";
}

TEST(TiledMatmul, RecoveryLadderQuarantinesUntilThePoolIsGone)
{
    // Every compute subarray is pre-worn. Each of the first four
    // tiles fails on its home, quarantines it and (replanBudget 1)
    // fails once more after evacuating onto the next worn survivor:
    // three evacuations derate the k-edge 32 -> 16 -> 8 -> 4, the
    // fourth quarantine finds no survivor, and the last five tiles
    // find the whole compute pool quarantined. All nine tiles are
    // lost, rolled back rather than torn: C keeps its zero bytes.
    RmParams params = noSpareParams();
    params.subarraysPerBank = 3; // four compute subarrays
    const Shape s = {96, 48, 80};
    const auto a = randomBytes(std::uint64_t(s.n) * s.k, 61);
    const auto b = randomBytes(std::uint64_t(s.k) * s.m, 62);

    StreamPimSystem sys(params);
    for (unsigned sub = 0; sub < 4; ++sub)
        preWearSubarray(sys, sub);
    sys.enableFaultInjection(wearOutFaults());
    TiledMatmulConfig cfg;
    cfg.recovery.enabled = true;
    TiledMatmulStats st;
    const auto c = runTiledMatmul(sys, a, b, s.n, s.k, s.m, cfg, &st);
    sys.disableFaultInjection();

    EXPECT_EQ(c, std::vector<std::uint8_t>(c.size(), 0));
    EXPECT_EQ(st.recovery.batches, 7u);
    EXPECT_EQ(st.recovery.snapshots, 7u);
    EXPECT_EQ(st.recovery.snapshotBytes, 6144u);
    EXPECT_EQ(st.recovery.failedVpcs, 9u);
    EXPECT_EQ(st.recovery.rollbacks, 21u);
    EXPECT_EQ(st.recovery.rollbackBytes, 18432u);
    EXPECT_EQ(st.recovery.retries, 14u);
    EXPECT_EQ(st.recovery.rehomes, 3u);
    EXPECT_EQ(st.recovery.replans, 4u);
    EXPECT_EQ(st.recovery.retiles, 3u);
    EXPECT_EQ(st.recovery.recovered, 0u);
    EXPECT_EQ(st.recovery.recoveredByRetry, 0u);
    EXPECT_EQ(st.recovery.recoveredByRehome, 0u);
    EXPECT_EQ(st.recovery.recoveredByReplan, 0u);
    EXPECT_EQ(st.recovery.recoveredByRetile, 0u);
    EXPECT_EQ(st.recovery.unrecoverable, 9u);
    EXPECT_EQ(st.tileTasks, 4u);
    EXPECT_EQ(st.finalTileK, 4u);
    EXPECT_EQ(st.worstFault, FaultStatus::Failed);
}

TEST(TiledMatmul, RecoveryPathByteIdenticalAcrossJobCounts)
{
    // The ladder runs serially after each slice drains and its
    // decisions are pure functions of wear telemetry, so the whole
    // recovered run — result and full device memory — is
    // byte-identical at any engine job count.
    const Shape s = {24, 48, 20};
    const auto a = randomBytes(std::uint64_t(s.n) * s.k, 61);
    const auto b = randomBytes(std::uint64_t(s.k) * s.m, 62);

    std::vector<std::uint8_t> ref_c, ref_mem;
    for (unsigned jobs : {1u, 2u, 8u}) {
        StreamPimSystem sys(noSpareParams());
        preWearSubarray(sys, 0);
        sys.enableFaultInjection(wearOutFaults());
        TiledMatmulConfig cfg;
        cfg.recovery.enabled = true;
        cfg.jobs = jobs;
        TiledMatmulStats st;
        const auto c =
            runTiledMatmul(sys, a, b, s.n, s.k, s.m, cfg, &st);
        sys.disableFaultInjection();
        ASSERT_GT(st.recovery.failedVpcs, 0u);
        const auto mem = sys.read(0, sys.capacityBytes());
        if (jobs == 1) {
            ref_c = c;
            ref_mem = mem;
        } else {
            EXPECT_EQ(c, ref_c) << "jobs " << jobs;
            EXPECT_EQ(mem, ref_mem) << "jobs " << jobs;
        }
    }
}

TEST(TiledMatmul, RecoveryDisabledKeepsBulkDataflow)
{
    // The recovery knob must not perturb the default dataflow: a
    // clean system with recovery disabled produces the same stats
    // shape as before (tileTasks precomputed, finalTileK unset).
    const Shape s = {24, 24, 24};
    const auto a = randomBytes(std::uint64_t(s.n) * s.k, 91);
    const auto b = randomBytes(std::uint64_t(s.k) * s.m, 92);
    StreamPimSystem sys;
    TiledMatmulStats st;
    const auto c = runTiledMatmul(sys, a, b, s.n, s.k, s.m, {}, &st);
    EXPECT_EQ(c, hostMatmulReference(a, b, s.n, s.k, s.m));
    EXPECT_EQ(st.recovery.batches, 0u);
    EXPECT_EQ(st.recovery.failedVpcs, 0u);
    EXPECT_EQ(st.finalTileK, 0u);
}

TEST(TiledMatmul, FaultFreeRecoveryPathIssuesTheBulkStream)
{
    // Both dataflows emit every k-slice through one emitter; without
    // faults the recovery path must issue exactly the bulk stream
    // (only its drain points differ) and produce the same C.
    const Shape shapes[] = {
        {40, 44, 36}, // a remainder tile on every axis
        {64, 64, 64}, // the default benchmark shape
    };
    for (const Shape &s : shapes) {
        const auto a = randomBytes(std::uint64_t(s.n) * s.k, 71);
        const auto b = randomBytes(std::uint64_t(s.k) * s.m, 72);

        StreamPimSystem bulk_sys;
        TiledMatmulStats bulk;
        const auto c_bulk =
            runTiledMatmul(bulk_sys, a, b, s.n, s.k, s.m, {}, &bulk);

        StreamPimSystem rec_sys;
        TiledMatmulConfig cfg;
        cfg.recovery.enabled = true;
        TiledMatmulStats rec;
        const auto c_rec =
            runTiledMatmul(rec_sys, a, b, s.n, s.k, s.m, cfg, &rec);

        EXPECT_EQ(rec.vpcs, bulk.vpcs) << s.n << "x" << s.k;
        EXPECT_EQ(rec.pimVpcs, bulk.pimVpcs) << s.n << "x" << s.k;
        EXPECT_EQ(rec.tileTasks, bulk.tileTasks) << s.n << "x" << s.k;
        EXPECT_EQ(c_rec, c_bulk) << s.n << "x" << s.k;
    }
}

TEST(TiledMatmulDeath, OversizeGeometryIsRejected)
{
    // The functional device (and with it the 64-bit conflict-graph
    // fast path) is capped at 64 subarrays; larger geometries must
    // be rejected up front, not mis-masked.
    RmParams p = smallFunctionalParams();
    p.subarraysPerBank = 40; // 2 banks x 40 = 80 subarrays
    EXPECT_EXIT(
        {
            StreamPimSystem dev(p);
            (void)dev;
        },
        ::testing::ExitedWithCode(1), "functional geometry too large");
}

TEST(TiledMatmulDeath, OperandsBeyondBackingStoreAreRejected)
{
    StreamPimSystem sys;
    const std::uint32_t n = 256, k = 256, m = 256; // 64 KiB each
    const auto a = randomBytes(std::uint64_t(n) * k, 1);
    const auto b = randomBytes(std::uint64_t(k) * m, 2);
    EXPECT_EXIT(runTiledMatmul(sys, a, b, n, k, m),
                ::testing::ExitedWithCode(1), "backing subarray");
}

} // namespace
} // namespace streampim
