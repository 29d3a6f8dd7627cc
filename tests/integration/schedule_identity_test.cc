/**
 * @file
 * Plan identity gate: the planner's output for the paper workloads,
 * descriptor for descriptor, is pinned by an FNV-1a digest of every
 * field of every run descriptor plus the per-op result batches. A
 * planner change that only changes how the plan is built (not what
 * it is) must leave every digest unchanged; ScheduleCompression only
 * caps the descriptor counts.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/planner.hh"
#include "workloads/dnn.hh"
#include "workloads/polybench.hh"

namespace streampim
{
namespace
{

/** FNV-1a, 64-bit, fed one little-endian integer at a time. */
class Fnv1a
{
  public:
    void
    add(std::uint64_t v, unsigned bytes)
    {
        for (unsigned i = 0; i < bytes; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t
planDigest(const VpcSchedule &s)
{
    Fnv1a h;
    h.add(s.batches.size(), 8);
    for (const VpcBatch &b : s.batches) {
        h.add(std::uint64_t(b.kind), 1);
        h.add(b.subarray, 4);
        h.add(b.dstSubarray, 4);
        h.add(b.vpcCount, 4);
        h.add(b.vectorLen, 4);
        h.add(b.depA, 4);
        h.add(b.depB, 4);
        h.add(b.barrier, 1);
        h.add(b.recovery, 1);
        h.add(b.repeat, 4);
        h.add(std::uint32_t(b.subarrayStep), 4);
        h.add(std::uint32_t(b.dstSubarrayStep), 4);
        h.add(std::uint32_t(b.depAStep), 4);
        h.add(std::uint32_t(b.depBStep), 4);
        h.add(b.first, 4);
    }
    h.add(s.opResultBatch.size(), 8);
    for (std::uint32_t r : s.opResultBatch)
        h.add(r, 4);
    return h.value();
}

/** fig21's 32-subarray point: 8 PIM banks, capacity held. */
SystemConfig
narrowConfig()
{
    SystemConfig cfg = SystemConfig::paperDefault();
    cfg.rm.subarraysPerBank = 32 / cfg.rm.pimBanks;
    cfg.rm.matsPerSubarray = 16 * 64 / cfg.rm.subarraysPerBank;
    return cfg;
}

SystemConfig
levelConfig(OptLevel level)
{
    SystemConfig cfg = SystemConfig::paperDefault();
    cfg.optLevel = level;
    return cfg;
}

struct PinnedPlan
{
    std::string name;
    TaskGraph (*build)();
    /** Digests under Base, Distribute, Unblock and fig21's 32. */
    std::uint64_t digest[4];
};

TaskGraph
bert2()
{
    BertConfig cfg;
    cfg.layers = 2;
    return makeBert(cfg);
}

TaskGraph mlp() { return makeMlp(MlpConfig{}); }

template <PolybenchKernel K, unsigned Dim>
TaskGraph
poly()
{
    return makePolybench(K, Dim);
}

const std::vector<PinnedPlan> &
pinnedPlans()
{
    using K = PolybenchKernel;
    static const std::vector<PinnedPlan> plans = {
        {"bert2", bert2,
         {0xffd4ec1f76dc542eull, 0x2ce9ccc9099cc4d8ull,
          0xcef7ddbb04de716bull, 0x6972413ebca961afull}},
        {"mlp", mlp,
         {0xf0ea84c8196d3e56ull, 0x3b830328a134d4b9ull,
          0x03012ce9ad56a511ull, 0xe7ee76ec63e17f03ull}},
        {"2mm_256", poly<K::TwoMm, 256>,
         {0xabdcb324fa9ff572ull, 0x894a0fea38a1fab5ull,
          0x2a25ec264380d9fdull, 0xe102c050cfe0a95full}},
        {"3mm_256", poly<K::ThreeMm, 256>,
         {0xcd299cfa5be54b46ull, 0x9860948ad39358e9ull,
          0x1646f20de8f2f953ull, 0x6b358bb0667388bfull}},
        {"gemm_256", poly<K::Gemm, 256>,
         {0x61bfee05edf529d7ull, 0x64a5306a99f2ff65ull,
          0x41ae880b1cf4c3efull, 0x0f5682911d033462ull}},
        {"syrk_256", poly<K::Syrk, 256>,
         {0xb6935788de959b1eull, 0x5923592fabd3ef63ull,
          0xd3960fd2c0db5854ull, 0xb5649e4913c21679ull}},
        {"syr2k_256", poly<K::Syr2k, 256>,
         {0x7e693ddaba22971bull, 0xc5fb18aca0b7eeadull,
          0x4fe007080dc66967ull, 0xe09bd92b0fd0b3afull}},
        {"atax_256", poly<K::Atax, 256>,
         {0x1fe3c79e96b8ddf8ull, 0xc23a85494e7a7602ull,
          0xc8ae88c457af0ef1ull, 0x32e3d9cff1165546ull}},
        {"bicg_256", poly<K::Bicg, 256>,
         {0x00e3c9c6260711f3ull, 0x68cd863ab5cd618dull,
          0x3a92de7992a4dbe4ull, 0xde743c748e57c709ull}},
        {"gesummv_256", poly<K::Gesummv, 256>,
         {0x341d168e4fa0e882ull, 0xd32385d35ea6fa2eull,
          0x974719db91b39e31ull, 0xac754db0ac5f83edull}},
        {"mvt_256", poly<K::Mvt, 256>,
         {0xf5014c2bf240f2baull, 0x3a2c16e63387ec15ull,
          0xb05533b368047bcdull, 0xcd019de55c697135ull}},
        {"gemm_2000", poly<K::Gemm, 2000>,
         {0x5f7593be1948826aull, 0xeb353c9b618e4371ull,
          0x5d860937547b1095ull, 0xa2fce193a4b016a9ull}},
        {"2mm_2000", poly<K::TwoMm, 2000>,
         {0x24df4164a6ff2712ull, 0x8001149fa17cffcbull,
          0x372cb580f315fc28ull, 0x53ebb2c70c7be62aull}},
    };
    return plans;
}

class ScheduleIdentity : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(ScheduleIdentity, PlanMatchesPinnedDigest)
{
    const PinnedPlan &p = pinnedPlans()[GetParam()];
    const TaskGraph g = p.build();
    const SystemConfig cfgs[4] = {levelConfig(OptLevel::Base),
                                  levelConfig(OptLevel::Distribute),
                                  levelConfig(OptLevel::Unblock),
                                  narrowConfig()};
    const char *names[4] = {"base", "distribute", "unblock",
                            "32 subarrays"};
    for (int c = 0; c < 4; ++c) {
        const VpcSchedule s = Planner(cfgs[c]).plan(g);
        EXPECT_EQ(planDigest(s), p.digest[c])
            << p.name << " " << names[c] << ": " << s.batches.size()
            << " descriptors, " << s.batchCount() << " batches";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Plans, ScheduleIdentity,
    ::testing::Range<std::size_t>(0, pinnedPlans().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        std::string name = pinnedPlans()[info.param].name;
        // gtest names are identifiers: "2mm_256" -> "k2mm_256".
        return name[0] >= '0' && name[0] <= '9' ? "k" + name : name;
    });

} // namespace
} // namespace streampim
