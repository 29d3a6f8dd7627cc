/**
 * @file
 * Zero-allocation regression harness for the hot path.
 *
 * A separate executable (not part of streampim_tests): it overrides
 * the global operator new/delete to count heap allocations, which
 * would distort the gtest binary. The checks pin the PR's
 * steady-state contracts:
 *
 *  1. BitVec resize churn: shrinking and regrowing within the
 *     largest size ever reached never reallocates.
 *  2. RmProcessor packed fast paths: warm dot-product / smul / add
 *     calls through the Into APIs allocate nothing.
 *  3. StreamPimSystem::processQueueInto: a warm serial (jobs == 1)
 *     drain of a same-shaped VPC batch allocates nothing — across
 *     the decoder, staging arena, segmented bus, mats and
 *     processor.
 *
 * Exit code 0 when every check holds; prints the failing counter
 * otherwise.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "common/bitvec.hh"
#include "core/stream_pim.hh"
#include "dwlogic/mode.hh"
#include "processor/rm_processor.hh"

namespace
{

std::uint64_t g_allocs = 0;
std::uint64_t g_bytes = 0;

} // namespace

void *
operator new(std::size_t n)
{
    g_allocs++;
    g_bytes += n;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace streampim;

int g_failures = 0;

#define CHECK_ZERO_ALLOCS(what, expr)                                 \
    do {                                                              \
        const std::uint64_t before = g_allocs;                        \
        expr;                                                         \
        const std::uint64_t after = g_allocs;                         \
        if (after != before) {                                        \
            std::printf("FAIL %s: %llu allocations (expected 0)\n",   \
                        what,                                         \
                        (unsigned long long)(after - before));        \
            g_failures++;                                             \
        } else {                                                      \
            std::printf("ok   %s: 0 allocations\n", what);            \
        }                                                             \
    } while (0)

void
checkBitVecResizeChurn()
{
    // Reach the high-water mark once, then churn: no reallocation.
    BitVec v(1024);
    for (unsigned i = 0; i < 1024; i += 7)
        v.set(i, true);
    CHECK_ZERO_ALLOCS("bitvec resize churn", {
        for (int round = 0; round < 100; ++round) {
            v.resize(8);
            v.resize(777);
            v.resize(1024);
            v.resize(64);
            v.resize(1024);
        }
    });
}

void
checkProcessorFastPaths()
{
    RmParams params;
    EnergyMeter meter;
    RmProcessor proc(params, meter);
    std::uint8_t a[64], b[64];
    for (unsigned i = 0; i < 64; ++i) {
        a[i] = std::uint8_t(i * 37 + 11);
        b[i] = std::uint8_t(i * 101 + 3);
    }
    ProcessorResult res;
    // Warm-up: grows the result buffers to their steady size.
    proc.dotProductInto(a, b, res);
    proc.scalarVectorMulInto(7, a, res);
    proc.vectorAddInto(a, b, res);

    CHECK_ZERO_ALLOCS("processor fast paths", {
        for (int round = 0; round < 50; ++round) {
            proc.dotProductInto(a, b, res);
            proc.scalarVectorMulInto(7, a, res);
            proc.vectorAddInto(a, b, res);
        }
    });
}

void
checkProcessQueueSteadyState()
{
    StreamPimSystem sys;
    const std::uint64_t per = sys.params().bytesPerSubarray();

    std::uint8_t data[64];
    for (unsigned i = 0; i < 64; ++i)
        data[i] = std::uint8_t(i + 1);
    sys.write(0, data);
    sys.write(64, data);
    sys.write(per, data); // remote operand for the cross-subarray VPC

    auto submitBatch = [&] {
        // Local dot product, local add, cross-subarray smul with a
        // remote destination, and a TRAN — the full executeOne
        // surface.
        sys.submit({VpcKind::Mul, 0, 64, 128, 64});
        sys.submit({VpcKind::Add, 0, 64, 192, 64});
        sys.submit({VpcKind::Smul, 0, per, per + 128, 64});
        sys.submit({VpcKind::Tran, 0, 0, per + 512, 64});
    };

    std::vector<VpcExecutionRecord> records;
    // Warm-up: grows every scratch buffer, arena and ring to its
    // steady-state high-water mark.
    for (int i = 0; i < 3; ++i) {
        submitBatch();
        sys.processQueueInto(records, 1);
    }

    CHECK_ZERO_ALLOCS("processQueue steady state", {
        for (int round = 0; round < 20; ++round) {
            submitBatch();
            sys.processQueueInto(records, 1);
        }
    });
}

} // namespace

int
main()
{
    // The zero-allocation contract covers the packed fast path only;
    // the strict gate netlist allocates freely by design. Pin packed
    // mode so the check stays meaningful under a CI-wide
    // STREAMPIM_STRICT_GATES=1 run.
    ScopedStrictGates packed(false);

    checkBitVecResizeChurn();
    checkProcessorFastPaths();
    checkProcessQueueSteadyState();

    if (g_failures == 0)
        std::printf("all zero-allocation checks passed\n");
    return g_failures == 0 ? 0 : 1;
}
