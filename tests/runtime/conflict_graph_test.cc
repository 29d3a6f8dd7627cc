#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runtime/conflict_graph.hh"

using namespace streampim;

namespace
{

std::uint64_t
bit(unsigned i)
{
    return std::uint64_t(1) << i;
}

/** Task @p i's successor list, copied for comparison. */
std::vector<std::uint32_t>
succs(const ConflictGraph &g, std::size_t i)
{
    const auto s = g.successors(i);
    return {s.begin(), s.end()};
}

} // namespace

TEST(ConflictGraph, EmptyStream)
{
    ConflictGraph g(std::vector<std::uint64_t>{});
    EXPECT_EQ(g.size(), 0u);
    EXPECT_TRUE(g.roots().empty());
    EXPECT_EQ(g.edges(), 0u);
}

TEST(ConflictGraph, DisjointMasksAreAllRoots)
{
    const std::vector<std::uint64_t> masks = {bit(0), bit(1), bit(2),
                                              bit(3)};
    ConflictGraph g(masks);
    EXPECT_EQ(g.edges(), 0u);
    EXPECT_EQ(g.roots(),
              (std::vector<std::uint32_t>{0, 1, 2, 3}));
    for (std::size_t i = 0; i < masks.size(); ++i) {
        EXPECT_EQ(g.predecessors(i), 0u);
        EXPECT_TRUE(g.successors(i).empty());
    }
}

TEST(ConflictGraph, SameResourceChainsInStreamOrder)
{
    const std::vector<std::uint64_t> masks = {bit(2), bit(2),
                                              bit(2)};
    ConflictGraph g(masks);
    EXPECT_EQ(g.roots(), (std::vector<std::uint32_t>{0}));
    EXPECT_EQ(succs(g, 0), (std::vector<std::uint32_t>{1}));
    EXPECT_EQ(succs(g, 1), (std::vector<std::uint32_t>{2}));
    EXPECT_TRUE(g.successors(2).empty());
    EXPECT_EQ(g.predecessors(1), 1u);
    EXPECT_EQ(g.predecessors(2), 1u);
    EXPECT_EQ(g.edges(), 2u);
}

TEST(ConflictGraph, TranStyleMaskFormsDiamond)
{
    // 0 and 1 touch disjoint subarrays; 2 (a TRAN 0->1) touches
    // both; 3 touches only subarray 1 and must wait for the TRAN.
    const std::vector<std::uint64_t> masks = {
        bit(0), bit(1), bit(0) | bit(1), bit(1)};
    ConflictGraph g(masks);
    EXPECT_EQ(g.roots(), (std::vector<std::uint32_t>{0, 1}));
    EXPECT_EQ(succs(g, 0), (std::vector<std::uint32_t>{2}));
    EXPECT_EQ(succs(g, 1), (std::vector<std::uint32_t>{2}));
    EXPECT_EQ(g.predecessors(2), 2u);
    EXPECT_EQ(succs(g, 2), (std::vector<std::uint32_t>{3}));
    EXPECT_EQ(g.predecessors(3), 1u);
    EXPECT_EQ(g.edges(), 3u);
}

TEST(ConflictGraph, SharedPredecessorCountedOnce)
{
    // Task 1 overlaps task 0 on two resources: one edge, not two.
    const std::vector<std::uint64_t> masks = {bit(0) | bit(1),
                                              bit(0) | bit(1)};
    ConflictGraph g(masks);
    EXPECT_EQ(g.predecessors(1), 1u);
    EXPECT_EQ(succs(g, 0), (std::vector<std::uint32_t>{1}));
    EXPECT_EQ(g.edges(), 1u);
}

TEST(ConflictGraph, DependsOnLatestUserOnly)
{
    // 0 and 1 both touch bit 0; 2 touches bit 0 and must depend on
    // 1 (the latest user), not on 0.
    const std::vector<std::uint64_t> masks = {bit(0), bit(0),
                                              bit(0)};
    ConflictGraph g(masks);
    EXPECT_EQ(succs(g, 0), (std::vector<std::uint32_t>{1}));
    EXPECT_EQ(succs(g, 1), (std::vector<std::uint32_t>{2}));
}

TEST(ConflictGraph, BarrierMaskSerializesEverything)
{
    // An all-ones mask in the middle orders against every earlier
    // task and every later task — a host read/write barrier.
    const std::vector<std::uint64_t> masks = {
        bit(0), bit(5), ~std::uint64_t(0), bit(0), bit(63)};
    ConflictGraph g(masks);
    EXPECT_EQ(g.roots(), (std::vector<std::uint32_t>{0, 1}));
    EXPECT_EQ(g.predecessors(2), 2u);
    EXPECT_EQ(succs(g, 2),
              (std::vector<std::uint32_t>{3, 4}));
    EXPECT_EQ(g.predecessors(3), 1u);
    EXPECT_EQ(g.predecessors(4), 1u);
}

TEST(ConflictGraph, WideMasksTrackResourcesPastSixtyFour)
{
    // 3 words per task = up to 192 resources. Tasks 0 and 1 touch
    // resources 65 and 130 — both beyond what a single 64-bit mask
    // can express; task 2 touches both and must depend on each.
    auto task = [](unsigned r) {
        std::vector<std::uint64_t> w(3, 0);
        w[r / 64] = bit(r % 64);
        return w;
    };
    std::vector<std::uint64_t> words;
    for (const auto &t : {task(65), task(130)})
        words.insert(words.end(), t.begin(), t.end());
    words.insert(words.end(), {0, bit(1), bit(2)}); // 65 and 130

    ConflictGraph g(words, 3);
    ASSERT_EQ(g.size(), 3u);
    EXPECT_EQ(g.roots(), (std::vector<std::uint32_t>{0, 1}));
    EXPECT_EQ(g.predecessors(2), 2u);
    EXPECT_EQ(succs(g, 0), (std::vector<std::uint32_t>{2}));
    EXPECT_EQ(succs(g, 1), (std::vector<std::uint32_t>{2}));
}

TEST(ConflictGraph, WideMasksSeparateSameBitDifferentWord)
{
    // Bit 3 of word 0 (resource 3) and bit 3 of word 1 (resource
    // 67) are distinct resources: no dependency between their
    // users. A buggy cap-at-64 fold would alias them.
    const std::vector<std::uint64_t> words = {
        bit(3), 0, // task 0: resource 3
        0, bit(3), // task 1: resource 67
        bit(3), 0, // task 2: resource 3 again
    };
    ConflictGraph g(words, 2);
    ASSERT_EQ(g.size(), 3u);
    EXPECT_EQ(g.roots(), (std::vector<std::uint32_t>{0, 1}));
    EXPECT_EQ(g.predecessors(2), 1u);
    EXPECT_EQ(succs(g, 0), (std::vector<std::uint32_t>{2}));
    EXPECT_TRUE(g.successors(1).empty());
}

TEST(ConflictGraph, WideAndNarrowAgreeAtOneWordPerTask)
{
    const std::vector<std::uint64_t> masks = {
        bit(0) | bit(1), bit(1) | bit(2), bit(0), bit(2) | bit(3),
        ~std::uint64_t(0), bit(63)};
    ConflictGraph narrow(masks);
    ConflictGraph wide(masks, 1);
    ASSERT_EQ(narrow.size(), wide.size());
    EXPECT_EQ(narrow.edges(), wide.edges());
    EXPECT_EQ(narrow.roots(), wide.roots());
    for (std::size_t i = 0; i < masks.size(); ++i) {
        EXPECT_EQ(narrow.predecessors(i), wide.predecessors(i));
        EXPECT_EQ(succs(narrow, i), succs(wide, i));
    }
}

TEST(ConflictGraph, ChainAcrossSixtyFivePlusResources)
{
    // 65+ single-resource tasks, each on its own resource: all
    // roots, no edges — then one full-mask task serializes against
    // every live resource user.
    const std::size_t words_per = 2; // 128 resources
    std::vector<std::uint64_t> words;
    const unsigned resources = 70;
    for (unsigned r = 0; r < resources; ++r) {
        std::vector<std::uint64_t> w(words_per, 0);
        w[r / 64] = bit(r % 64);
        words.insert(words.end(), w.begin(), w.end());
    }
    words.insert(words.end(),
                 {~std::uint64_t(0), ~std::uint64_t(0)});
    ConflictGraph g(words, words_per);
    ASSERT_EQ(g.size(), resources + 1);
    EXPECT_EQ(g.roots().size(), resources);
    EXPECT_EQ(g.predecessors(resources), resources);
    EXPECT_EQ(g.edges(), resources);
}

TEST(ConflictGraph, SubmitOrderIsATopologicalOrder)
{
    // Every edge must point forward in stream order.
    const std::vector<std::uint64_t> masks = {
        bit(0) | bit(1), bit(1) | bit(2), bit(0), bit(2) | bit(3),
        bit(3), bit(1), ~std::uint64_t(0), bit(4)};
    ConflictGraph g(masks);
    for (std::size_t i = 0; i < masks.size(); ++i)
        for (std::uint32_t s : g.successors(i))
            EXPECT_GT(s, i);
    // Edge/predecessor accounting is consistent.
    std::uint64_t pred_total = 0, succ_total = 0;
    for (std::size_t i = 0; i < masks.size(); ++i) {
        pred_total += g.predecessors(i);
        succ_total += g.successors(i).size();
    }
    EXPECT_EQ(pred_total, g.edges());
    EXPECT_EQ(succ_total, g.edges());
}

TEST(ConflictGraph, RebuildInPlaceMatchesAFreshGraph)
{
    // The engine rebuilds one graph per round: a rebuild must leave
    // nothing of the previous, larger stream behind.
    const std::vector<std::uint64_t> big = {
        bit(0) | bit(1), bit(1), bit(0), bit(2), ~std::uint64_t(0),
        bit(3), bit(3) | bit(4), bit(0)};
    const std::vector<std::uint64_t> small = {bit(1), bit(2),
                                              bit(1) | bit(2)};
    ConflictGraph g(big);
    for (const auto *masks : {&small, &big}) {
        g.build(*masks);
        const ConflictGraph fresh(*masks);
        ASSERT_EQ(g.size(), fresh.size());
        EXPECT_EQ(g.edges(), fresh.edges());
        EXPECT_EQ(g.roots(), fresh.roots());
        for (std::size_t i = 0; i < masks->size(); ++i) {
            EXPECT_EQ(g.predecessors(i), fresh.predecessors(i));
            EXPECT_EQ(succs(g, i), succs(fresh, i));
        }
    }
    EXPECT_EQ(g.successors(4).size(), 3u); // the barrier in `big`
}
