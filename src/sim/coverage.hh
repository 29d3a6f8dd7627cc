/**
 * @file
 * Exact wall-clock coverage of busy spans in two categories.
 *
 * The timed executor's Fig. 19 view asks how much of the makespan is
 * covered by data transfer, by processing, by both, or by neither.
 * CoverageUnion answers exactly without storing one record per span:
 * every span lies inside a FIFO TickResource grant on its resource,
 * so each resource's spans of one category arrive in start order and
 * coalesce into an open run that only grows at its end. A run that a
 * later span cannot touch is closed into a sorted vector of disjoint
 * components for its category; memory is O(resources + components),
 * not O(spans).
 *
 * A span that starts past its run's end still extends the run when
 * the gap between them is already covered: by the component the last
 * insert touched (the finger) or by the open run extended last. The
 * union stays exact because the gap's ticks are in it anyway:
 * components only grow, and an open run is inserted whole when it
 * closes. Bridging keeps a resource that idles inside busy time from
 * closing one run per span.
 *
 * Runs close in near time order, so almost every closed run lands
 * among the last few components: a run inside the finger is dropped
 * at once, and a binary search over the tail and an in-place merge
 * there keep the rest in cache, with no per-run allocation. A run
 * that lands further back waits in a late buffer that is sorted and
 * merged into the components in one linear pass once it holds about
 * half as many runs as there are components, so any arrival order
 * costs O(log) per run amortized.
 */

#ifndef STREAMPIM_SIM_COVERAGE_HH_
#define STREAMPIM_SIM_COVERAGE_HH_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace streampim
{

/** The two span categories of the coverage view. */
enum class CoverageKind : std::uint8_t
{
    Transfer,
    Process,
};

/** Union lengths of the spans seen by a CoverageUnion. */
struct Coverage
{
    Tick transfer = 0; //!< covered by at least one transfer span
    Tick process = 0;  //!< covered by at least one process span
    Tick either = 0;   //!< covered by a span of either category
};

/** Incremental union of per-resource FIFO span streams. */
class CoverageUnion
{
  public:
    /** Forget every span and track @p resources resources. */
    void reset(std::size_t resources);

    /**
     * Add the span [@p start, @p end) of @p kind on @p resource.
     * Empty spans are ignored. Spans of one kind on one resource must
     * arrive in start order (what FIFO grants give); spans on
     * different resources may arrive in any order.
     */
    void
    add(CoverageKind kind, std::size_t resource, Tick start, Tick end)
    {
        if (end <= start)
            return;
        Category &cat = cats_[std::size_t(kind)];
        Run &run = cat.open[resource];
        SPIM_ASSERT(start >= run.start, "span at ", start,
                    " starts before resource ", resource,
                    "'s open run at ", run.start);
        if (start <= run.end || cat.covers(run.end, start))
            run.end = std::max(run.end, end);
        else
            cat.reopen(resource, start, end);
        cat.recent = resource;
    }

    /**
     * Close every open run and return the union lengths. Call once
     * after the last add(); reset() before reuse.
     */
    Coverage finish();

    /**
     * Disjoint components of @p kind merged so far. Exact after
     * finish(); before it, late runs not yet merged are not counted.
     */
    std::size_t
    components(CoverageKind kind) const
    {
        return cats_[std::size_t(kind)].merged.size();
    }

  private:
    struct Run
    {
        Tick start = 0;
        Tick end = 0;
    };

    struct Category
    {
        std::vector<Run> open;    //!< one run per resource
        std::vector<Run> merged;  //!< disjoint, gapped, by start
        std::vector<Run> late;    //!< closed runs awaiting a merge
        std::size_t recent = 0;   //!< resource extended last
        /**
         * Index of the component the last insert touched. Any index
         * below merged.size() names a component of the union, so one
         * made stale by a late merge costs hits, never exactness.
         */
        std::size_t finger = 0;

        /** Whether the finger component holds [@p from, @p to). */
        bool
        inFinger(Tick from, Tick to) const
        {
            return finger < merged.size() &&
                   merged[finger].start <= from && to <= merged[finger].end;
        }

        /**
         * Whether [@p from, @p to) is already covered, as far as the
         * finger component or the open run extended last can tell.
         */
        bool
        covers(Tick from, Tick to) const
        {
            const Run &o = open[recent];
            return inFinger(from, to) || (o.start <= from && to <= o.end);
        }

        /**
         * Close @p resource's open run into the disjoint set and open
         * [@p start, @p end) in its place.
         */
        void reopen(std::size_t resource, Tick start, Tick end);

        /** Union [start, end) into the disjoint set. */
        void insert(Tick start, Tick end);

        /** Merge every late run into the disjoint set. */
        void mergeLate();
    };

    std::array<Category, 2> cats_;
};

} // namespace streampim

#endif // STREAMPIM_SIM_COVERAGE_HH_
