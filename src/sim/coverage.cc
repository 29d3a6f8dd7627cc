#include "sim/coverage.hh"

#include <iterator>

namespace streampim
{

namespace
{

/** Components searched from the end before a run counts as late. */
constexpr std::size_t kTailWindow = 256;

/** Late runs always tolerated before a merge. */
constexpr std::size_t kMinLateMerge = 4096;

} // namespace

void
CoverageUnion::reset(std::size_t resources)
{
    for (Category &cat : cats_) {
        cat.open.assign(resources, Run{});
        cat.merged.clear();
        cat.late.clear();
        cat.recent = 0;
        cat.finger = 0;
    }
}

void
CoverageUnion::Category::reopen(std::size_t resource, Tick start,
                                Tick end)
{
    Run &run = open[resource];
    if (run.end > run.start) {
        // When the open run extended last covers the closing run,
        // close the stretch up to that run's end instead. It is
        // covered too (every tick of an open run is, and the run is
        // inserted whole once it closes), so the union stays exact,
        // and it bridges the closing run to everything else inside
        // the covering run. Otherwise a resource that idles between
        // spans while another stays busy adds one component per
        // span.
        const Run &cover = open[recent];
        const bool covered =
            cover.start <= run.start && run.end <= cover.end;
        insert(run.start, covered ? cover.end : run.end);
    }
    run = {start, end};
}

void
CoverageUnion::Category::insert(Tick start, Tick end)
{
    if (inFinger(start, end))
        return;
    // The first component whose end reaches start is the one the run
    // touches or precedes; components before it end before start.
    // Components that touch merge, so the set stays disjoint with
    // gaps between neighbours.
    const auto last = merged.end();
    const auto window = merged.size() > kTailWindow
        ? last - std::ptrdiff_t(kTailWindow)
        : merged.begin();
    if (window != merged.begin() && std::prev(window)->end >= start) {
        late.push_back({start, end});
        if (late.size() >= std::max(kMinLateMerge, merged.size() / 2))
            mergeLate();
        return;
    }
    auto cur = std::lower_bound(
        window, last, start,
        [](const Run &r, Tick t) { return r.end < t; });
    finger = std::size_t(cur - merged.begin());
    if (cur == last || cur->start > end) {
        merged.insert(cur, {start, end});
        return;
    }
    cur->start = std::min(cur->start, start);
    Tick reach = std::max(cur->end, end);
    auto next = std::next(cur);
    while (next != last && next->start <= reach)
        reach = std::max(reach, (next++)->end);
    cur->end = reach;
    merged.erase(std::next(cur), next);
}

void
CoverageUnion::Category::mergeLate()
{
    if (late.empty())
        return;
    auto by_start = [](const Run &a, const Run &b) {
        return a.start < b.start;
    };
    std::sort(late.begin(), late.end(), by_start);
    const auto mid = std::ptrdiff_t(merged.size());
    merged.insert(merged.end(), late.begin(), late.end());
    std::inplace_merge(merged.begin(), merged.begin() + mid,
                       merged.end(), by_start);
    late.clear();

    // Coalesce in place: each run either extends the last kept
    // component or starts a new one.
    auto kept = merged.begin();
    for (auto r = std::next(kept); r != merged.end(); ++r) {
        if (r->start <= kept->end)
            kept->end = std::max(kept->end, r->end);
        else
            *++kept = *r;
    }
    merged.erase(std::next(kept), merged.end());
}

Coverage
CoverageUnion::finish()
{
    for (Category &cat : cats_) {
        for (Run &run : cat.open) {
            if (run.end > run.start)
                cat.insert(run.start, run.end);
            run = Run{};
        }
        cat.mergeLate();
    }

    Coverage cov;
    const auto &xfer = cats_[std::size_t(CoverageKind::Transfer)].merged;
    const auto &proc = cats_[std::size_t(CoverageKind::Process)].merged;
    for (const Run &r : xfer)
        cov.transfer += r.end - r.start;
    for (const Run &r : proc)
        cov.process += r.end - r.start;

    // Both lists are sorted and disjoint: one merge pass yields the
    // length of their union.
    auto x = xfer.begin();
    auto p = proc.begin();
    Tick cur_start = 0;
    Tick cur_end = 0;
    bool open = false;
    while (x != xfer.end() || p != proc.end()) {
        const bool take_x =
            p == proc.end() || (x != xfer.end() && x->start < p->start);
        const Run &r = take_x ? *x++ : *p++;
        if (!open) {
            cur_start = r.start;
            cur_end = r.end;
            open = true;
        } else if (r.start <= cur_end) {
            cur_end = std::max(cur_end, r.end);
        } else {
            cov.either += cur_end - cur_start;
            cur_start = r.start;
            cur_end = r.end;
        }
    }
    if (open)
        cov.either += cur_end - cur_start;
    return cov;
}

} // namespace streampim
