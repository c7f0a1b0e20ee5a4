#include "analysis/footprint.h"

#include <algorithm>

#include "common/flat_map.h"
#include "common/log.h"

namespace mempod {

namespace {

std::uint64_t
pageKey(const TraceRecord &r)
{
    return (static_cast<std::uint64_t>(r.core) << 48) |
           (r.coreLocal / kPageBytes);
}

} // namespace

double
FootprintStats::meanWindowWorkingSet() const
{
    if (workingSetPerWindow.empty())
        return 0.0;
    double sum = 0;
    for (auto v : workingSetPerWindow)
        sum += static_cast<double>(v);
    return sum / static_cast<double>(workingSetPerWindow.size());
}

FootprintStats
analyzeFootprint(TraceSource &source, std::uint64_t window_requests)
{
    MEMPOD_ASSERT(window_requests > 0, "empty analysis window");
    FootprintStats out;
    out.windowRequests = window_requests;

    FlatMap<std::uint64_t> counts; // (core, page) -> accesses
    FlatSet window;
    std::uint64_t in_window = 0;
    source.reset();
    TraceRecord r;
    while (source.next(r)) {
        ++out.totalAccesses;
        ++out.perCoreAccesses[r.core];
        ++counts[pageKey(r)];
        window.insert(pageKey(r));
        if (++in_window == window_requests) {
            out.workingSetPerWindow.push_back(window.size());
            window.clear();
            in_window = 0;
        }
    }
    source.reset();
    if (out.totalAccesses == 0)
        return out;
    out.distinctPages = counts.size();

    // Sort access counts descending for the concentration curve.
    std::vector<std::uint64_t> sorted;
    sorted.reserve(counts.size());
    std::uint64_t single = 0;
    counts.forEach([&](std::uint64_t, std::uint64_t c) {
        sorted.push_back(c);
        if (c == 1)
            ++single;
    });
    std::sort(sorted.rbegin(), sorted.rend());
    out.singleTouchFraction =
        static_cast<double>(single) / static_cast<double>(counts.size());

    const double total = static_cast<double>(out.totalAccesses);
    out.concentration.assign(5, 0.0);
    double cum = 0;
    std::size_t idx = 0;
    for (std::size_t b = 0; b < 5; ++b) {
        const std::uint64_t limit = kConcentrationBuckets[b];
        while (idx < sorted.size() && idx < limit)
            cum += static_cast<double>(sorted[idx++]);
        out.concentration[b] = cum / total;
    }

    // Gini-style skew over the sorted counts.
    double weighted = 0;
    double mass = 0;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        weighted += static_cast<double>(sorted[i]) *
                    static_cast<double>(i + 1);
        mass += static_cast<double>(sorted[i]);
    }
    const double n = static_cast<double>(sorted.size());
    if (n > 1 && mass > 0) {
        // For counts sorted descending, Gini = (n + 1 - 2*weighted/mass)/n.
        out.skewIndex =
            std::max(0.0, (n + 1.0 - 2.0 * weighted / mass) / n);
    }
    return out;
}

} // namespace mempod
