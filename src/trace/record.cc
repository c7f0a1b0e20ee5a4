#include "trace/record.h"

#include <unordered_set>

namespace mempod {

TraceSummary
summarize(const Trace &trace)
{
    TraceSummary s;
    s.records = trace.size();
    std::unordered_set<std::uint64_t> pages;
    for (const auto &r : trace) {
        if (r.type == AccessType::kWrite)
            ++s.writes;
        else
            ++s.reads;
        pages.insert((static_cast<std::uint64_t>(r.core) << 56) |
                     (r.coreLocal / kPageBytes));
    }
    s.touchedPages = pages.size();
    if (!trace.empty()) {
        s.duration = trace.back().time - trace.front().time;
        if (s.duration > 0) {
            s.requestsPerUs = static_cast<double>(s.records) /
                              (static_cast<double>(s.duration) / 1e6);
        }
    }
    return s;
}

} // namespace mempod
