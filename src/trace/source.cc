#include "trace/source.h"

#include <cmath>

#include "common/flat_map.h"
#include "common/log.h"

namespace mempod {

bool
ScaledTraceSource::next(TraceRecord &out)
{
    if (!inner_->next(out))
        return false;
    const double scaled = static_cast<double>(out.time) * scale_;
    // llround's range ends at 2^63; the negated test also catches NaN.
    if (!(scaled < 0x1p63)) {
        MEMPOD_FATAL("trace '%s': record %llu at %llu ps times time "
                     "scale %g overflows the 64-bit picosecond clock",
                     name_.c_str(),
                     static_cast<unsigned long long>(index_),
                     static_cast<unsigned long long>(out.time), scale_);
    }
    out.time = static_cast<TimePs>(std::llround(scaled));
    ++index_;
    return true;
}

Trace
materialize(TraceSource &source)
{
    source.reset();
    Trace out;
    out.reserve(source.size());
    TraceRecord r;
    while (source.next(r))
        out.push_back(r);
    return out;
}

TraceSummary
summarize(TraceSource &source)
{
    source.reset();
    TraceSummary s;
    FlatSet pages;
    TraceRecord r;
    TimePs first = 0, last = 0;
    while (source.next(r)) {
        if (s.records == 0)
            first = r.time;
        last = r.time;
        ++s.records;
        if (r.type == AccessType::kWrite)
            ++s.writes;
        else
            ++s.reads;
        pages.insert((static_cast<std::uint64_t>(r.core) << 56) |
                     (r.coreLocal / kPageBytes));
    }
    s.touchedPages = pages.size();
    if (s.records > 0) {
        s.duration = last - first;
        if (s.duration > 0) {
            s.requestsPerUs = static_cast<double>(s.records) /
                              (static_cast<double>(s.duration) / 1e6);
        }
    }
    source.reset();
    return s;
}

} // namespace mempod
