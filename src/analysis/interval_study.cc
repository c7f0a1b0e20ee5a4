#include "analysis/interval_study.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/log.h"
#include "tracking/mea.h"

namespace mempod {

namespace {

/** Exact (count desc, id asc) ranking of one interval. */
std::vector<std::uint64_t>
oracleRanking(const std::vector<std::uint64_t> &stream, std::size_t begin,
              std::size_t end)
{
    std::unordered_map<std::uint64_t, std::uint64_t> counts;
    for (std::size_t i = begin; i < end; ++i)
        ++counts[stream[i]];
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranked(
        counts.begin(), counts.end());
    std::sort(ranked.begin(), ranked.end(), [](auto &a, auto &b) {
        if (a.second != b.second)
            return a.second > b.second;
        return a.first < b.first;
    });
    std::vector<std::uint64_t> ids;
    ids.reserve(ranked.size());
    for (auto &[id, cnt] : ranked)
        ids.push_back(id);
    return ids;
}

/** Intersection size between a tier slice and a prediction set. */
std::size_t
tierHits(const std::vector<std::uint64_t> &ranking, std::size_t tier,
         const std::unordered_set<std::uint64_t> &predicted)
{
    const std::size_t begin = tier * 10;
    const std::size_t end = std::min(ranking.size(), begin + 10);
    std::size_t hits = 0;
    for (std::size_t i = begin; i < end; ++i)
        if (predicted.contains(ranking[i]))
            ++hits;
    return hits;
}

} // namespace

std::vector<std::uint64_t>
pageStreamFromSource(TraceSource &source)
{
    source.reset();
    std::vector<std::uint64_t> stream;
    stream.reserve(source.size());
    TraceRecord r;
    while (source.next(r)) {
        stream.push_back((static_cast<std::uint64_t>(r.core) << 48) |
                         (r.coreLocal / kPageBytes));
    }
    source.reset();
    return stream;
}

IntervalStudyResult
runIntervalStudy(const std::vector<std::uint64_t> &page_stream,
                 const IntervalStudyConfig &config)
{
    MEMPOD_ASSERT(config.intervalRequests >= 30,
                  "interval too small for tier analysis");
    IntervalStudyResult res;
    const std::size_t n_intervals =
        page_stream.size() / config.intervalRequests;
    if (n_intervals < 2)
        return res; // need at least one (past, next) pair

    // Oracle rankings for every interval.
    std::vector<std::vector<std::uint64_t>> rankings(n_intervals);
    for (std::size_t i = 0; i < n_intervals; ++i) {
        rankings[i] =
            oracleRanking(page_stream, i * config.intervalRequests,
                          (i + 1) * config.intervalRequests);
    }

    std::array<double, 3> counting{};
    std::array<double, 3> mea_hits{};
    std::array<double, 3> fc_hits{};
    double mea_pred_sizes = 0.0;

    for (std::size_t i = 0; i + 1 < n_intervals; ++i) {
        // Fresh trackers each interval: predictions are derived from
        // the *past interval* only.
        MeaTracker mea(config.meaEntries, config.meaCounterBits, 48);
        const std::size_t begin = i * config.intervalRequests;
        const std::size_t end = begin + config.intervalRequests;
        for (std::size_t k = begin; k < end; ++k)
            mea.touch(page_stream[k]);

        const auto mea_ranked = mea.snapshot();

        // Figure 1: bin-to-bin overlap of MEA's own ranking with the
        // oracle ranking of the same (past) interval.
        for (std::size_t t = 0; t < 3; ++t) {
            std::unordered_set<std::uint64_t> mea_bin;
            const std::size_t b = t * 10;
            for (std::size_t k = b;
                 k < std::min<std::size_t>(b + 10, mea_ranked.size());
                 ++k)
                mea_bin.insert(mea_ranked[k].id);
            counting[t] +=
                static_cast<double>(tierHits(rankings[i], t, mea_bin)) /
                10.0;
        }

        // Figures 2-3: predictions vs. next interval's tiers. MEA
        // predicts everything it tracks; FC gets the same budget.
        std::unordered_set<std::uint64_t> mea_pred;
        for (const auto &e : mea_ranked)
            mea_pred.insert(e.id);
        mea_pred_sizes += static_cast<double>(mea_pred.size());

        std::unordered_set<std::uint64_t> fc_pred;
        for (std::size_t k = 0;
             k < std::min(mea_pred.size(), rankings[i].size()); ++k)
            fc_pred.insert(rankings[i][k]);

        for (std::size_t t = 0; t < 3; ++t) {
            mea_hits[t] += static_cast<double>(
                tierHits(rankings[i + 1], t, mea_pred));
            fc_hits[t] += static_cast<double>(
                tierHits(rankings[i + 1], t, fc_pred));
        }
    }

    const double pairs = static_cast<double>(n_intervals - 1);
    res.intervals = n_intervals - 1;
    for (std::size_t t = 0; t < 3; ++t) {
        res.meaCountingAccuracy[t] = counting[t] / pairs;
        res.meaPredictionHits[t] = mea_hits[t] / pairs;
        res.fcPredictionHits[t] = fc_hits[t] / pairs;
        res.meaPredictionAccuracy[t] = res.meaPredictionHits[t] / 10.0;
        res.fcPredictionAccuracy[t] = res.fcPredictionHits[t] / 10.0;
    }
    res.meaPredictionsPerInterval = mea_pred_sizes / pairs;
    return res;
}

} // namespace mempod
