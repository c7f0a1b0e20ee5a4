/**
 * @file
 * DecisionLog implementation: append-only record list plus one small
 * open-addressed table of migrated-in pages, which holds both the
 * realized-hits watch and the ping-pong window of each, retired by one
 * deadline-ordered expiry queue.
 */
#include "common/decision_log.h"

#include "common/log.h"

namespace mempod {

DecisionLog::DecisionLog(TimePs epochPs, double benefitPerTouchNs)
    : epochPs_(epochPs), benefitPerTouchNs_(benefitPerTouchNs)
{
    MEMPOD_ASSERT(epochPs_ > 0,
                  "DecisionLog epoch length must be positive");
}

std::uint64_t
DecisionLog::key(std::uint32_t pod, std::uint64_t page)
{
    const std::uint64_t tag = static_cast<std::uint32_t>(pod + 1);
    MEMPOD_ASSERT(tag < (1u << 23) && page < (std::uint64_t{1} << 40),
                  "DecisionLog key (pod %u, page %llu) out of range", pod,
                  static_cast<unsigned long long>(page));
    return (tag << 40) | page;
}

std::uint64_t
DecisionLog::record(std::uint32_t pod, std::uint64_t page,
                    std::uint64_t victim, std::uint32_t trackerCount,
                    TimePs now)
{
    Record r;
    r.seq = records_.size();
    r.timePs = now;
    r.epoch = now / epochPs_;
    r.pod = pod;
    r.page = page;
    r.victim = victim;
    r.trackerCount = trackerCount;
    r.predictedBenefitNs = trackerCount * benefitPerTouchNs_;
    records_.push_back(r);
    return r.seq;
}

void
DecisionLog::commit(std::uint64_t id, TimePs now)
{
    MEMPOD_ASSERT(id < records_.size(),
                  "DecisionLog::commit: bad id %llu",
                  static_cast<unsigned long long>(id));
    MEMPOD_ASSERT(now >= lastCommitPs_,
                  "DecisionLog::commit: time went backwards (%llu < %llu)",
                  static_cast<unsigned long long>(now),
                  static_cast<unsigned long long>(lastCommitPs_));
    lastCommitPs_ = now;
    expire(now);
    Record &r = records_[id];
    r.outcome = Outcome::kCompleted;
    r.commitPs = now;
    ++committed_;

    // Ping-pong: the page we just evicted was itself migrated in
    // within two epochs (expire() retired every older entry). Mark the
    // *earlier* decision — its benefit window was cut short — and
    // close its ping-pong window; its watch stays open.
    if (Window *w = windows_.find(key(r.pod, r.victim));
        w != nullptr && w->pingPongOpen) {
        records_[w->seq].pingPong = true;
        ++pingPongs_;
        w->pingPongOpen = false;
    }

    const std::uint64_t k = key(r.pod, r.page);
    windows_[k] = Window{r.seq, true};
    expiry_.push_back(Expiry{now + 2 * epochPs_ + 1, k, r.seq});
}

void
DecisionLog::expire(TimePs now)
{
    while (!expiry_.empty() && expiry_.front().closesAt <= now) {
        const std::uint64_t seq = expiry_.front().seq;
        windows_.erase(expiry_.front().key,
                       [seq](const Window &w) { return w.seq == seq; });
        expiry_.pop_front();
    }
}

void
DecisionLog::abort(std::uint64_t id, TimePs now)
{
    MEMPOD_ASSERT(id < records_.size(),
                  "DecisionLog::abort: bad id %llu",
                  static_cast<unsigned long long>(id));
    (void)now;
    Record &r = records_[id];
    r.outcome = Outcome::kAborted;
    ++aborted_;
}

void
DecisionLog::noteAccess(std::uint32_t pod, std::uint64_t page,
                        bool nearTier, TimePs now)
{
    expire(now);
    // No watch is open an epoch after the last commit.
    if (!nearTier || now >= lastCommitPs_ + epochPs_)
        return;
    const Window *w = windows_.find(key(pod, page));
    if (w != nullptr) {
        Record &r = records_[w->seq];
        if (now < r.commitPs + epochPs_)
            ++r.realizedNearHits;
    }
}

const char *
DecisionLog::outcomeName(Outcome o)
{
    switch (o) {
    case Outcome::kPending:
        return "pending";
    case Outcome::kCompleted:
        return "completed";
    case Outcome::kAborted:
        return "aborted";
    }
    return "unknown";
}

} // namespace mempod
