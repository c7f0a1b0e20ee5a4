/**
 * @file
 * Property tests for the conservative executor's horizon invariant:
 *
 *  1. no domain ever executes past `window start + lookahead` (the
 *     window bound derived from the minimum cross-domain latency);
 *  2. a cross-domain event can never arrive in a domain's past — an
 *     overstated lookahead is a *test failure by panic*, never a
 *     silent reordering.
 *
 * The tests drive a ParallelExecutor directly over a real
 * MemorySystem (no Simulation wrapper), so they can interrogate every
 * domain clock between windows and deliberately mis-derive the
 * lookahead for the death test.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "mem/memory_system.h"
#include "sim/config.h"
#include "sim/parallel.h"
#include "sim/simulation.h"

namespace mempod {
namespace {

/** A coordinator issuing pseudorandom line accesses, PDES-sharded. */
class Harness final : private Completer
{
  public:
    Harness(TimePs lookahead_ps, unsigned shards,
            std::uint64_t target_requests)
        : cfg_(SimConfig::paper(Mechanism::kNoMigration)),
          exec_(coord_,
                cfg_.geom.fastChannels + cfg_.geom.slowChannels, shards,
                lookahead_ps, /*sample_period_ps=*/0),
          target_(target_requests)
    {
        ShardPlan plan;
        plan.channelQueues = exec_.channelQueues();
        plan.dispatch = [this](std::size_t ch, Request req,
                               ChannelAddr where) {
            exec_.dispatch(ch, std::move(req), where);
        };
        mem_ = std::make_unique<MemorySystem>(
            coord_, cfg_.geom, cfg_.near, cfg_.far, cfg_.extraLatencyPs,
            cfg_.controller, &plan);
        exec_.bindChannels(*mem_);
        exec_.setDrained([this] {
            return issued_ == target_ && mem_->inFlight() == 0;
        });
        coord_.schedule(0, [this] { issueSome(); });
    }

    ParallelExecutor &executor() { return exec_; }
    EventQueue &coordinator() { return coord_; }
    std::uint64_t completed() const { return completed_; }

    /** Run to completion, checking `perWindow` between windows. */
    template <typename Fn>
    void
    run(Fn perWindow)
    {
        for (;;) {
            const ParallelExecutor::Step step = exec_.runWindow();
            if (step == ParallelExecutor::Step::kFinished)
                break;
            ASSERT_EQ(step, ParallelExecutor::Step::kWindow);
            perWindow();
        }
    }

  private:
    void
    issueSome()
    {
        // A burst of four accesses per event keeps several channels
        // busy at once, so windows really do overlap domain execution.
        for (int i = 0; i < 4 && issued_ < target_; ++i) {
            rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
            const std::uint64_t lines =
                (cfg_.geom.fastBytes + cfg_.geom.slowBytes) / 64;
            Request req;
            req.addr = (rng_ >> 16) % lines * 64;
            req.type = (rng_ & 1) ? AccessType::kWrite
                                  : AccessType::kRead;
            req.arrival = coord_.now();
            req.done = {this, 0};
            ++issued_;
            mem_->access(req);
        }
        if (issued_ < target_)
            coord_.scheduleAfter(2500, [this] { issueSome(); });
    }

    void complete(std::uint32_t, TimePs) override { ++completed_; }

    SimConfig cfg_;
    EventQueue coord_;
    ParallelExecutor exec_;
    std::unique_ptr<MemorySystem> mem_;
    std::uint64_t target_;
    std::uint64_t issued_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t rng_ = 0x9e3779b97f4a7c15ull;
};

TEST(PdesHorizon, LookaheadDerivation)
{
    // Paper system: HBM (tCL 7000, tCWL 5000, tBL 2000) and DDR4-1600;
    // min CAS->data across both tiers is min(tCL,tCWL)+tBL of the
    // faster path, plus the 5000 ps interconnect hop.
    const SimConfig paper = SimConfig::paper(Mechanism::kMemPod);
    const auto tier_min = [](const DramSpec &s) {
        return std::min(s.timing.tCL, s.timing.tCWL) + s.timing.tBL;
    };
    const TimePs expect =
        std::min(tier_min(paper.near), tier_min(paper.far)) +
        paper.extraLatencyPs;
    EXPECT_EQ(Simulation::lookaheadPs(paper), expect);
    EXPECT_GT(Simulation::lookaheadPs(paper), 0u);

    // Single-tier config: only the present tier participates.
    const SimConfig fast = SimConfig::fastOnly();
    EXPECT_EQ(fast.geom.slowChannels, 0u);
    EXPECT_EQ(Simulation::lookaheadPs(fast),
              tier_min(fast.near) + fast.extraLatencyPs);

    // The executor a Simulation builds uses exactly this value.
    SimConfig sharded = paper;
    sharded.shards = 2;
    Simulation sim(sharded);
    ASSERT_NE(sim.executor(), nullptr);
    EXPECT_EQ(sim.executor()->lookaheadPs(),
              Simulation::lookaheadPs(paper));
}

TEST(PdesHorizon, NoDomainExecutesBeyondTheWindowBound)
{
    const SimConfig paper = SimConfig::paper(Mechanism::kNoMigration);
    const TimePs lookahead = Simulation::lookaheadPs(paper);
    Harness h(lookahead, /*shards=*/4, /*target_requests=*/2000);
    ParallelExecutor &ex = h.executor();

    TimePs prev_start = 0;
    h.run([&] {
        const TimePs w = ex.lastWindowStartPs();
        const TimePs e = ex.lastWindowEndPs();
        // Window width never exceeds the lookahead...
        ASSERT_LE(e - w, lookahead);
        ASSERT_GE(w, prev_start);
        prev_start = w;
        // ...and no domain clock escapes the bound: the coordinator
        // and every channel lane stop strictly below `min(neighbor
        // clocks) + lookahead`, which the bound upper-bounds.
        ASSERT_LT(h.coordinator().now(), e);
        for (std::size_t i = 0; i < ex.numLanes(); ++i)
            ASSERT_LT(ex.channelQueue(i).now(), e);
    });
    EXPECT_EQ(h.completed(), 2000u);
    EXPECT_GT(ex.windows(), 10u);
}

TEST(PdesHorizonDeathTest, OverstatedLookaheadPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Inflate the lookahead well past the true minimum completion
    // delay (12 ns on the paper system): the first CAS completion now
    // lands inside its own window and must panic at the merge barrier
    // — the invariant is enforced, not silently repaired by
    // reordering.
    const SimConfig paper = SimConfig::paper(Mechanism::kNoMigration);
    const TimePs inflated = Simulation::lookaheadPs(paper) + 1'000'000;
    EXPECT_DEATH(
        {
            Harness h(inflated, 2, 200);
            h.run([] {});
        },
        "horizon violation");
}

} // namespace
} // namespace mempod
