/**
 * @file
 * Test stand-in for a request's owner: a Completer whose handles run
 * closures the test registers, in place of the frontend, migration
 * engine and metadata path that complete requests in the simulator.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "mem/request.h"

namespace mempod {

/** Hands out Completion handles that each run one closure. */
class CompletionFns final : public Completer
{
  public:
    /** A handle whose completion runs `fn` with the finish time. */
    Completion
    add(std::function<void(TimePs)> fn)
    {
        fns_.push_back(std::move(fn));
        return {this, static_cast<std::uint32_t>(fns_.size() - 1)};
    }

    void complete(std::uint32_t ref, TimePs finish) override
    {
        fns_[ref](finish);
    }

  private:
    /** A deque: a running closure may add() without moving itself. */
    std::deque<std::function<void(TimePs)>> fns_;
};

} // namespace mempod
