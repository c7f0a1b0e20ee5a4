/**
 * @file
 * Sampling event tracer: records causally-linked spans through the
 * whole stack (demand requests, migration lifecycles, metadata fills,
 * refreshes) and exports them as Chrome trace-event JSON loadable in
 * Perfetto or chrome://tracing.
 *
 * Design constraints:
 *  - Off by default and reachable only through an EventQueue pointer,
 *    so the disabled cost on the hot path is one branch, never an
 *    allocation.
 *  - Deterministic: demand sampling is a pure hash of (seed, record
 *    index), ids derive from record indices and an internal counter,
 *    and the export renders timestamps with integer math — so the
 *    trace bytes are identical at any --jobs worker count.
 *  - Demand and migration spans use async ("b"/"e") phases keyed by
 *    (cat, id): request lifetimes interleave freely, which the
 *    stack-nested "B"/"E" phases cannot express. Serialized per-track
 *    work (channel refresh) uses "B"/"E".
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/event_queue.h"
#include "common/types.h"

namespace mempod {

/** Tracing knobs; carried inside SimConfig. */
struct TracerConfig
{
    bool enabled = false;
    /** Trace 1 in N demand requests (1 = every request). */
    std::uint64_t sampleEvery = 64;
    /** Sampling seed; harnesses pass the trace-generator seed. */
    std::uint64_t seed = 0;
};

/** Helper building the "args" JSON object of one trace event. */
class TraceArgs
{
  public:
    TraceArgs &add(const char *key, std::uint64_t v);
    TraceArgs &add(const char *key, const char *v);

    /** The finished object, e.g. {"core":3,"write":0}. */
    std::string str() const { return body_.empty() ? "" : "{" + body_ + "}"; }

  private:
    std::string body_;
};

/** Records spans; one instance per Simulation. */
class Tracer
{
  public:
    /**
     * `staging` instances buffer one execution domain's records during
     * a sharded run; the master tracer absorb()s them post-run in
     * canonical event-key order, reproducing the serial byte stream.
     */
    explicit Tracer(const TracerConfig &cfg, bool staging = false);

    /**
     * Get (or create) the track with `name`; returns its tid. Tracks
     * render as named threads in Perfetto (thread_name metadata).
     */
    std::uint32_t track(const std::string &name);

    /** Deterministic 1-in-N choice for trace record `record_idx`. */
    bool sampleDemand(std::uint64_t record_idx) const;

    /**
     * Fresh id for a migration flow. Offset away from demand ids
     * (which are record_idx + 1) so "req" and "mig" spans never
     * collide even in tools that ignore the category.
     */
    std::uint64_t newFlowId() { return kFlowIdBase + nextFlow_++; }

    // -- Stack-nested duration span (serialized per track) --
    void durBegin(std::uint32_t tid, TimePs ts, const char *name,
                  std::string args = {});
    void durEnd(std::uint32_t tid, TimePs ts);

    /** Thread-scoped instant marker. */
    void instant(std::uint32_t tid, TimePs ts, const char *name,
                 std::string args = {});

    // -- Async span keyed by (cat, id); may interleave/nest --
    void asyncBegin(std::uint32_t tid, TimePs ts, const char *cat,
                    std::uint64_t id, const char *name,
                    std::string args = {});
    void asyncEnd(std::uint32_t tid, TimePs ts, const char *cat,
                  std::uint64_t id, const char *name,
                  std::string args = {});

    // -- Flow arrows (start -> step... -> end) keyed by (cat, id) --
    void flowStart(std::uint32_t tid, TimePs ts, const char *cat,
                   std::uint64_t id, const char *name);
    void flowStep(std::uint32_t tid, TimePs ts, const char *cat,
                  std::uint64_t id, const char *name);
    void flowEnd(std::uint32_t tid, TimePs ts, const char *cat,
                 std::uint64_t id, const char *name);

    std::size_t eventCount() const { return events_.size(); }
    std::uint64_t sampleEvery() const { return cfg_.sampleEvery; }
    const TracerConfig &config() const { return cfg_; }

    /**
     * Canonical key of the event whose callback is now running; the
     * EventQueue stamps it before each dispatch so every record can be
     * attributed to its emitting event. Needed only to merge staged
     * buffers, but recorded unconditionally (three stores).
     */
    void setEventKey(const EventKey &key) { curKey_ = key; }

    /** Whether this instance is a per-domain staging buffer. */
    bool staging() const { return staging_; }

    /**
     * Merge staged per-domain buffers into this (master) tracer.
     * Records are interleaved by (event key, buffer, intra-buffer
     * order) — exactly the order the serial run appended them in —
     * and track ids are re-interned on first touch, reproducing the
     * serial track-id assignment and metadata order byte for byte.
     */
    void absorb(const std::vector<Tracer *> &staged);

    /**
     * Chrome trace-event JSON: {"displayTimeUnit":"ns",
     * "traceEvents":[...]} with one event per line. Timestamps are
     * microseconds rendered from picoseconds by integer division, so
     * the bytes are platform- and locale-independent.
     */
    std::string toJson() const;

  private:
    struct Event
    {
        TimePs ts;
        char ph;
        std::uint32_t tid;
        std::uint64_t id;   //!< meaningful for async/flow phases
        const char *name;   //!< static string; never freed
        const char *cat;    //!< static string or nullptr
        std::string args;   //!< preformatted JSON object or empty
        EventKey key;       //!< emitting event; drives absorb() merge
    };

    static constexpr std::uint64_t kFlowIdBase = 1ull << 32;

    TracerConfig cfg_;
    bool staging_ = false;
    std::map<std::string, std::uint32_t> tracks_;
    std::vector<std::string> trackNames_; //!< index = tid
    std::vector<Event> events_;
    std::uint64_t nextFlow_ = 0;
    EventKey curKey_{};
};

} // namespace mempod
