/**
 * @file
 * TraceSource: the pull-based stream of trace records every frontend
 * consumes. A source yields TraceRecords in non-decreasing time order,
 * one at a time, so a multi-GB on-disk trace replays in O(1) memory
 * (file-backed sources decode through a bounded mmap window) and a
 * synthetic trace is generated as it is consumed, in O(cores) memory.
 *
 * Sources are single-owner cursors: cheap to open, not shared across
 * threads. WorkloadCatalog::open (trace/catalog.h) opens a fresh one
 * per caller, so each BatchRunner job streams its own.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "trace/record.h"

namespace mempod {

/** A forward-only stream of time-ordered trace records. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Yield the next record; false at end of stream. */
    virtual bool next(TraceRecord &out) = 0;

    /** Rewind to the first record. */
    virtual void reset() = 0;

    /**
     * Total records this source yields (after any record limit). Known
     * up front for every backend — the native header carries the
     * count, and the per-core readers decode every record at open —
     * because the frontend's AMMAT denominator and progress reporting
     * need it before the stream is consumed.
     */
    virtual std::uint64_t size() const = 0;

    /**
     * Peak bytes of trace state this source holds at once: the mmap
     * window of a file reader, the per-core models of the generator;
     * 0 for a vector, whose records its owner holds. Independent of
     * trace length for every streaming source — the property the
     * streaming tests pin.
     */
    virtual std::uint64_t maxResidentBytes() const { return 0; }
};

/**
 * In-memory source over a Trace vector it does not own: the caller
 * keeps the vector alive while the source is read.
 */
class VectorTraceSource final : public TraceSource
{
  public:
    explicit VectorTraceSource(const Trace &trace) : trace_(&trace) {}

    bool
    next(TraceRecord &out) override
    {
        if (idx_ >= trace_->size())
            return false;
        out = (*trace_)[idx_++];
        return true;
    }

    void reset() override { idx_ = 0; }
    std::uint64_t size() const override { return trace_->size(); }

  private:
    const Trace *trace_;
    std::uint64_t idx_ = 0;
};

/**
 * Scales every timestamp of an inner source by a constant (manifest
 * time_scale and the generator's rateScale applied to external
 * traces). Rounding is llround — fixed and platform-independent, so
 * scaled replays stay deterministic. A scaled time past the 64-bit
 * clock is fatal, naming the trace `name`, the record and the scale.
 */
class ScaledTraceSource final : public TraceSource
{
  public:
    ScaledTraceSource(std::unique_ptr<TraceSource> inner, double scale,
                      std::string name)
        : inner_(std::move(inner)), scale_(scale), name_(std::move(name))
    {
    }

    bool next(TraceRecord &out) override;
    void
    reset() override
    {
        inner_->reset();
        index_ = 0;
    }
    std::uint64_t size() const override { return inner_->size(); }
    std::uint64_t maxResidentBytes() const override
    {
        return inner_->maxResidentBytes();
    }

  private:
    std::unique_ptr<TraceSource> inner_;
    double scale_;
    std::string name_;
    std::uint64_t index_ = 0; //!< records yielded since reset()
};

/** Drain a source into a materialized vector (offline analyses). */
Trace materialize(TraceSource &source);

/**
 * Streaming TraceSummary over a source; resets the source before and
 * after. An in-memory Trace is summarized through a VectorTraceSource.
 */
TraceSummary summarize(TraceSource &source);

} // namespace mempod
