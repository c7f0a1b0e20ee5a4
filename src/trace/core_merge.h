/**
 * @file
 * Per-core trace streams: the one (time, core) merge every
 * multi-programmed source replays through — the generator
 * (trace/generator.h) and the ChampSim and SIFT readers are each a
 * CoreMerge over their per-core stream type — and the one per-core
 * split the converters write.
 *
 * kTimeNever marks an exhausted core, so no stream may yield a record
 * at that time: every decoder rejects it as a fatal naming the record.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/log.h"
#include "trace/mapped_file.h"
#include "trace/source.h"

namespace mempod {

/** One per-core file of an external trace (native: the one file). */
struct CoreFile
{
    std::string path;
    std::uint8_t core = 0;
};

/**
 * The (time, core) merge over per-core streams, as a TraceSource. It
 * pulls each core's records kBatch at a time and yields the one whose
 * time is smallest, the lowest stream index winning ties. Each core's
 * times never fall, so the merge yields exactly the order of a stable
 * time sort over the cores' records appended core by core — the order
 * that makes record-and-replay byte-identical across formats. A
 * Stream provides
 *   bool next(TraceRecord &out);  // the next record; false at its end
 *   void rewind();                // back to its first record
 *   std::uint64_t residentBytes() const;  // held beyond sizeof(Stream)
 * and is asked for exactly the record count it was added with.
 */
template <typename Stream>
class CoreMerge : public TraceSource
{
  public:
    /**
     * Records a core yields at a time. A stream run in bursts keeps
     * its branches predictable: draining 8M generated xalanc records
     * took 0.68 s against 0.84 s one record per merge step (median of
     * 5, 4-vCPU VM). The state stays O(cores).
     */
    static constexpr std::uint32_t kBatch = 64;

    /**
     * The head record of the core whose head time is smallest; ties
     * go to the lowest stream index.
     */
    bool
    next(TraceRecord &out) override
    {
        if (left_ == 0)
            return false;
        // Branch-free minimum: the strict < keeps the lowest index on
        // ties. A live core's head is below kTimeNever, so an
        // exhausted core is never picked while records are left.
        std::size_t best = 0;
        TimePs best_time = headTime_[0];
        for (std::size_t c = 1; c < headTime_.size(); ++c) {
            const TimePs t = headTime_[c];
            best = t < best_time ? c : best;
            best_time = t < best_time ? t : best_time;
        }
        out = buffer_[best * kBatch + pos_[best]];
        --left_;
        if (++pos_[best] == fill_[best])
            refill(best);
        else
            headTime_[best] = buffer_[best * kBatch + pos_[best]].time;
        return true;
    }

    /** Rewind every stream and refill every batch. */
    void
    reset() override
    {
        const std::size_t cores = streams_.size();
        buffer_.assign(cores * kBatch, TraceRecord{});
        pos_.assign(cores, 0);
        fill_.assign(cores, 0);
        headTime_.assign(cores, kTimeNever);
        remaining_ = counts_;
        for (std::size_t c = 0; c < cores; ++c) {
            streams_[c].rewind();
            refill(c);
        }
        left_ = limit_;
    }

    std::uint64_t size() const override { return limit_; }

    /** Streams, batches and heads: O(cores), independent of length. */
    std::uint64_t
    maxResidentBytes() const override
    {
        std::uint64_t total = sizeof(*this);
        for (const Stream &s : streams_)
            total += sizeof(Stream) + s.residentBytes() +
                     kBatch * sizeof(TraceRecord) + sizeof(TimePs) +
                     2 * sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t);
        return total;
    }

  protected:
    /** Append the next core's stream, which holds `count` records. */
    void
    add(Stream stream, std::uint64_t count)
    {
        streams_.push_back(std::move(stream));
        counts_.push_back(count);
    }

    /**
     * After the last add(): cap the merge at `max_records` (0: no
     * cap) and rewind.
     */
    void
    start(std::uint64_t max_records)
    {
        std::uint64_t total = 0;
        for (const std::uint64_t n : counts_)
            total += n;
        limit_ = max_records > 0 ? std::min(max_records, total) : total;
        reset();
    }

    /**
     * Open per-core files of format `what` through their decoder
     * Stream(std::unique_ptr<MappedFile>, core, params...), the
     * format's only parser. The files are sorted by core, so index
     * order is core order, and each is decoded once in full: size() is
     * known up front and a malformed record fails here, not mid-run.
     */
    template <typename... Params>
    void
    openFiles(const char *what, std::vector<CoreFile> files,
              std::uint64_t max_records, std::uint64_t window_bytes,
              const Params &...params)
    {
        if (files.empty())
            MEMPOD_FATAL("%s trace needs at least one file", what);
        std::sort(files.begin(), files.end(),
                  [](const CoreFile &a, const CoreFile &b) {
                      return a.core < b.core;
                  });
        for (const CoreFile &f : files) {
            Stream decoder(
                std::make_unique<MappedFile>(f.path, window_bytes),
                f.core, params...);
            std::uint64_t count = 0;
            TraceRecord rec;
            while (decoder.next(rec))
                ++count;
            add(std::move(decoder), count);
        }
        start(max_records);
    }

  private:
    /** Pull core c's next batch into its buffer slice. */
    void
    refill(std::size_t c)
    {
        const auto n = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(kBatch, remaining_[c]));
        TraceRecord *batch = &buffer_[c * kBatch];
        for (std::uint32_t i = 0; i < n; ++i) {
            if (!streams_[c].next(batch[i]))
                MEMPOD_FATAL("trace stream %zu changed while open", c);
        }
        remaining_[c] -= n;
        pos_[c] = 0;
        fill_[c] = n;
        // An exhausted core's head sits at kTimeNever, past any record.
        headTime_[c] = n != 0 ? batch[0].time : kTimeNever;
    }

    std::vector<Stream> streams_;
    std::vector<std::uint64_t> counts_; //!< records per stream
    std::uint64_t limit_ = 0;           //!< records one pass yields
    /**
     * Core c's pending records: buffer_[c * kBatch + i] for i in
     * [pos_[c], fill_[c]).
     */
    std::vector<TraceRecord> buffer_;
    std::vector<std::uint32_t> pos_;
    std::vector<std::uint32_t> fill_;
    /** Time of core c's next record; kTimeNever once it is done. */
    std::vector<TimePs> headTime_;
    /** Records core c has yet to pull. */
    std::vector<std::uint64_t> remaining_;
    std::uint64_t left_ = 0; //!< records still to yield, all cores
};

/** What a per-core converter wrote (feed straight into a manifest). */
struct ConvertResult
{
    std::vector<CoreFile> files; //!< ascending core
    std::uint64_t records = 0;
};

/**
 * The one per-core converter: split a time-ordered stream into files
 * `<stem>.core<k>.<ext>`, each opened on its core's first record with
 * `header`, then encode() appending each record's bytes, closed with
 * `trailer`. Rewinds the source before and after.
 */
ConvertResult splitByCore(
    TraceSource &source, const std::string &stem, const char *ext,
    const std::string &header,
    const std::function<void(const TraceRecord &, std::string &bytes)>
        &encode,
    const std::string &trailer);

} // namespace mempod
