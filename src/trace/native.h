/**
 * @file
 * The native on-disk trace format (version 2): a self-describing
 * header — magic, version, endianness tag, record count, record size —
 * followed by fixed-width 18-byte records. The header lets the reader
 * fail fast with an actionable message on foreign files, truncation,
 * version skew, or cross-endian captures instead of silently
 * misparsing raw bytes (the v1 format's failure mode).
 *
 * Layout (all fields little-endian on the machines we run on; the
 * endianTag detects a byte-swapped capture):
 *
 *   offset  size  field
 *        0     8  magic        "MPODTRC2"
 *        8     4  version      2
 *       12     4  endianTag    0x01020304
 *       16     8  recordCount
 *       24     4  recordBytes  18
 *       28     4  reserved     0
 *       32   18n  records      { u64 timePs, u64 coreLocal, u8 core,
 *                                u8 type (0=read, 1=write) }
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "trace/mapped_file.h"
#include "trace/source.h"

namespace mempod {

namespace native_trace {
constexpr char kMagic[8] = {'M', 'P', 'O', 'D', 'T', 'R', 'C', '2'};
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::uint64_t kHeaderBytes = 32;
constexpr std::uint32_t kRecordBytes = 18;
} // namespace native_trace

/**
 * Streaming sink for the native format: records are appended one at a
 * time (the recording frontend taps them off live simulation) and the
 * header's record count is patched in at close. Fatal on I/O errors.
 */
class NativeTraceWriter
{
  public:
    explicit NativeTraceWriter(const std::string &path);
    ~NativeTraceWriter();

    NativeTraceWriter(const NativeTraceWriter &) = delete;
    NativeTraceWriter &operator=(const NativeTraceWriter &) = delete;

    void append(const TraceRecord &rec);

    /** Flush, patch the record count into the header, and close. */
    void close();

    std::uint64_t recordsWritten() const { return count_; }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::FILE *file_ = nullptr;
    std::uint64_t count_ = 0;
};

/**
 * Streaming reader for the native format: validates the header at
 * open, then decodes records through a bounded mmap window. A non-zero
 * `max_records` caps the stream (harness --requests applies uniformly
 * to external traces).
 */
class NativeTraceSource final : public TraceSource
{
  public:
    explicit NativeTraceSource(
        const std::string &path, std::uint64_t max_records = 0,
        std::uint64_t window_bytes = MappedFile::kDefaultWindowBytes);

    bool next(TraceRecord &out) override;
    void reset() override;
    std::uint64_t size() const override { return limit_; }
    std::uint64_t maxResidentBytes() const override
    {
        return file_.maxMappedBytes();
    }

  private:
    MappedFile file_;
    std::uint64_t limit_ = 0; //!< records this cursor will yield
    std::uint64_t idx_ = 0;
    TimePs prevTime_ = 0;
};

/** One-shot write of a materialized trace. */
void writeNativeTrace(const Trace &trace, const std::string &path);

} // namespace mempod
