#include "trace/native.h"

#include <algorithm>
#include <cstring>

#include "common/log.h"

namespace mempod {

namespace {

using namespace native_trace;

/** First 8 bytes of the retired, unversioned v1 format ("MEMPODTR"). */
constexpr std::uint64_t kLegacyMagic = 0x4d454d504f445452ull;

void
encodeHeader(std::uint8_t out[kHeaderBytes], std::uint64_t count)
{
    std::memset(out, 0, kHeaderBytes);
    std::memcpy(out, kMagic, sizeof(kMagic));
    const std::uint32_t version = kVersion;
    const std::uint32_t endian = kEndianTag;
    const std::uint32_t recBytes = kRecordBytes;
    std::memcpy(out + 8, &version, 4);
    std::memcpy(out + 12, &endian, 4);
    std::memcpy(out + 16, &count, 8);
    std::memcpy(out + 24, &recBytes, 4);
}

void
encodeRecord(std::uint8_t out[kRecordBytes], const TraceRecord &rec)
{
    std::memcpy(out, &rec.time, 8);
    std::memcpy(out + 8, &rec.coreLocal, 8);
    out[16] = rec.core;
    out[17] = rec.type == AccessType::kWrite ? 1 : 0;
}

} // namespace

NativeTraceWriter::NativeTraceWriter(const std::string &path)
    : path_(path)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_) {
        MEMPOD_FATAL("cannot open trace file '%s' for writing",
                     path.c_str());
    }
    std::uint8_t header[kHeaderBytes];
    encodeHeader(header, 0); // count patched in at close()
    if (std::fwrite(header, kHeaderBytes, 1, file_) != 1)
        MEMPOD_FATAL("write to trace file '%s' failed", path.c_str());
}

NativeTraceWriter::~NativeTraceWriter()
{
    if (file_)
        close();
}

void
NativeTraceWriter::append(const TraceRecord &rec)
{
    MEMPOD_ASSERT(file_ != nullptr,
                  "append to closed trace writer '%s'", path_.c_str());
    std::uint8_t buf[kRecordBytes];
    encodeRecord(buf, rec);
    if (std::fwrite(buf, kRecordBytes, 1, file_) != 1)
        MEMPOD_FATAL("write to trace file '%s' failed", path_.c_str());
    ++count_;
}

void
NativeTraceWriter::close()
{
    MEMPOD_ASSERT(file_ != nullptr,
                  "double close of trace writer '%s'", path_.c_str());
    std::uint8_t header[kHeaderBytes];
    encodeHeader(header, count_);
    if (std::fseek(file_, 0, SEEK_SET) != 0 ||
        std::fwrite(header, kHeaderBytes, 1, file_) != 1 ||
        std::fclose(file_) != 0) {
        file_ = nullptr;
        MEMPOD_FATAL("finalizing trace file '%s' failed", path_.c_str());
    }
    file_ = nullptr;
}

NativeTraceSource::NativeTraceSource(const std::string &path,
                                     std::uint64_t max_records,
                                     std::uint64_t window_bytes)
    : file_(path, window_bytes)
{
    if (file_.size() < kHeaderBytes) {
        MEMPOD_FATAL("'%s' is not a mempod trace: %llu bytes is smaller "
                     "than the %llu-byte header",
                     path.c_str(),
                     static_cast<unsigned long long>(file_.size()),
                     static_cast<unsigned long long>(kHeaderBytes));
    }
    const std::uint8_t *h = file_.at(0, kHeaderBytes);
    if (std::memcmp(h, kMagic, sizeof(kMagic)) != 0) {
        std::uint64_t asU64 = 0;
        std::memcpy(&asU64, h, 8);
        if (asU64 == kLegacyMagic) {
            MEMPOD_FATAL("'%s' is a v1 (unversioned) mempod trace; the "
                         "format is now versioned — re-record it with "
                         "this build (trace_tool record / --record)",
                         path.c_str());
        }
        MEMPOD_FATAL("'%s' is not a mempod trace (bad magic; expected "
                     "\"MPODTRC2\")",
                     path.c_str());
    }
    std::uint32_t version = 0, endian = 0, recBytes = 0;
    std::uint64_t count = 0;
    std::memcpy(&version, h + 8, 4);
    std::memcpy(&endian, h + 12, 4);
    std::memcpy(&count, h + 16, 8);
    std::memcpy(&recBytes, h + 24, 4);
    if (version != kVersion) {
        MEMPOD_FATAL("'%s': trace format version %u, but this build "
                     "reads version %u — re-record the trace or use a "
                     "matching build",
                     path.c_str(), version, kVersion);
    }
    if (endian != kEndianTag) {
        MEMPOD_FATAL("'%s': endianness mismatch (tag 0x%08x, expected "
                     "0x%08x) — the trace was captured on an "
                     "opposite-endian machine",
                     path.c_str(), endian, kEndianTag);
    }
    if (recBytes != kRecordBytes) {
        MEMPOD_FATAL("'%s': header declares %u-byte records, but this "
                     "build reads %u-byte records",
                     path.c_str(), recBytes, kRecordBytes);
    }
    const std::uint64_t payload = file_.size() - kHeaderBytes;
    if (payload / kRecordBytes < count) {
        MEMPOD_FATAL("'%s': truncated trace — header declares %llu "
                     "records but only %llu fit in the file",
                     path.c_str(),
                     static_cast<unsigned long long>(count),
                     static_cast<unsigned long long>(payload /
                                                     kRecordBytes));
    }
    limit_ = max_records > 0 ? std::min(max_records, count) : count;
}

bool
NativeTraceSource::next(TraceRecord &out)
{
    if (idx_ >= limit_)
        return false;
    const std::uint8_t *p =
        file_.at(kHeaderBytes + idx_ * kRecordBytes, kRecordBytes);
    std::memcpy(&out.time, p, 8);
    std::memcpy(&out.coreLocal, p + 8, 8);
    out.core = p[16];
    out.type = p[17] ? AccessType::kWrite : AccessType::kRead;
    if (out.time < prevTime_ || out.time == kTimeNever) {
        if (out.time == kTimeNever) {
            MEMPOD_FATAL("'%s': record %llu is at %llu ps, the reserved "
                         "end-of-stream time",
                         file_.path().c_str(),
                         static_cast<unsigned long long>(idx_),
                         static_cast<unsigned long long>(out.time));
        }
        MEMPOD_FATAL("'%s': record %llu is out of time order (%llu ps "
                     "after %llu ps) — the trace is corrupt or was not "
                     "time-sorted",
                     file_.path().c_str(),
                     static_cast<unsigned long long>(idx_),
                     static_cast<unsigned long long>(out.time),
                     static_cast<unsigned long long>(prevTime_));
    }
    prevTime_ = out.time;
    ++idx_;
    return true;
}

void
NativeTraceSource::reset()
{
    idx_ = 0;
    prevTime_ = 0;
}

void
writeNativeTrace(const Trace &trace, const std::string &path)
{
    NativeTraceWriter writer(path);
    for (const auto &r : trace)
        writer.append(r);
    writer.close();
}

} // namespace mempod
