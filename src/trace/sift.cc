#include "trace/sift.h"

#include <cstring>

#include "common/log.h"

namespace mempod {

using namespace sift;

SiftDecoder::SiftDecoder(std::unique_ptr<MappedFile> file,
                         std::uint8_t core, TimePs period_ps)
    : file_(std::move(file)), core_(core), periodPs_(period_ps)
{
    if (periodPs_ == 0)
        MEMPOD_FATAL("sift timing needs period_ps > 0");
    MappedFile &f = *file_;
    if (f.size() < kHeaderBytes) {
        MEMPOD_FATAL("'%s' is not a SIFT trace: %llu bytes is smaller "
                     "than the %llu-byte header",
                     f.path().c_str(),
                     static_cast<unsigned long long>(f.size()),
                     static_cast<unsigned long long>(kHeaderBytes));
    }
    const std::uint8_t *h = f.at(0, kHeaderBytes);
    std::uint32_t magic = 0, headerSize = 0;
    std::memcpy(&magic, h, 4);
    std::memcpy(&headerSize, h + 4, 4);
    const std::uint64_t options = readU64(h + 8);
    if (magic != kMagic) {
        MEMPOD_FATAL("'%s' is not a SIFT trace (bad magic 0x%08x, "
                     "expected 0x%08x \"SIFT\")",
                     f.path().c_str(), magic, kMagic);
    }
    if (options != 0) {
        MEMPOD_FATAL("'%s': SIFT options 0x%llx — compressed or "
                     "extended streams are not supported; write an "
                     "uncompressed trace (options = 0)",
                     f.path().c_str(),
                     static_cast<unsigned long long>(options));
    }
    if (headerSize < kHeaderBytes || headerSize > f.size()) {
        MEMPOD_FATAL("'%s': SIFT header size %u is outside the file",
                     f.path().c_str(), headerSize);
    }
    payload_ = headerSize;
    offset_ = payload_;
}

void
SiftDecoder::rewind()
{
    offset_ = payload_;
    prevTime_ = 0;
}

bool
SiftDecoder::next(TraceRecord &out)
{
    if (offset_ >= file_->size())
        return false;
    const char *path = file_->path().c_str();
    const auto off = static_cast<unsigned long long>(offset_);
    const std::uint8_t kind = *file_->at(offset_, 1);
    if (kind == kRecordEnd)
        return false;
    if (kind != kRecordMemAccess) {
        MEMPOD_FATAL("'%s': unknown SIFT record kind 0x%02x at offset "
                     "%llu — only the uncompressed MemAccess subset is "
                     "supported",
                     path, kind, off);
    }
    const std::uint8_t *p = file_->at(offset_, kMemAccessBytes);
    const std::uint64_t icount = readU64(p + 1);
    if (__builtin_mul_overflow(icount, periodPs_, &out.time)) {
        MEMPOD_FATAL("'%s': record at offset %llu: icount %llu times "
                     "period_ps %llu overflows the 64-bit picosecond "
                     "clock",
                     path, off, static_cast<unsigned long long>(icount),
                     static_cast<unsigned long long>(periodPs_));
    }
    if (out.time == kTimeNever) {
        MEMPOD_FATAL("'%s': record at offset %llu is at %llu ps, the "
                     "reserved end-of-stream time",
                     path, off, static_cast<unsigned long long>(out.time));
    }
    if (out.time < prevTime_) {
        MEMPOD_FATAL("'%s': record at offset %llu is not in icount "
                     "order (%llu ps after %llu ps) — SIFT per-core "
                     "files must be monotonically counted",
                     path, off, static_cast<unsigned long long>(out.time),
                     static_cast<unsigned long long>(prevTime_));
    }
    prevTime_ = out.time;
    out.coreLocal = readU64(p + 9);
    out.core = core_;
    out.type = p[17] ? AccessType::kWrite : AccessType::kRead;
    offset_ += kMemAccessBytes;
    return true;
}

ConvertResult
convertToSift(TraceSource &source, const std::string &stem,
              TimePs period_ps)
{
    if (period_ps == 0)
        MEMPOD_FATAL("sift conversion needs period_ps > 0");
    std::string header(kHeaderBytes, '\0');
    const std::uint32_t magic = kMagic;
    const std::uint32_t header_size = kHeaderBytes;
    std::memcpy(header.data(), &magic, 4);
    std::memcpy(header.data() + 4, &header_size, 4);
    const auto encode = [period_ps](const TraceRecord &rec,
                                    std::string &bytes) {
        std::uint8_t buf[kMemAccessBytes];
        buf[0] = kRecordMemAccess;
        const std::uint64_t icount = rec.time / period_ps;
        std::memcpy(buf + 1, &icount, 8);
        std::memcpy(buf + 9, &rec.coreLocal, 8);
        buf[17] = rec.type == AccessType::kWrite ? 1 : 0;
        bytes.append(reinterpret_cast<const char *>(buf), kMemAccessBytes);
    };
    return splitByCore(source, stem, "sift", header, encode,
                       std::string(1, static_cast<char>(kRecordEnd)));
}

} // namespace mempod
