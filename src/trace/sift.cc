#include "trace/sift.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

#include "common/log.h"

namespace mempod {

namespace {

using namespace sift;

std::uint64_t
readU64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

/** Validate the SIFT header; returns the payload start offset. */
std::uint64_t
checkHeader(MappedFile &file)
{
    if (file.size() < kHeaderBytes) {
        MEMPOD_FATAL("'%s' is not a SIFT trace: %llu bytes is smaller "
                     "than the %llu-byte header",
                     file.path().c_str(),
                     static_cast<unsigned long long>(file.size()),
                     static_cast<unsigned long long>(kHeaderBytes));
    }
    const std::uint8_t *h = file.at(0, kHeaderBytes);
    std::uint32_t magic = 0, headerSize = 0;
    std::uint64_t options = 0;
    std::memcpy(&magic, h, 4);
    std::memcpy(&headerSize, h + 4, 4);
    std::memcpy(&options, h + 8, 8);
    if (magic != kMagic) {
        MEMPOD_FATAL("'%s' is not a SIFT trace (bad magic 0x%08x, "
                     "expected 0x%08x \"SIFT\")",
                     file.path().c_str(), magic, kMagic);
    }
    if (options != 0) {
        MEMPOD_FATAL("'%s': SIFT options 0x%llx — compressed or "
                     "extended streams are not supported; write an "
                     "uncompressed trace (options = 0)",
                     file.path().c_str(),
                     static_cast<unsigned long long>(options));
    }
    if (headerSize < kHeaderBytes || headerSize > file.size()) {
        MEMPOD_FATAL("'%s': SIFT header size %u is outside the file",
                     file.path().c_str(), headerSize);
    }
    return headerSize;
}

} // namespace

SiftTraceSource::SiftTraceSource(std::vector<SiftFileSpec> files,
                                 TimePs period_ps,
                                 std::uint64_t max_records,
                                 std::uint64_t window_bytes)
    : periodPs_(period_ps)
{
    if (files.empty())
        MEMPOD_FATAL("sift trace needs at least one file");
    if (periodPs_ == 0)
        MEMPOD_FATAL("sift timing needs period_ps > 0");
    std::uint64_t total = 0;
    for (auto &spec : files) {
        PerFile pf;
        pf.file = std::make_unique<MappedFile>(spec.path, window_bytes);
        pf.core = spec.core;
        pf.offset = checkHeader(*pf.file);
        // Pre-scan once: walk the record stream to count accesses and
        // surface corruption at open rather than mid-run.
        std::uint64_t off = pf.offset;
        bool ended = false;
        while (off < pf.file->size()) {
            const std::uint8_t kind = *pf.file->at(off, 1);
            if (kind == kRecordEnd) {
                ended = true;
                break;
            }
            if (kind != kRecordMemAccess) {
                MEMPOD_FATAL("'%s': unknown SIFT record kind 0x%02x at "
                             "offset %llu — only the uncompressed "
                             "MemAccess subset is supported",
                             spec.path.c_str(), kind,
                             static_cast<unsigned long long>(off));
            }
            pf.file->at(off, kMemAccessBytes); // fatal if truncated
            off += kMemAccessBytes;
            ++total;
        }
        if (!ended && off != pf.file->size()) {
            MEMPOD_FATAL("'%s': truncated SIFT trace at offset %llu",
                         spec.path.c_str(),
                         static_cast<unsigned long long>(off));
        }
        files_.push_back(std::move(pf));
    }
    limit_ = max_records > 0 ? std::min(max_records, total) : total;
    reset();
}

void
SiftTraceSource::advance(PerFile &pf)
{
    if (pf.offset >= pf.file->size()) {
        pf.headValid = false;
        return;
    }
    const std::uint8_t kind = *pf.file->at(pf.offset, 1);
    if (kind == kRecordEnd) {
        pf.headValid = false;
        return;
    }
    const std::uint8_t *p = pf.file->at(pf.offset, kMemAccessBytes);
    const std::uint64_t icount = readU64(p + 1);
    if (__builtin_mul_overflow(icount, periodPs_, &pf.head.time)) {
        MEMPOD_FATAL("'%s': record at offset %llu: icount %llu times "
                     "period_ps %llu overflows the 64-bit picosecond "
                     "clock",
                     pf.file->path().c_str(),
                     static_cast<unsigned long long>(pf.offset),
                     static_cast<unsigned long long>(icount),
                     static_cast<unsigned long long>(periodPs_));
    }
    pf.head.coreLocal = readU64(p + 9);
    pf.head.core = pf.core;
    pf.head.type = p[17] ? AccessType::kWrite : AccessType::kRead;
    pf.headValid = true;
    pf.offset += kMemAccessBytes;
}

bool
SiftTraceSource::next(TraceRecord &out)
{
    if (emitted_ >= limit_)
        return false;
    PerFile *best = nullptr;
    for (auto &pf : files_) {
        if (!pf.headValid)
            continue;
        if (best == nullptr || pf.head.time < best->head.time ||
            (pf.head.time == best->head.time &&
             pf.core < best->core)) {
            best = &pf;
        }
    }
    if (best == nullptr)
        return false;
    out = best->head;
    advance(*best);
    if (best->headValid && best->head.time < out.time) {
        MEMPOD_FATAL("'%s': records are not in icount order — SIFT "
                     "per-core files must be monotonically counted",
                     best->file->path().c_str());
    }
    ++emitted_;
    return true;
}

void
SiftTraceSource::reset()
{
    emitted_ = 0;
    for (auto &pf : files_) {
        pf.offset = checkHeader(*pf.file);
        pf.headValid = false;
        advance(pf);
    }
}

std::uint64_t
SiftTraceSource::maxResidentBytes() const
{
    std::uint64_t total = 0;
    for (const auto &pf : files_)
        total += pf.file->maxMappedBytes();
    return total;
}

SiftConvertResult
convertToSift(TraceSource &source, const std::string &stem,
              TimePs period_ps)
{
    if (period_ps == 0)
        MEMPOD_FATAL("sift conversion needs period_ps > 0");
    source.reset();
    std::map<std::uint8_t, std::FILE *> out;
    SiftConvertResult result;
    TraceRecord rec;
    while (source.next(rec)) {
        std::FILE *&f = out[rec.core];
        if (f == nullptr) {
            const std::string path = stem + ".core" +
                                     std::to_string(rec.core) + ".sift";
            f = std::fopen(path.c_str(), "wb");
            if (!f) {
                MEMPOD_FATAL("cannot open '%s' for writing",
                             path.c_str());
            }
            std::uint8_t header[sift::kHeaderBytes] = {0};
            const std::uint32_t magic = sift::kMagic;
            const std::uint32_t headerSize = sift::kHeaderBytes;
            std::memcpy(header, &magic, 4);
            std::memcpy(header + 4, &headerSize, 4);
            if (std::fwrite(header, sift::kHeaderBytes, 1, f) != 1) {
                MEMPOD_FATAL("write to '%s' failed", path.c_str());
            }
            result.files.push_back({path, rec.core});
        }
        std::uint8_t buf[sift::kMemAccessBytes];
        buf[0] = sift::kRecordMemAccess;
        const std::uint64_t icount = rec.time / period_ps;
        std::memcpy(buf + 1, &icount, 8);
        std::memcpy(buf + 9, &rec.coreLocal, 8);
        buf[17] = rec.type == AccessType::kWrite ? 1 : 0;
        if (std::fwrite(buf, sift::kMemAccessBytes, 1, f) != 1)
            MEMPOD_FATAL("write to SIFT file for core %u failed",
                         rec.core);
        ++result.records;
    }
    for (auto &[core, f] : out) {
        const std::uint8_t end = sift::kRecordEnd;
        if (std::fwrite(&end, 1, 1, f) != 1 || std::fclose(f) != 0)
            MEMPOD_FATAL("closing SIFT file for core %u failed", core);
    }
    std::sort(result.files.begin(), result.files.end(),
              [](const auto &a, const auto &b) {
                  return a.core < b.core;
              });
    source.reset();
    return result;
}

} // namespace mempod
