/**
 * @file
 * SIFT-format trace backend (the Sniper frontend's trace format). We
 * read the uncompressed memory-access subset of SIFT: a header
 * { u32 magic "SIFT", u32 headerSize, u64 options } followed by
 * kind-tagged records. Compressed streams (any non-zero options word)
 * are rejected with an actionable error — decompress with the Sniper
 * tooling first.
 *
 * Record subset (1-byte kind tag):
 *   0x00 End        — end of stream
 *   0x01 MemAccess  — { u64 icount, u64 vaddr, u8 isWrite }
 *
 * SIFT carries an instruction count per access, not wall time; the
 * manifest's period_ps converts it (time = icount × periodPs). Like
 * ChampSim, one file per core, merged by CoreMerge on
 * (time, core, file order).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/core_merge.h"

namespace mempod {

namespace sift {
constexpr std::uint32_t kMagic = 0x54464953u; // "SIFT" little-endian
constexpr std::uint64_t kHeaderBytes = 16;
constexpr std::uint8_t kRecordEnd = 0x00;
constexpr std::uint8_t kRecordMemAccess = 0x01;
constexpr std::uint64_t kMemAccessBytes = 18; //!< kind + payload
} // namespace sift

/**
 * The one SIFT parser: one per-core file's MemAccess records after a
 * validated header, time = icount × period_ps. Fatal, naming the file
 * and record offset, on an unknown kind, a truncated record, or a time
 * that falls, overflows the clock or is the reserved kTimeNever.
 */
class SiftDecoder
{
  public:
    SiftDecoder(std::unique_ptr<MappedFile> file, std::uint8_t core,
                TimePs period_ps);

    bool next(TraceRecord &out);
    void rewind();
    std::uint64_t residentBytes() const { return file_->maxMappedBytes(); }

  private:
    std::unique_ptr<MappedFile> file_;
    std::uint8_t core_;
    TimePs periodPs_;
    std::uint64_t payload_ = 0; //!< first record's byte offset
    std::uint64_t offset_ = 0;  //!< next record's byte offset
    TimePs prevTime_ = 0;
};

/**
 * Streaming reader over per-core SIFT files: decoded through bounded
 * mmap windows and merged on (time, core, file order). Every record
 * is decoded once at open (size() contract and validation).
 */
class SiftTraceSource final : public CoreMerge<SiftDecoder>
{
  public:
    SiftTraceSource(
        std::vector<CoreFile> files, TimePs period_ps,
        std::uint64_t max_records = 0,
        std::uint64_t window_bytes = MappedFile::kDefaultWindowBytes)
    {
        openFiles("sift", std::move(files), max_records, window_bytes,
                  period_ps);
    }
};

/**
 * Split a time-ordered stream into per-core SIFT files named
 * `<stem>.core<k>.sift`, one MemAccess per record with
 * icount = time / period_ps. Lossless when period_ps is 1 (or divides
 * every timestamp); otherwise timing quantizes to the period grid.
 */
ConvertResult convertToSift(TraceSource &source, const std::string &stem,
                            TimePs period_ps);

} // namespace mempod
