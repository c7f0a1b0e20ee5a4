/**
 * @file
 * Windowed read-only mmap over a trace file: the streaming readers
 * decode through a bounded sliding window instead of mapping (or
 * worse, reading) the whole file, so peak resident memory for a
 * multi-GB replay is a constant — the window size — no matter how
 * long the trace is. The high-water mark of mapped bytes is exposed
 * so tests can pin that bound.
 */
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

namespace mempod {

/** Read-only file access through one bounded, sliding mmap window. */
class MappedFile
{
  public:
    /** Default window: plenty for sequential decode, tiny vs a trace. */
    static constexpr std::uint64_t kDefaultWindowBytes = 4ull << 20;

    /**
     * Open and stat `path`; fatal (with the path in the message) when
     * the file cannot be opened. `window_bytes` bounds how much of the
     * file is mapped at once (tests shrink it to prove the bound).
     */
    explicit MappedFile(const std::string &path,
                        std::uint64_t window_bytes = kDefaultWindowBytes);
    ~MappedFile();

    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /** Total file size in bytes. */
    std::uint64_t size() const { return fileSize_; }

    /**
     * Pointer to `len` contiguous bytes at file offset `off`, sliding
     * the window forward if needed. Fatal when the range runs past end
     * of file (a truncated trace). The pointer is valid until the next
     * at() call.
     */
    const std::uint8_t *at(std::uint64_t off, std::uint64_t len);

    /** High-water mark of bytes mapped at once (the streaming bound). */
    std::uint64_t maxMappedBytes() const { return maxMapped_; }

    const std::string &path() const { return path_; }

  private:
    void remap(std::uint64_t off, std::uint64_t len);

    std::string path_;
    int fd_ = -1;
    std::uint64_t fileSize_ = 0;
    std::uint64_t windowBytes_;

    std::uint8_t *base_ = nullptr; //!< current window mapping
    std::uint64_t mapOff_ = 0;
    std::uint64_t mapLen_ = 0;
    std::uint64_t maxMapped_ = 0;
};

/** The little-endian u64 at `p` (a decoder's field read). */
inline std::uint64_t
readU64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

} // namespace mempod
