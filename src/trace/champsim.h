/**
 * @file
 * ChampSim-format trace backend. ChampSim input traces are a flat
 * array of 64-byte `input_instr` records (no file header): the
 * instruction pointer, branch bytes, register ids, then two
 * destination (store) and four source (load) memory addresses, where
 * an address of zero means "slot unused".
 *
 * The format carries neither timestamps nor a core id, so two manifest
 * knobs recover them:
 *  - core mapping: one file per core, each manifest entry naming its
 *    core index; the reader merges the per-core streams through
 *    CoreMerge on (time, core, per-file order) — the generator's tie
 *    order, which is what makes record-and-replay through ChampSim
 *    files byte-identical.
 *  - timing: "period" synthesizes time = instruction-index × periodPs
 *    (for traces from real ChampSim tooling); "ip" reads the arrival
 *    time in picoseconds out of the ip field (our converter stores it
 *    there, making the round trip lossless).
 *
 * A converter-side address bias (default 64, one line) keeps the
 * all-zero core-local address representable despite the zero-means-
 * unused convention; the reader subtracts it back out.
 *
 * Only raw (uncompressed) files are supported — decompress .xz/.gz
 * captures before pointing the manifest at them.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/core_merge.h"

namespace mempod {

namespace champsim {
constexpr std::uint64_t kInstrBytes = 64;
constexpr std::uint64_t kDstSlots = 2; //!< store addresses per instr
constexpr std::uint64_t kSrcSlots = 4; //!< load addresses per instr
/** Converter default: bias addresses by one line so 0 stays usable. */
constexpr std::uint64_t kDefaultAddrBias = 64;
} // namespace champsim

/** How a ChampSim stream gets its timestamps (see file comment). */
enum class ChampSimTiming
{
    kPeriod, //!< time = per-file instruction index × periodPs
    kIp,     //!< time = the instr's ip field, in picoseconds
};

/**
 * The one ChampSim parser: one per-core file's records, loads before
 * stores within an instruction, all at the instruction's time. Fatal,
 * naming the file and instruction, on an address below addr_bias, a
 * time that falls, overflows the clock or is the reserved kTimeNever.
 */
class ChampSimDecoder
{
  public:
    ChampSimDecoder(std::unique_ptr<MappedFile> file, std::uint8_t core,
                    ChampSimTiming timing, TimePs period_ps,
                    std::uint64_t addr_bias);

    bool next(TraceRecord &out);
    void rewind();
    std::uint64_t residentBytes() const { return file_->maxMappedBytes(); }

  private:
    std::unique_ptr<MappedFile> file_;
    std::uint8_t core_;
    ChampSimTiming timing_;
    TimePs periodPs_;
    std::uint64_t addrBias_;
    std::uint64_t instrIdx_ = 0;
    TimePs prevTime_ = 0;
    TraceRecord pending_[champsim::kDstSlots + champsim::kSrcSlots];
    int pendingN_ = 0;
    int pendingI_ = 0;
};

/**
 * Streaming reader over a set of per-core ChampSim files: decodes
 * through bounded mmap windows and merges the per-core streams on
 * (time, core). Every record is decoded once at open (size() contract
 * and validation).
 */
class ChampSimTraceSource final : public CoreMerge<ChampSimDecoder>
{
  public:
    ChampSimTraceSource(
        std::vector<CoreFile> files, ChampSimTiming timing,
        TimePs period_ps, std::uint64_t addr_bias,
        std::uint64_t max_records = 0,
        std::uint64_t window_bytes = MappedFile::kDefaultWindowBytes)
    {
        openFiles("champsim", std::move(files), max_records, window_bytes,
                  timing, period_ps, addr_bias);
    }
};

/**
 * Split a time-ordered stream into per-core ChampSim files named
 * `<stem>.core<k>.champsim`, one instruction per record. With
 * ChampSimTiming::kIp the arrival time is stored in the ip field and
 * the round trip is lossless; with kPeriod the ip holds the original
 * core-local address (cosmetic) and timing is resynthesized on read.
 */
ConvertResult convertToChampSim(TraceSource &source,
                                const std::string &stem,
                                ChampSimTiming timing,
                                std::uint64_t addr_bias =
                                    champsim::kDefaultAddrBias);

} // namespace mempod
