#include "trace/champsim.h"

#include <cstring>

#include "common/log.h"

namespace mempod {

namespace {

using namespace champsim;

/** Byte offsets inside ChampSim's 64-byte input_instr. */
constexpr std::uint64_t kIpOff = 0;
constexpr std::uint64_t kDstMemOff = 16; //!< u64 dst_mem[2] (stores)
constexpr std::uint64_t kSrcMemOff = 32; //!< u64 src_mem[4] (loads)

} // namespace

ChampSimDecoder::ChampSimDecoder(std::unique_ptr<MappedFile> file,
                                 std::uint8_t core, ChampSimTiming timing,
                                 TimePs period_ps,
                                 std::uint64_t addr_bias)
    : file_(std::move(file)), core_(core), timing_(timing),
      periodPs_(period_ps), addrBias_(addr_bias)
{
    if (timing_ == ChampSimTiming::kPeriod && periodPs_ == 0)
        MEMPOD_FATAL("champsim 'period' timing needs period_ps > 0");
    if (file_->size() % kInstrBytes != 0) {
        MEMPOD_FATAL("'%s' is not a raw ChampSim trace: %llu bytes "
                     "is not a multiple of the %llu-byte "
                     "input_instr (compressed captures must be "
                     "decompressed first)",
                     file_->path().c_str(),
                     static_cast<unsigned long long>(file_->size()),
                     static_cast<unsigned long long>(kInstrBytes));
    }
}

void
ChampSimDecoder::rewind()
{
    instrIdx_ = 0;
    prevTime_ = 0;
    pendingN_ = 0;
    pendingI_ = 0;
}

bool
ChampSimDecoder::next(TraceRecord &out)
{
    while (pendingI_ == pendingN_) {
        if (instrIdx_ == file_->size() / kInstrBytes)
            return false;
        const char *path = file_->path().c_str();
        const auto idx = static_cast<unsigned long long>(instrIdx_);
        const std::uint8_t *instr =
            file_->at(instrIdx_++ * kInstrBytes, kInstrBytes);
        TimePs time;
        if (timing_ == ChampSimTiming::kIp) {
            time = readU64(instr + kIpOff);
        } else if (__builtin_mul_overflow(idx, periodPs_, &time)) {
            MEMPOD_FATAL("'%s': instruction %llu times period_ps %llu "
                         "overflows the 64-bit picosecond clock",
                         path, idx,
                         static_cast<unsigned long long>(periodPs_));
        }
        pendingN_ = 0;
        pendingI_ = 0;
        // Loads first, then stores — all at the instruction's time.
        const auto slots = [&](std::uint64_t off, std::uint64_t n,
                               AccessType type) {
            for (std::uint64_t s = 0; s < n; ++s) {
                const std::uint64_t a = readU64(instr + off + 8 * s);
                if (a == 0)
                    continue;
                if (a < addrBias_) {
                    MEMPOD_FATAL(
                        "'%s': address 0x%llx at instruction %llu is "
                        "below the manifest addr_bias %llu",
                        path, static_cast<unsigned long long>(a), idx,
                        static_cast<unsigned long long>(addrBias_));
                }
                pending_[pendingN_++] =
                    TraceRecord{time, a - addrBias_, core_, type};
            }
        };
        slots(kSrcMemOff, kSrcSlots, AccessType::kRead);
        slots(kDstMemOff, kDstSlots, AccessType::kWrite);
        if (pendingN_ != 0 && time == kTimeNever) {
            MEMPOD_FATAL("'%s': instruction %llu is at %llu ps, the "
                         "reserved end-of-stream time",
                         path, idx, static_cast<unsigned long long>(time));
        }
        if (pendingN_ != 0 && time < prevTime_) {
            MEMPOD_FATAL("'%s': instruction %llu is not in time order "
                         "(%llu ps after %llu ps) — ChampSim per-core "
                         "files must be time-sorted",
                         path, idx, static_cast<unsigned long long>(time),
                         static_cast<unsigned long long>(prevTime_));
        }
        prevTime_ = pendingN_ != 0 ? time : prevTime_;
    }
    out = pending_[pendingI_++];
    return true;
}

ConvertResult
convertToChampSim(TraceSource &source, const std::string &stem,
                  ChampSimTiming timing, std::uint64_t addr_bias)
{
    const auto encode = [timing, addr_bias](const TraceRecord &rec,
                                            std::string &bytes) {
        std::uint8_t instr[kInstrBytes] = {0};
        const std::uint64_t ip =
            timing == ChampSimTiming::kIp ? rec.time : rec.coreLocal;
        const std::uint64_t addr = rec.coreLocal + addr_bias;
        std::memcpy(instr + kIpOff, &ip, 8);
        std::memcpy(instr + (rec.type == AccessType::kWrite ? kDstMemOff
                                                            : kSrcMemOff),
                    &addr, 8);
        bytes.append(reinterpret_cast<const char *>(instr), kInstrBytes);
    };
    return splitByCore(source, stem, "champsim", "", encode, "");
}

} // namespace mempod
