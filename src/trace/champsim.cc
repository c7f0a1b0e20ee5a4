#include "trace/champsim.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

#include "common/log.h"

namespace mempod {

namespace {

using namespace champsim;

/** Byte offsets inside ChampSim's 64-byte input_instr. */
constexpr std::uint64_t kIpOff = 0;
constexpr std::uint64_t kDstMemOff = 16; //!< u64 dst_mem[2] (stores)
constexpr std::uint64_t kSrcMemOff = 32; //!< u64 src_mem[4] (loads)

std::uint64_t
readU64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

} // namespace

ChampSimTraceSource::ChampSimTraceSource(
    std::vector<ChampSimFileSpec> files, ChampSimTiming timing,
    TimePs period_ps, std::uint64_t addr_bias,
    std::uint64_t max_records, std::uint64_t window_bytes)
    : timing_(timing), periodPs_(period_ps), addrBias_(addr_bias)
{
    if (files.empty())
        MEMPOD_FATAL("champsim trace needs at least one file");
    if (timing_ == ChampSimTiming::kPeriod && periodPs_ == 0)
        MEMPOD_FATAL("champsim 'period' timing needs period_ps > 0");
    std::uint64_t total = 0;
    for (auto &spec : files) {
        PerFile pf;
        pf.file = std::make_unique<MappedFile>(spec.path, window_bytes);
        pf.core = spec.core;
        if (pf.file->size() % kInstrBytes != 0) {
            MEMPOD_FATAL("'%s' is not a raw ChampSim trace: %llu bytes "
                         "is not a multiple of the %llu-byte "
                         "input_instr (compressed captures must be "
                         "decompressed first)",
                         spec.path.c_str(),
                         static_cast<unsigned long long>(
                             pf.file->size()),
                         static_cast<unsigned long long>(kInstrBytes));
        }
        pf.instrCount = pf.file->size() / kInstrBytes;
        // Pre-scan once: count used memory slots so size() is known up
        // front. Streams through the same bounded window.
        std::uint64_t recs = 0;
        for (std::uint64_t i = 0; i < pf.instrCount; ++i) {
            const std::uint8_t *instr =
                pf.file->at(i * kInstrBytes, kInstrBytes);
            for (std::uint64_t s = 0; s < kSrcSlots; ++s)
                if (readU64(instr + kSrcMemOff + 8 * s) != 0)
                    ++recs;
            for (std::uint64_t s = 0; s < kDstSlots; ++s)
                if (readU64(instr + kDstMemOff + 8 * s) != 0)
                    ++recs;
        }
        total += recs;
        files_.push_back(std::move(pf));
    }
    limit_ = max_records > 0 ? std::min(max_records, total) : total;
    reset();
}

void
ChampSimTraceSource::advance(PerFile &pf)
{
    while (pf.pendingI >= pf.pendingN) {
        if (pf.instrIdx >= pf.instrCount) {
            pf.headValid = false;
            return;
        }
        const std::uint8_t *instr =
            pf.file->at(pf.instrIdx * kInstrBytes, kInstrBytes);
        TimePs time;
        if (timing_ == ChampSimTiming::kIp) {
            time = readU64(instr + kIpOff);
        } else if (__builtin_mul_overflow(pf.instrIdx, periodPs_,
                                          &time)) {
            MEMPOD_FATAL("'%s': instruction %llu times period_ps %llu "
                         "overflows the 64-bit picosecond clock",
                         pf.file->path().c_str(),
                         static_cast<unsigned long long>(pf.instrIdx),
                         static_cast<unsigned long long>(periodPs_));
        }
        pf.pendingN = 0;
        pf.pendingI = 0;
        // Loads first, then stores — all at the instruction's time.
        for (std::uint64_t s = 0; s < kSrcSlots; ++s) {
            const std::uint64_t a = readU64(instr + kSrcMemOff + 8 * s);
            if (a == 0)
                continue;
            if (a < addrBias_) {
                MEMPOD_FATAL("'%s': address 0x%llx at instruction %llu "
                             "is below the manifest addr_bias %llu",
                             pf.file->path().c_str(),
                             static_cast<unsigned long long>(a),
                             static_cast<unsigned long long>(
                                 pf.instrIdx),
                             static_cast<unsigned long long>(
                                 addrBias_));
            }
            pf.pending[pf.pendingN++] = TraceRecord{
                time, a - addrBias_, pf.core, AccessType::kRead};
        }
        for (std::uint64_t s = 0; s < kDstSlots; ++s) {
            const std::uint64_t a = readU64(instr + kDstMemOff + 8 * s);
            if (a == 0)
                continue;
            if (a < addrBias_) {
                MEMPOD_FATAL("'%s': address 0x%llx at instruction %llu "
                             "is below the manifest addr_bias %llu",
                             pf.file->path().c_str(),
                             static_cast<unsigned long long>(a),
                             static_cast<unsigned long long>(
                                 pf.instrIdx),
                             static_cast<unsigned long long>(
                                 addrBias_));
            }
            pf.pending[pf.pendingN++] = TraceRecord{
                time, a - addrBias_, pf.core, AccessType::kWrite};
        }
        ++pf.instrIdx;
    }
    pf.head = pf.pending[pf.pendingI++];
    pf.headValid = true;
}

bool
ChampSimTraceSource::next(TraceRecord &out)
{
    if (emitted_ >= limit_)
        return false;
    // Pick the file with the smallest (time, core). Each file is one
    // core and within a file records stay in file order, so this key
    // reproduces the generator's stable-sort tie order exactly.
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
        MEMPOD_FATAL("'%s': records are not in time order (%llu ps "
                     "after %llu ps) — ChampSim per-core files must be "
                     "time-sorted",
                     best->file->path().c_str(),
                     static_cast<unsigned long long>(best->head.time),
                     static_cast<unsigned long long>(out.time));
    }
    ++emitted_;
    return true;
}

void
ChampSimTraceSource::reset()
{
    emitted_ = 0;
    for (auto &pf : files_) {
        pf.instrIdx = 0;
        pf.pendingN = 0;
        pf.pendingI = 0;
        pf.headValid = false;
        advance(pf);
    }
}

std::uint64_t
ChampSimTraceSource::maxResidentBytes() const
{
    std::uint64_t total = 0;
    for (const auto &pf : files_)
        total += pf.file->maxMappedBytes();
    return total;
}

ChampSimConvertResult
convertToChampSim(TraceSource &source, const std::string &stem,
                  ChampSimTiming timing, std::uint64_t addr_bias)
{
    source.reset();
    std::map<std::uint8_t, std::FILE *> out;
    ChampSimConvertResult result;
    TraceRecord rec;
    while (source.next(rec)) {
        std::FILE *&f = out[rec.core];
        if (f == nullptr) {
            const std::string path = stem + ".core" +
                                     std::to_string(rec.core) +
                                     ".champsim";
            f = std::fopen(path.c_str(), "wb");
            if (!f) {
                MEMPOD_FATAL("cannot open '%s' for writing",
                             path.c_str());
            }
            result.files.push_back({path, rec.core});
        }
        std::uint8_t instr[kInstrBytes] = {0};
        const std::uint64_t ip = timing == ChampSimTiming::kIp
                                     ? rec.time
                                     : rec.coreLocal;
        const std::uint64_t addr = rec.coreLocal + addr_bias;
        std::memcpy(instr + kIpOff, &ip, 8);
        if (rec.type == AccessType::kWrite)
            std::memcpy(instr + kDstMemOff, &addr, 8);
        else
            std::memcpy(instr + kSrcMemOff, &addr, 8);
        if (std::fwrite(instr, kInstrBytes, 1, f) != 1)
            MEMPOD_FATAL("write to ChampSim file for core %u failed",
                         rec.core);
        ++result.records;
    }
    for (auto &[core, f] : out) {
        if (std::fclose(f) != 0)
            MEMPOD_FATAL("closing ChampSim file for core %u failed",
                         core);
    }
    // Manifest order: ascending core index (std::map iteration gave us
    // open-order; re-sort for stability when cores first appear late).
    std::sort(result.files.begin(), result.files.end(),
              [](const auto &a, const auto &b) {
                  return a.core < b.core;
              });
    source.reset();
    return result;
}

} // namespace mempod
