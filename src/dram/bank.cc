#include "dram/bank.h"

#include <algorithm>

#include "common/log.h"

namespace mempod {

BankStateArray::BankStateArray(const CommandTimingTable &table,
                               std::uint32_t num_banks,
                               std::uint32_t banks_per_rank)
    : tbl_(table),
      openRow_(num_banks, kNoRow),
      rankOf_(num_banks),
      acts_(num_banks, 0),
      reads_(num_banks, 0),
      writes_(num_banks, 0)
{
    const std::uint32_t ranks =
        (num_banks + banks_per_rank - 1) / banks_per_rank;
    for (std::uint32_t b = 0; b < num_banks; ++b)
        rankOf_[b] = b / banks_per_rank;
    for (auto &r : ready_)
        r.assign(num_banks, 0);
    rankActReady_.assign(ranks, 0);
    fawRing_.assign(ranks, {});
    fawHead_.assign(ranks, 0);
    fawCount_.assign(ranks, 0);
}

void
BankStateArray::applyBankRow(DramCmd c, std::uint32_t b, TimePs now)
{
    const TimePs *row = tbl_.bank[cmdIndex(c)];
    for (std::size_t n = 0; n < kNumDramCmds; ++n)
        ready_[n][b] = std::max(ready_[n][b], now + row[n]);
}

void
BankStateArray::activate(TimePs now, std::uint32_t b, std::int64_t row)
{
    MEMPOD_ASSERT(!isOpen(b), "ACT to open bank");
    MEMPOD_ASSERT(now >= actReadyAt(b), "ACT issued too early");
    openRow_[b] = row;
    ++acts_[b];
    applyBankRow(DramCmd::kAct, b, now);

    const std::uint32_t rank = rankOf_[b];
    rankActReady_[rank] =
        std::max(rankActReady_[rank],
                 now + tbl_.rank[cmdIndex(DramCmd::kAct)]
                                [cmdIndex(DramCmd::kAct)]);
    auto &ring = fawRing_[rank];
    if (fawCount_[rank] < 4) {
        ring[(fawHead_[rank] + fawCount_[rank]) % 4] = now;
        ++fawCount_[rank];
    } else {
        ring[fawHead_[rank]] = now;
        fawHead_[rank] = static_cast<std::uint8_t>(
            (fawHead_[rank] + 1) % 4);
    }
}

void
BankStateArray::precharge(TimePs now, std::uint32_t b)
{
    MEMPOD_ASSERT(isOpen(b), "PRE to closed bank");
    MEMPOD_ASSERT(now >= readyAt(b, DramCmd::kPre),
                  "PRE issued too early");
    openRow_[b] = kNoRow;
    applyBankRow(DramCmd::kPre, b, now);
}

TimePs
BankStateArray::read(TimePs now, std::uint32_t b)
{
    MEMPOD_ASSERT(isOpen(b), "read CAS to closed bank");
    MEMPOD_ASSERT(now >= readyAt(b, DramCmd::kRd),
                  "read CAS issued too early");
    ++reads_[b];
    applyBankRow(DramCmd::kRd, b, now);
    return now + tbl_.rdDataPs;
}

TimePs
BankStateArray::write(TimePs now, std::uint32_t b)
{
    MEMPOD_ASSERT(isOpen(b), "write CAS to closed bank");
    MEMPOD_ASSERT(now >= readyAt(b, DramCmd::kWr),
                  "write CAS issued too early");
    ++writes_[b];
    applyBankRow(DramCmd::kWr, b, now);
    return now + tbl_.wrDataPs;
}

void
BankStateArray::blockUntil(std::uint32_t b, TimePs until)
{
    for (auto &r : ready_)
        r[b] = std::max(r[b], until);
}

} // namespace mempod
