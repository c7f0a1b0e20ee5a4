#include "mem/address_map.h"

#include <numeric>

#include "common/log.h"

namespace mempod {

void
SystemGeometry::validate() const
{
    // Each check names the config key (geom.*) that breaks it.
    if (numPods == 0)
        MEMPOD_PANIC("config key 'geom.numPods': need at least one pod");
    if (fastChannels == 0) {
        MEMPOD_PANIC("config key 'geom.fastChannels': need at least one "
                     "fast channel");
    }
    struct Tier
    {
        const char *name, *bytesKey, *channelsKey;
        std::uint64_t bytes;
        std::uint32_t channels;
    };
    for (const Tier &t :
         {Tier{"fast", "geom.fastBytes", "geom.fastChannels", fastBytes,
               fastChannels},
          Tier{"slow", "geom.slowBytes", "geom.slowChannels", slowBytes,
               slowChannels}}) {
        if (t.bytes % kPageBytes != 0) {
            MEMPOD_PANIC("config key '%s': %llu bytes is not a whole "
                         "number of %llu-byte pages",
                         t.bytesKey, static_cast<unsigned long long>(t.bytes),
                         static_cast<unsigned long long>(kPageBytes));
        }
        if (t.channels % numPods != 0) {
            MEMPOD_PANIC("config key '%s': %s channels (%u) must divide "
                         "evenly into pods (geom.numPods = %u)",
                         t.channelsKey, t.name, t.channels, numPods);
        }
        const std::uint64_t pages = t.bytes / kPageBytes;
        if (t.channels > 0 && pages % t.channels != 0) {
            MEMPOD_PANIC("config key '%s': %llu %s pages must interleave "
                         "evenly over %u channels (%s)",
                         t.bytesKey, static_cast<unsigned long long>(pages),
                         t.name, t.channels, t.channelsKey);
        }
    }
    if (slowChannels == 0 && slowBytes != 0) {
        MEMPOD_PANIC("config key 'geom.slowBytes': %llu bytes of slow "
                     "capacity without channels (geom.slowChannels = 0)",
                     static_cast<unsigned long long>(slowBytes));
    }
    if (totalPages() >= (std::uint64_t{1} << 32)) {
        MEMPOD_PANIC("config key '%s': %llu pages in all (geom.fastBytes "
                     "+ geom.slowBytes); placement needs fewer than 2^32 "
                     "(8 TiB)",
                     fastBytes > slowBytes ? "geom.fastBytes"
                                           : "geom.slowBytes",
                     static_cast<unsigned long long>(totalPages()));
    }
}

SystemGeometry
SystemGeometry::paper()
{
    return SystemGeometry{1_GiB, 8_GiB, 8, 4, 4};
}

SystemGeometry
SystemGeometry::tiny()
{
    return SystemGeometry{16_MiB, 128_MiB, 8, 4, 4};
}

SystemGeometry
SystemGeometry::singleTier(std::uint64_t bytes, std::uint32_t channels)
{
    SystemGeometry g;
    g.fastBytes = bytes;
    g.slowBytes = 0;
    g.fastChannels = channels;
    g.slowChannels = 0;
    g.numPods = 1;
    return g;
}

AddressMap::AddressMap(const SystemGeometry &geom,
                       const DramOrganization &fast,
                       const DramOrganization &slow)
    : geom_(geom),
      fastPages_(geom.fastPages()),
      fastPagesPerPod_(geom.fastPagesPerPod()),
      pagesPerPod_(geom.pagesPerPod()),
      totalBytes_(geom.totalBytes())
{
    geom_.validate();
    numPods_ = Divisor(geom.numPods);
    fast_ = {0, 0, Divisor(geom.fastChannels),
             Divisor(fast.rowBufferBytes), Divisor(fast.totalBanks())};
    if (geom.slowChannels > 0) {
        slow_ = {fastPages_, geom.fastChannels,
                 Divisor(geom.slowChannels), Divisor(slow.rowBufferBytes),
                 Divisor(slow.totalBanks())};
    }
}

std::uint32_t
AddressMap::podOfPage(PageId p) const
{
    return static_cast<std::uint32_t>(
        numPods_.mod(p < fastPages_ ? p : p - fastPages_));
}

std::uint64_t
AddressMap::podLocalOfPage(PageId p) const
{
    if (p < fastPages_)
        return numPods_.div(p);
    return fastPagesPerPod_ + numPods_.div(p - fastPages_);
}

PageId
AddressMap::pageOfPodLocal(std::uint32_t pod, std::uint64_t local) const
{
    MEMPOD_ASSERT(pod < geom_.numPods, "pod %u out of range", pod);
    MEMPOD_ASSERT(local < pagesPerPod_, "pod-local page overflow");
    if (local < fastPagesPerPod_)
        return local * geom_.numPods + pod;
    const std::uint64_t slow_local = local - fastPagesPerPod_;
    return fastPages_ + slow_local * geom_.numPods + pod;
}

DecodedAddr
AddressMap::decode(Addr a) const
{
    MEMPOD_ASSERT(a < totalBytes_, "address 0x%llx out of range",
                  static_cast<unsigned long long>(a));
    DecodedAddr d;
    const PageId page = pageOf(a);
    d.tier = tierOf(a);
    d.pod = podOfPage(page);

    const TierDecode &t = d.tier == MemTier::kFast ? fast_ : slow_;
    const auto [ch_local_page, ch] = t.channels.divmod(page - t.firstPage);
    d.channel = t.firstChannel + static_cast<std::uint32_t>(ch);
    const auto [chunk, in_row] =
        t.rowBytes.divmod(ch_local_page * kPageBytes + a % kPageBytes);
    d.offsetInRow = in_row;
    const auto [row, bank] = t.banks.divmod(chunk);
    d.bank = static_cast<std::uint32_t>(bank);
    d.row = static_cast<std::int64_t>(row);
    return d;
}

LogicalToPhysical::LogicalToPhysical(std::uint64_t total_pages,
                                     std::uint32_t num_cores,
                                     std::uint64_t seed)
    : totalPages_(total_pages),
      numCores_(num_cores),
      pagesPerCore_(total_pages / num_cores)
{
    MEMPOD_ASSERT(total_pages > 0 && num_cores > 0, "empty placement");
    MEMPOD_ASSERT(total_pages < (std::uint64_t{1} << 32),
                  "%llu pages: placement needs fewer than 2^32",
                  static_cast<unsigned long long>(total_pages));
    totalPagesDiv_ = Divisor(total_pages);
    // Pick a multiplicative stride coprime with totalPages so that the
    // affine map is a bijection on page ids.
    std::uint64_t s =
        (static_cast<std::uint64_t>(total_pages * 0.6180339887) | 1) +
        2 * (seed % 1024);
    if (s >= total_pages)
        s %= total_pages;
    if (s == 0)
        s = 1;
    while (std::gcd(s, total_pages) != 1)
        s += 2;
    stride_ = s % total_pages;
    offset_ = (seed * 0x9E3779B97F4A7C15ull) % total_pages;
}

PageId
LogicalToPhysical::physicalPage(std::uint64_t logical_page) const
{
    MEMPOD_ASSERT(logical_page < totalPages_, "logical page overflow");
    // Both factors are below totalPages_ < 2^32, so the product and
    // the offset fit 64 bits.
    return totalPagesDiv_.mod(logical_page * stride_ + offset_);
}

Addr
LogicalToPhysical::physicalAddr(std::uint8_t core, Addr core_local) const
{
    if (core >= numCores_) {
        MEMPOD_PANIC("config key 'numCores' = %u, but the trace has "
                     "core %u",
                     numCores_, core);
    }
    const std::uint64_t core_page = core_local / kPageBytes;
    MEMPOD_ASSERT(core_page < pagesPerCore_,
                  "core %u footprint exceeds its allocation slice", core);
    const std::uint64_t logical = core * pagesPerCore_ + core_page;
    return physicalPage(logical) * kPageBytes + core_local % kPageBytes;
}

} // namespace mempod
