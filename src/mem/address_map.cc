#include "mem/address_map.h"

#include <numeric>

#include "common/log.h"

namespace mempod {

void
SystemGeometry::validate() const
{
    MEMPOD_ASSERT(numPods >= 1, "need at least one pod");
    MEMPOD_ASSERT(fastBytes % kPageBytes == 0 && slowBytes % kPageBytes == 0,
                  "capacities must be page aligned");
    MEMPOD_ASSERT(fastChannels >= 1, "need fast channels");
    MEMPOD_ASSERT(fastChannels % numPods == 0,
                  "fast channels (%u) must divide evenly into pods (%u)",
                  fastChannels, numPods);
    MEMPOD_ASSERT(slowChannels % numPods == 0 || slowChannels == 0,
                  "slow channels (%u) must divide evenly into pods (%u)",
                  slowChannels, numPods);
    MEMPOD_ASSERT(fastPages() % fastChannels == 0,
                  "fast pages must interleave evenly over channels");
    if (slowChannels > 0) {
        MEMPOD_ASSERT(slowPages() % slowChannels == 0,
                      "slow pages must interleave evenly over channels");
    } else {
        MEMPOD_ASSERT(slowBytes == 0, "slow capacity without channels");
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
      fastOrg_(fast),
      slowOrg_(slow),
      fastPages_(geom.fastPages()),
      fastPagesPerPod_(geom.fastPagesPerPod()),
      pagesPerPod_(geom.pagesPerPod()),
      totalBytes_(geom.totalBytes()),
      fastBanks_(fast.totalBanks()),
      slowBanks_(slow.totalBanks())
{
    geom_.validate();
}

std::uint32_t
AddressMap::podOfPage(PageId p) const
{
    if (p < fastPages_)
        return static_cast<std::uint32_t>(p % geom_.numPods);
    return static_cast<std::uint32_t>((p - fastPages_) % geom_.numPods);
}

std::uint64_t
AddressMap::podLocalOfPage(PageId p) const
{
    if (p < fastPages_)
        return p / geom_.numPods;
    return fastPagesPerPod_ + (p - fastPages_) / geom_.numPods;
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
    const std::uint64_t in_page = a % kPageBytes;
    d.tier = tierOf(a);
    d.pod = podOfPage(page);

    std::uint64_t ch_local_page;
    const DramOrganization *org;
    std::uint32_t banks;
    if (d.tier == MemTier::kFast) {
        const std::uint64_t fpage = page;
        d.channel = static_cast<std::uint32_t>(fpage % geom_.fastChannels);
        ch_local_page = fpage / geom_.fastChannels;
        org = &fastOrg_;
        banks = fastBanks_;
    } else {
        const std::uint64_t spage = page - fastPages_;
        d.channel = geom_.fastChannels +
                    static_cast<std::uint32_t>(spage % geom_.slowChannels);
        ch_local_page = spage / geom_.slowChannels;
        org = &slowOrg_;
        banks = slowBanks_;
    }

    const std::uint64_t ch_offset = ch_local_page * kPageBytes + in_page;
    const std::uint64_t chunk = ch_offset / org->rowBufferBytes;
    d.offsetInRow = ch_offset % org->rowBufferBytes;
    d.bank = static_cast<std::uint32_t>(chunk % banks);
    d.row = static_cast<std::int64_t>(chunk / banks);
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
    const __uint128_t prod =
        static_cast<__uint128_t>(logical_page) * stride_ + offset_;
    return static_cast<PageId>(prod % totalPages_);
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
