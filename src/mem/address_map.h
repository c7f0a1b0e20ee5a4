/**
 * @file
 * Flat address-space geometry: the fast (die-stacked) region occupies
 * physical addresses [0, fastBytes) and the slow (off-chip) region
 * [fastBytes, fastBytes + slowBytes). Pages are interleaved across
 * Pods, and each Pod's pages across its member channels, exactly as in
 * Figure 4 of the paper (channel c belongs to Pod c % numPods).
 *
 * Also provides LogicalToPhysical, the OS-allocation stand-in that
 * scatters each core's logical pages over the whole physical space via
 * an affine bijection (deterministic, collision-free, seedable).
 */
#pragma once

#include <cstdint>

#include "common/divisor.h"
#include "common/types.h"
#include "dram/spec.h"

namespace mempod {

/** Capacities and partitioning of the two-level memory. */
struct SystemGeometry
{
    std::uint64_t fastBytes = 1_GiB;
    std::uint64_t slowBytes = 8_GiB;
    std::uint32_t fastChannels = 8;
    std::uint32_t slowChannels = 4;
    std::uint32_t numPods = 4;

    std::uint64_t totalBytes() const { return fastBytes + slowBytes; }
    std::uint64_t fastPages() const { return fastBytes / kPageBytes; }
    std::uint64_t slowPages() const { return slowBytes / kPageBytes; }
    std::uint64_t totalPages() const { return totalBytes() / kPageBytes; }

    std::uint64_t fastPagesPerPod() const { return fastPages() / numPods; }
    std::uint64_t slowPagesPerPod() const { return slowPages() / numPods; }
    std::uint64_t pagesPerPod() const
    {
        return fastPagesPerPod() + slowPagesPerPod();
    }

    std::uint32_t fastChannelsPerPod() const
    {
        return fastChannels / numPods;
    }
    std::uint32_t slowChannelsPerPod() const
    {
        return slowChannels / numPods;
    }

    /**
     * Panics, naming the geom.* config key, if the interleave
     * constraints do not hold, or if the system has 2^32 pages (8 TiB)
     * or more: placement multiplies two page ids in 64 bits.
     */
    void validate() const;

    /** The paper's Table 2 system: 1 GB HBM + 8 GB DDR4, 4 Pods. */
    static SystemGeometry paper();

    /** A tiny instance for unit tests (16 MB + 128 MB). */
    static SystemGeometry tiny();

    /** Single-technology geometry (all capacity "fast"). */
    static SystemGeometry
    singleTier(std::uint64_t bytes, std::uint32_t channels);
};

/** Fully decoded coordinates of a physical address. */
struct DecodedAddr
{
    MemTier tier = MemTier::kFast;
    std::uint32_t pod = 0;
    std::uint32_t channel = 0; //!< global channel index
    std::uint32_t bank = 0;
    std::int64_t row = 0;
    std::uint64_t offsetInRow = 0;
};

/** Address decoding for a given geometry + device organizations. */
class AddressMap
{
  public:
    AddressMap(const SystemGeometry &geom, const DramOrganization &fast,
               const DramOrganization &slow);

    const SystemGeometry &geom() const { return geom_; }

    MemTier tierOf(Addr a) const
    {
        return a < geom_.fastBytes ? MemTier::kFast : MemTier::kSlow;
    }

    MemTier
    tierOfPage(PageId p) const
    {
        return p < fastPages_ ? MemTier::kFast : MemTier::kSlow;
    }

    static PageId pageOf(Addr a) { return a / kPageBytes; }
    static Addr addrOfPage(PageId p) { return p * kPageBytes; }

    /** Pod owning a page (same pod before and after migration). */
    std::uint32_t podOfPage(PageId p) const;

    /**
     * Pod-local page index: [0, fastPagesPerPod) are fast slots,
     * [fastPagesPerPod, pagesPerPod) are slow slots.
     */
    std::uint64_t podLocalOfPage(PageId p) const;

    /** Inverse of podLocalOfPage. */
    PageId pageOfPodLocal(std::uint32_t pod, std::uint64_t local) const;

    bool
    podLocalIsFast(std::uint64_t local) const
    {
        return local < fastPagesPerPod_;
    }

    /** Full physical decode (tier, pod, channel, bank, row). */
    DecodedAddr decode(Addr a) const;

    std::uint32_t totalChannels() const
    {
        return geom_.fastChannels + geom_.slowChannels;
    }

  private:
    /** One tier's decode steps, as reciprocals of its geometry. */
    struct TierDecode
    {
        PageId firstPage = 0;
        std::uint32_t firstChannel = 0;
        Divisor channels; //!< page -> (channel-local page, channel)
        Divisor rowBytes; //!< channel offset -> (chunk, offset in row)
        Divisor banks;    //!< chunk -> (row, bank)
    };

    SystemGeometry geom_;

    // Derived geometry, computed once: decoding runs on every demand
    // and every migrated line, so it multiplies by reciprocals and
    // never divides.
    std::uint64_t fastPages_;
    std::uint64_t fastPagesPerPod_;
    std::uint64_t pagesPerPod_;
    std::uint64_t totalBytes_;
    Divisor numPods_;
    TierDecode fast_;
    TierDecode slow_;
};

/**
 * OS page-allocation stand-in: an affine bijection from logical page
 * ids (core-partitioned) onto the full physical page space.
 */
class LogicalToPhysical
{
  public:
    LogicalToPhysical(std::uint64_t total_pages, std::uint32_t num_cores,
                      std::uint64_t seed = 1);

    /** Pages each core may address. */
    std::uint64_t pagesPerCore() const { return pagesPerCore_; }

    /**
     * Map (core, core-local byte address) to a physical address.
     * Panics naming `numCores` when `core` is outside [0, num_cores).
     */
    Addr physicalAddr(std::uint8_t core, Addr core_local) const;

    /** Map a logical page id to its physical page. */
    PageId physicalPage(std::uint64_t logical_page) const;

  private:
    std::uint64_t totalPages_;
    Divisor totalPagesDiv_;
    std::uint32_t numCores_;
    std::uint64_t pagesPerCore_;
    std::uint64_t stride_;
    std::uint64_t offset_;
};

} // namespace mempod
