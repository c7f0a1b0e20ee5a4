/**
 * @file
 * Standalone demonstration of the MEA tracker (the paper's Section 3)
 * without any timing simulation: feeds a synthetic page stream with a
 * known hot set plus a phase change through MEA and Full Counters,
 * and shows what each scheme would predict for the next interval.
 *
 * Usage: mea_playground [mea_entries] [counter_bits]
 */
#include <cstdio>

#include "common/number.h"
#include "common/rng.h"
#include "tracking/full_counters.h"
#include "tracking/mea.h"

int
main(int argc, char **argv)
{
    using namespace mempod;

    // MEA needs at least one entry and a counter width in [1, 32].
    std::uint32_t entries = 8, bits = 4;
    if (argc > 3 ||
        (argc > 1 &&
         (parseDecimal(argv[1], entries) != std::errc() || entries == 0)) ||
        (argc > 2 && (parseDecimal(argv[2], bits) != std::errc() ||
                      bits == 0 || bits > 32))) {
        std::fprintf(stderr,
                     "usage: mea_playground [mea_entries] [counter_bits]\n");
        return 2;
    }

    std::printf("MEA with %u entries, %u-bit counters "
                "(storage: %llu bits vs %llu bits for full counters "
                "over 10k pages)\n\n",
                entries, bits,
                static_cast<unsigned long long>(
                    MeaTracker(entries, bits).storageBits()),
                static_cast<unsigned long long>(
                    FullCounters(10000, 16).storageBits()));

    MeaTracker mea(entries, bits);
    FullCounters fc(10000, 16);
    Rng rng(99);

    // Interval: pages 0-4 are hot early, pages 5-9 become hot late
    // (a phase change inside the interval), plus uniform noise.
    std::printf("stream: 3000 accesses — early hot {0..4}, late hot "
                "{5..9}, 30%% noise\n");
    for (int i = 0; i < 3000; ++i) {
        std::uint64_t page;
        if (rng.nextBool(0.3)) {
            page = 10 + rng.nextBelow(9990); // noise
        } else if (i < 1500) {
            page = rng.nextBelow(5); // early hot set
        } else {
            page = 5 + rng.nextBelow(5); // late hot set
        }
        mea.touch(page);
        fc.touch(page);
    }

    std::printf("\nMEA tracked set (count desc) — biased toward the "
                "*recent* hot set:\n  ");
    for (const auto &e : mea.snapshot())
        std::printf("page %llu (x%llu)  ",
                    static_cast<unsigned long long>(e.id),
                    static_cast<unsigned long long>(e.count));

    std::printf("\n\nFull-counter top %u — dominated by total volume, "
                "including pages the program has finished with:\n  ",
                entries);
    for (const auto &e : fc.topN(entries))
        std::printf("page %llu (x%llu)  ",
                    static_cast<unsigned long long>(e.id),
                    static_cast<unsigned long long>(e.count));

    std::printf("\n\nIf the next interval keeps the late hot set "
                "{5..9}, MEA's predictions hit; FC still ranks the "
                "early set it counted most. This is why MemPod uses "
                "MEA for migration candidate selection.\n");
    return 0;
}
