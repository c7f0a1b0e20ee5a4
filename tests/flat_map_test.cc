/**
 * @file Differential tests of the open-addressed FlatMap against
 * std::unordered_map: mixed insert/find/erase streams, probe chains
 * that wrap past the array end, growth, eraseIf and a value type that
 * owns heap memory.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/rng.h"

namespace mempod {
namespace {

using Map = FlatMap<std::uint64_t>;
using Ref = std::unordered_map<std::uint64_t, std::uint64_t>;

/** Sorted (key, value) contents, for comparing two tables. */
std::vector<std::pair<std::uint64_t, std::uint64_t>>
contents(const Map &m)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    m.forEach([&](std::uint64_t k, std::uint64_t v) {
        out.emplace_back(k, v);
    });
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
contents(const Ref &r)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out(r.begin(),
                                                             r.end());
    std::sort(out.begin(), out.end());
    return out;
}

/** Home slot of `k` in a table of `capacity` slots (the table's hash). */
std::size_t
homeSlot(std::uint64_t k, std::size_t capacity)
{
    return static_cast<std::size_t>((k * 0x9e3779b97f4a7c15ull) >>
                                    (64 - std::countr_zero(capacity)));
}

/**
 * Apply `ops` seeded random operations over keys [0, universe) to both
 * tables; inserts stop at `max_size` entries. Checks every result.
 */
void
runDifferential(Map &m, Ref &ref, std::uint64_t seed, int ops,
                std::uint64_t universe, std::size_t max_size)
{
    Rng rng(seed);
    for (int i = 0; i < ops; ++i) {
        const std::uint64_t k = rng.nextBelow(universe);
        switch (rng.nextBelow(4)) {
        case 0: { // insert or overwrite
            if (ref.size() >= max_size && !ref.contains(k))
                break;
            const std::uint64_t v = rng.next();
            m[k] = v;
            ref[k] = v;
            break;
        }
        case 1: { // tryEmplace keeps an existing value
            if (ref.size() >= max_size && !ref.contains(k))
                break;
            const auto [v, fresh] = m.tryEmplace(k);
            const auto [it, ref_fresh] = ref.try_emplace(k, 0);
            ASSERT_EQ(fresh, ref_fresh) << "op " << i;
            ASSERT_EQ(*v, it->second) << "op " << i;
            break;
        }
        case 2: // erase
            ASSERT_EQ(m.erase(k), ref.erase(k) == 1) << "op " << i;
            break;
        default: { // find
            const std::uint64_t *v = m.find(k);
            const auto it = ref.find(k);
            ASSERT_EQ(v != nullptr, it != ref.end()) << "op " << i;
            if (v) {
                ASSERT_EQ(*v, it->second) << "op " << i;
            }
        }
        }
        ASSERT_EQ(m.size(), ref.size()) << "op " << i;
        if (i % 997 == 0) {
            ASSERT_EQ(contents(m), contents(ref)) << "op " << i;
        }
    }
    ASSERT_EQ(contents(m), contents(ref));
}

TEST(FlatMap, MatchesUnorderedMapOnMixedOperations)
{
    Map m;
    Ref ref;
    runDifferential(m, ref, 42, 120'000, 4096, ~std::size_t{0});
    EXPECT_GT(m.size(), 1000u);
}

TEST(FlatMap, GrowsFromMinimumCapacity)
{
    Map m;
    EXPECT_EQ(m.capacity(), 8u);
    Ref ref;
    // Sequential then scattered keys; every value survives each rehash.
    for (std::uint64_t k = 0; k < 50'000; ++k) {
        const std::uint64_t key = k < 25'000 ? k : k * 1'000'003;
        m[key] = k;
        ref[key] = k;
    }
    EXPECT_EQ(contents(m), contents(ref));
    // The smallest power of two that keeps the load at or below 3/4.
    EXPECT_LE(m.size() * 4, m.capacity() * 3);
    EXPECT_GT(m.size() * 4, m.capacity() / 2 * 3);

    Map sized(1000);
    const std::size_t cap = sized.capacity();
    for (std::uint64_t k = 0; k < 1000; ++k)
        sized.insert(k * 7);
    EXPECT_EQ(sized.capacity(), cap) << "reserved entries rehashed";
}

TEST(FlatMap, SmallTableChainsWrapPastTheEnd)
{
    // Six entries in eight slots: nearly every erase shifts a chain,
    // and chains homed near the last slot continue at slot 0.
    for (std::uint64_t seed : {1, 7, 99}) {
        Map m;
        Ref ref;
        runDifferential(m, ref, seed, 40'000, 14, 6);
        EXPECT_EQ(m.capacity(), 8u) << "the table grew";
    }

    // A chain of keys homed at the last slot wraps; erasing its head
    // must shift the wrapped entries back across the array end.
    std::vector<std::uint64_t> last;
    for (std::uint64_t k = 0; last.size() < 4; ++k)
        if (homeSlot(k, 8) == 7)
            last.push_back(k);
    Map m;
    for (std::uint64_t k : last)
        m[k] = k + 100;
    ASSERT_EQ(m.capacity(), 8u);
    EXPECT_TRUE(m.erase(last[0]));
    for (std::size_t i = 1; i < last.size(); ++i) {
        ASSERT_NE(m.find(last[i]), nullptr) << i;
        EXPECT_EQ(*m.find(last[i]), last[i] + 100);
    }
    EXPECT_EQ(m.find(last[0]), nullptr);
    EXPECT_TRUE(m.erase(last[2]));
    EXPECT_EQ(*m.find(last[3]), last[3] + 100);
    EXPECT_EQ(m.size(), 2u);
}

TEST(FlatMap, EraseIfVisitsEveryEntryOnce)
{
    for (std::uint64_t seed : {3, 5, 11, 12}) {
        Rng rng(seed);
        Map m;
        Ref ref;
        for (int round = 0; round < 200; ++round) {
            // Refill, then decrement all and drop zeros: the MEA sweep.
            const std::size_t target = 1 + rng.nextBelow(40);
            while (ref.size() < target) {
                const std::uint64_t k = rng.nextBelow(64);
                const std::uint64_t v = 1 + rng.nextBelow(3);
                m[k] = v;
                ref[k] = v;
            }
            std::size_t visits = 0;
            const std::size_t erased =
                m.eraseIf([&](std::uint64_t, std::uint64_t &v) {
                    ++visits;
                    return --v == 0;
                });
            EXPECT_EQ(visits, ref.size());
            std::size_t ref_erased = 0;
            for (auto it = ref.begin(); it != ref.end();) {
                if (--it->second == 0) {
                    it = ref.erase(it);
                    ++ref_erased;
                } else {
                    ++it;
                }
            }
            ASSERT_EQ(erased, ref_erased) << "round " << round;
            ASSERT_EQ(contents(m), contents(ref)) << "round " << round;
        }
    }
}

/** Shaped like SwapGuard's entry: owns a vector, plus plain fields. */
struct Entry
{
    bool locked = false;
    std::vector<std::uint64_t> parked;
    std::uint64_t partner = ~std::uint64_t{0};
    std::string tag;

    bool operator==(const Entry &) const = default;
};

TEST(FlatMap, OwningValuesSurviveShiftsAndRehash)
{
    FlatMap<Entry> m;
    std::unordered_map<std::uint64_t, Entry> ref;
    Rng rng(2024);
    for (int i = 0; i < 100'000; ++i) {
        const std::uint64_t k = rng.nextBelow(300);
        switch (rng.nextBelow(3)) {
        case 0: {
            Entry &e = m[k];
            Entry &r = ref[k];
            const std::uint64_t d = rng.next();
            e.parked.push_back(d);
            r.parked.push_back(d);
            e.locked = r.locked = (d & 1) != 0;
            e.partner = r.partner = d >> 8;
            e.tag = r.tag = std::to_string(e.parked.size());
            break;
        }
        case 1:
            if (ref.contains(k)) {
                // take() hands over the value's heap state intact.
                const Entry out = m.take(k);
                ASSERT_EQ(out, ref.at(k)) << "op " << i;
                ref.erase(k);
            }
            break;
        default: {
            const Entry *e = m.find(k);
            const auto it = ref.find(k);
            ASSERT_EQ(e != nullptr, it != ref.end()) << "op " << i;
            if (e) {
                ASSERT_EQ(*e, it->second) << "op " << i;
            }
        }
        }
        ASSERT_EQ(m.size(), ref.size());
    }
    std::size_t seen = 0;
    m.forEach([&](std::uint64_t k, const Entry &e) {
        ++seen;
        EXPECT_EQ(e, ref.at(k));
    });
    EXPECT_EQ(seen, ref.size());
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(0), nullptr);
}

TEST(FlatMap, SetInsertsOnce)
{
    FlatSet s;
    EXPECT_TRUE(s.insert(5));
    EXPECT_FALSE(s.insert(5));
    EXPECT_TRUE(s.contains(5));
    EXPECT_FALSE(s.contains(6));
    EXPECT_FALSE(s.contains(FlatSet::kEmpty));
    EXPECT_EQ(s.size(), 1u);
}

TEST(FlatMapDeathTest, EmptyMarkerKeyPanics)
{
    Map m;
    EXPECT_DEATH(m[Map::kEmpty] = 1, "empty marker");
}

} // namespace
} // namespace mempod
