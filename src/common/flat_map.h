/**
 * @file
 * FlatMap: an open-addressed hash table for the simulator's per-access
 * lookup state (MEA entries, CAMEO groups, THM segments, swap keys,
 * ledger windows, metadata fills). The paper's trackers and location
 * tables are small fixed structures; a node-based std::unordered_map
 * spends a 64-bit `div` (hash % prime bucket count) and a pointer chase
 * on each lookup, where this table spends one multiply and a linear
 * scan of adjacent slots.
 *
 *  - capacity is a power of two and the load stays at or below 3/4;
 *  - the home slot is the top bits of `key * 2^64/phi`
 *    (Fibonacci hashing), so sequential ids spread over the table;
 *  - collisions probe linearly, wrapping past the array end;
 *  - erase shifts the rest of the probe chain back one slot (no
 *    tombstones), so lookups never slow down as entries churn.
 *
 * Keys are std::uint64_t ids (pages, lines, groups, packed ledger
 * keys); ~0 marks an empty slot, and inserting it is a panic. A set is
 * the same table with the empty FlatUnit as its value.
 *
 * Reference contract: a pointer or reference to a value stays valid
 * only until the next insertion of an absent key (it may rehash every
 * slot) or erase (it may shift any later slot), including clear() and
 * take(); finding or tryEmplace-ing a present key moves nothing. Code
 * that holds a value across a call which can re-enter its owner and
 * insert must look the key up again afterwards.
 *
 * Iteration order is the slot order, which depends on capacity and
 * insertion history. No simulator output may depend on it: forEach()
 * callers either sort what they collect or only check invariants.
 */
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.h"

namespace mempod {

/** The value type of a set. */
struct FlatUnit
{
};

/** Maps std::uint64_t keys (all but kEmpty) to values of type V. */
template <typename V>
class FlatMap
{
  public:
    /** The key that marks an empty slot; it may not be inserted. */
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

    /** @param expected entries the table holds before its first rehash. */
    explicit FlatMap(std::size_t expected = 0)
    {
        rehash(capacityFor(expected));
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return slots_.size(); }

    /** The value of `k`, or nullptr. */
    V *
    find(std::uint64_t k)
    {
        for (std::size_t i = home(k);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.key == kEmpty)
                return nullptr;
            if (s.key == k)
                return &s.value;
        }
    }

    const V *
    find(std::uint64_t k) const
    {
        return const_cast<FlatMap *>(this)->find(k);
    }

    bool contains(std::uint64_t k) const { return find(k) != nullptr; }

    /** The value of `k`, which must be present. */
    V &
    at(std::uint64_t k)
    {
        V *v = find(k);
        MEMPOD_ASSERT(v != nullptr, "FlatMap::at of an absent key");
        return *v;
    }

    /**
     * The value of `k`, inserting a default-constructed one if absent;
     * `.second` is true when it was inserted.
     */
    std::pair<V *, bool>
    tryEmplace(std::uint64_t k)
    {
        MEMPOD_ASSERT(k != kEmpty,
                      "FlatMap key collides with the empty marker");
        std::size_t i = home(k);
        for (; slots_[i].key != kEmpty; i = (i + 1) & mask_)
            if (slots_[i].key == k)
                return {&slots_[i].value, false};
        if ((size_ + 1) * 4 > slots_.size() * 3) {
            rehash(slots_.size() * 2);
            i = freeSlotFrom(home(k));
        }
        slots_[i].key = k;
        ++size_;
        return {&slots_[i].value, true};
    }

    V &operator[](std::uint64_t k) { return *tryEmplace(k).first; }

    /** Set insert: true when `k` was absent. */
    bool insert(std::uint64_t k) { return tryEmplace(k).second; }

    /** Remove `k` if present and `pred(value)` holds; true if removed. */
    template <typename Pred>
    bool
    erase(std::uint64_t k, Pred pred)
    {
        for (std::size_t i = home(k);; i = (i + 1) & mask_) {
            if (slots_[i].key == kEmpty)
                return false;
            if (slots_[i].key == k) {
                if (!pred(std::as_const(slots_[i].value)))
                    return false;
                eraseAt(i);
                return true;
            }
        }
    }

    /** Remove `k`; false when it was absent. */
    bool
    erase(std::uint64_t k)
    {
        return erase(k, [](const V &) { return true; });
    }

    /** Move `k`'s value out and erase it; `k` must be present. */
    V
    take(std::uint64_t k)
    {
        V out = std::move(at(k));
        erase(k);
        return out;
    }

    /**
     * Call `pred(key, value&)` once per entry and erase the entries it
     * returns true for; returns the number erased. `pred` may modify
     * the value but not the table.
     */
    template <typename Pred>
    std::size_t
    eraseIf(Pred pred)
    {
        // Start just past an empty slot: no probe chain spans it, so a
        // backward shift only ever moves a not-yet-visited entry into
        // the slot being visited, and every entry is visited once.
        std::size_t start = 0;
        while (slots_[start].key != kEmpty)
            ++start;
        std::size_t erased = 0;
        for (std::size_t n = 0, i = (start + 1) & mask_; n < slots_.size();
             ++n, i = (i + 1) & mask_) {
            while (slots_[i].key != kEmpty &&
                   pred(slots_[i].key, slots_[i].value)) {
                eraseAt(i);
                ++erased;
            }
        }
        return erased;
    }

    /** Call `fn(key, value)` per entry, in (unspecified) slot order. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const Slot &s : slots_)
            if (s.key != kEmpty)
                fn(s.key, s.value);
    }

    /** Erase every entry; the capacity stays. */
    void
    clear()
    {
        if (size_ == 0)
            return;
        for (Slot &s : slots_)
            s = Slot{};
        size_ = 0;
    }

  private:
    struct Slot
    {
        std::uint64_t key = kEmpty;
        [[no_unique_address]] V value = V();
    };

    static constexpr std::size_t kMinCapacity = 8;

    /** Smallest power of two holding `n` entries at load <= 3/4. */
    static std::size_t
    capacityFor(std::size_t n)
    {
        return std::bit_ceil(std::max(kMinCapacity, n + (n + 2) / 3));
    }

    std::size_t
    home(std::uint64_t k) const
    {
        return static_cast<std::size_t>(
            (k * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    /** The first empty slot at or after `i`. */
    std::size_t
    freeSlotFrom(std::size_t i) const
    {
        while (slots_[i].key != kEmpty)
            i = (i + 1) & mask_;
        return i;
    }

    /** Empty slot `i` by shifting its chain's later entries back. */
    void
    eraseAt(std::size_t hole)
    {
        for (std::size_t j = (hole + 1) & mask_;
             slots_[j].key != kEmpty; j = (j + 1) & mask_) {
            // The entry at j may fill the hole unless its home lies
            // cyclically in (hole, j].
            if (((j - home(slots_[j].key)) & mask_) >=
                ((j - hole) & mask_)) {
                slots_[hole] = std::move(slots_[j]);
                hole = j;
            }
        }
        slots_[hole] = Slot{};
        --size_;
    }

    void
    rehash(std::size_t capacity)
    {
        std::vector<Slot> old(capacity);
        old.swap(slots_);
        mask_ = capacity - 1;
        shift_ = 64 - std::countr_zero(capacity);
        size_ = 0;
        for (Slot &s : old) {
            if (s.key == kEmpty)
                continue;
            slots_[freeSlotFrom(home(s.key))] = std::move(s);
            ++size_;
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    int shift_ = 64;
};

/** A FlatMap used as a set of keys. */
using FlatSet = FlatMap<FlatUnit>;

} // namespace mempod
