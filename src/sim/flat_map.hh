/**
 * @file
 * A bounded, Addr-keyed hash table for the simulator's hot path.
 *
 * Every table it backs models a fixed-size hardware structure (an
 * MSHR file, a store queue, a directory sized by the L1s it tracks),
 * so the number of keys has a bound known at construction. FlatMap
 * sizes its slot arrays once, for a load factor of at most 1/2, and
 * never allocates again: open addressing over a power-of-two ring,
 * Fibonacci hashing, linear probing, and backward-shift erase (no
 * tombstones, so probe chains never degrade). An insert beyond the
 * bound panics instead of growing, so an unbounded structure cannot
 * hide behind a bounded one.
 *
 * The table has no iteration: slot order follows the hash, and no
 * output may depend on it.
 */

#ifndef CRITMEM_SIM_FLAT_MAP_HH
#define CRITMEM_SIM_FLAT_MAP_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/log.hh"
#include "sim/types.hh"

namespace critmem
{

/** Addr -> V, at most maxEntries keys; kNoAddr is not a valid key. */
template <typename V>
class FlatMap
{
  public:
    /**
     * @param maxEntries Most keys the table ever holds at once.
     * @param what Names the modelled structure in the overflow panic.
     */
    FlatMap(std::size_t maxEntries, const char *what)
        : keys_(slotsFor(maxEntries), kNoAddr),
          values_(keys_.size()), mask_(keys_.size() - 1),
          shift_(64 - std::countr_zero(keys_.size())),
          max_(maxEntries), what_(what)
    {
    }

    /** @return the value stored under @p key, or nullptr. */
    V *
    find(Addr key)
    {
        const std::size_t i = slotOf(key);
        return i == kAbsent ? nullptr : &values_[i];
    }

    const V *
    find(Addr key) const
    {
        const std::size_t i = slotOf(key);
        return i == kAbsent ? nullptr : &values_[i];
    }

    bool contains(Addr key) const { return find(key) != nullptr; }

    /**
     * The value under @p key, inserting V{} first if it is absent.
     * Panics when that insert would exceed maxEntries.
     */
    V &
    operator[](Addr key)
    {
        std::size_t i = home(key);
        for (; keys_[i] != kNoAddr; i = (i + 1) & mask_) {
            if (keys_[i] == key)
                return values_[i];
        }
        if (key == kNoAddr)
            panic(what_, ": kNoAddr is not a valid key");
        if (size_ == max_)
            panic(what_, ": more than ", max_, " entries");
        keys_[i] = key;
        values_[i] = V{};
        ++size_;
        return values_[i];
    }

    /**
     * Remove the entry whose value @p value points at (a find() or
     * operator[] result). Pointers to other values are invalidated.
     */
    void
    erase(V *value)
    {
        std::size_t hole = static_cast<std::size_t>(value - values_.data());
        if (hole >= keys_.size() || keys_[hole] == kNoAddr)
            panic(what_, ": erase of an entry not in the table");
        --size_;
        // Backward shift: pull each later entry of the probe run into
        // the hole unless that would move it before its home slot.
        for (std::size_t j = (hole + 1) & mask_; keys_[j] != kNoAddr;
             j = (j + 1) & mask_) {
            const std::size_t fromHome = (j - home(keys_[j])) & mask_;
            if (fromHome >= ((j - hole) & mask_)) {
                keys_[hole] = keys_[j];
                values_[hole] = std::move(values_[j]);
                hole = j;
            }
        }
        keys_[hole] = kNoAddr;
        values_[hole] = V{};
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Slot count: bit_ceil(2 * maxEntries), at least 2. */
    std::size_t slots() const { return keys_.size(); }

  private:
    static constexpr std::size_t kAbsent = ~std::size_t{0};

    /** Slot holding @p key, or kAbsent. */
    std::size_t
    slotOf(Addr key) const
    {
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            if (keys_[i] == kNoAddr)
                return kAbsent;
            if (keys_[i] == key)
                return i;
        }
    }

    static std::size_t
    slotsFor(std::size_t maxEntries)
    {
        return std::bit_ceil(std::max<std::size_t>(2 * maxEntries, 2));
    }

    /** Fibonacci hash: the top log2(slots) bits of key * 2^64/phi. */
    std::size_t
    home(Addr key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    /** kNoAddr marks an empty slot. */
    std::vector<Addr> keys_;
    std::vector<V> values_;
    std::size_t mask_;
    int shift_;
    std::size_t size_ = 0;
    std::size_t max_;
    const char *what_;
};

} // namespace critmem

#endif // CRITMEM_SIM_FLAT_MAP_HH
