/**
 * @file
 * An exact timing wheel: a power-of-two ring of FIFO slots, one per
 * cycle, for events scheduled a bounded number of cycles ahead.
 *
 * Every pending item's cycle lies in [base, base + slots), where base
 * is the cycle drained last, so a slot holds items of exactly one
 * cycle and its FIFO order is insertion order. Draining slot by slot
 * therefore pops items in the (cycle, insertion order) order of a
 * binary heap keyed on both, with O(1) push and pop. A push further
 * ahead than the ring spans grows the ring (a rare, one-off cost), so
 * the order stays exact for any delay.
 *
 * Items live in one node pool threaded into per-slot FIFO lists, so
 * the wheel allocates like the heap did: one buffer that grows to the
 * peak number of pending items, reused through a free list.
 */

#ifndef CRITMEM_SIM_TIMING_WHEEL_HH
#define CRITMEM_SIM_TIMING_WHEEL_HH

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

/** Items of type T due at a cycle, popped in (cycle, push) order. */
template <typename T>
class TimingWheel
{
  public:
    /**
     * @param maxDelay Largest push-ahead (at - last drained cycle) the
     *        ring holds before it has to grow: bit_ceil(maxDelay + 1)
     *        slots.
     */
    explicit TimingWheel(Cycle maxDelay) { reset(ringFor(maxDelay)); }

    /**
     * Schedule @p item for cycle @p at, after every item already
     * scheduled for @p at. @p at must not precede the last drained
     * cycle; an item for that very cycle is visited by the drain in
     * progress, or else by the next one.
     */
    void
    push(Cycle at, T item)
    {
        if (at < base_)
            panic("timing wheel: push for cycle ", at,
                  " before drained cycle ", base_);
        if (at - base_ >= slots_.size())
            grow(at - base_);
        std::uint32_t node;
        if (free_ != kNil) {
            node = free_;
            free_ = nodes_[node].next;
            nodes_[node].item = std::move(item);
            nodes_[node].next = kNil;
        } else {
            node = static_cast<std::uint32_t>(nodes_.size());
            nodes_.push_back(Node{std::move(item), kNil});
        }
        const std::size_t s = at & mask_;
        Slot &slot = slots_[s];
        if (slot.head == kNil) {
            slot.head = node;
            occupied_[s / 64] |= std::uint64_t{1} << (s % 64);
        } else {
            nodes_[slot.tail].next = node;
        }
        slot.tail = node;
        ++size_;
    }

    /**
     * Call visit(at, item) for every item due at or before @p now, in
     * (at, push) order, including items pushed for the slot being
     * drained while it drains. The visitor may push.
     */
    template <typename Visit>
    void
    drain(Cycle now, Visit &&visit)
    {
        while (size_ != 0) {
            const Cycle at = first();
            if (at > now)
                break;
            base_ = at;
            // Walk by index, not reference: a visit may push (growing
            // the pool) or re-ring. A push for this slot links after
            // the slot's tail, and the node being visited is freed
            // only after its visit, so the walk reaches it.
            std::uint32_t node = slots_[at & mask_].head;
            while (true) {
                T item = std::move(nodes_[node].item);
                --size_;
                visit(at, item);
                const std::uint32_t next = nodes_[node].next;
                nodes_[node].next = free_;
                free_ = node;
                if (next == kNil)
                    break;
                node = next;
            }
            const std::size_t s = at & mask_;
            slots_[s] = Slot{};
            occupied_[s / 64] &= ~(std::uint64_t{1} << (s % 64));
            if (at == now)
                break; // nothing later is due
        }
        base_ = std::max(base_, now);
    }

    /**
     * Earliest cycle > @p now at which drain() would visit an item:
     * the first pending cycle, or now + 1 if that is already due.
     * kNoCycle when empty.
     */
    Cycle
    next(Cycle now) const
    {
        if (size_ == 0)
            return kNoCycle;
        return std::max(first(), now + 1);
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Current ring size (a power of two). */
    std::size_t slots() const { return slots_.size(); }

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    struct Node
    {
        T item;
        std::uint32_t next; ///< next node in the slot or free list
    };

    /** One cycle's FIFO: first and last node, kNil when empty. */
    struct Slot
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    static std::size_t
    ringFor(Cycle maxDelay)
    {
        return std::bit_ceil(static_cast<std::size_t>(maxDelay) + 1);
    }

    void
    reset(std::size_t slots)
    {
        slots_.assign(slots, Slot{});
        mask_ = slots - 1;
        occupied_.assign((slots + 63) / 64, 0);
    }

    /** Earliest pending cycle; requires size_ != 0. */
    Cycle
    first() const
    {
        // Scan the occupancy bits in ring order from base_'s slot: the
        // first set bit is the earliest cycle. words + 1 steps revisit
        // the starting word's low bits after the wrap.
        const std::size_t start = base_ & mask_;
        std::size_t w = start / 64;
        std::uint64_t bits =
            occupied_[w] & (~std::uint64_t{0} << (start % 64));
        for (std::size_t step = 0; step <= occupied_.size(); ++step) {
            if (bits != 0) {
                const std::size_t s =
                    w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
                return base_ + ((s - start) & mask_);
            }
            if (++w == occupied_.size())
                w = 0;
            bits = occupied_[w];
        }
        panic("timing wheel: ", size_, " items but no occupied slot");
    }

    /** Re-ring so a push @p delay cycles past base_ fits. */
    void
    grow(Cycle delay)
    {
        // Slot (base_ + d) & mask_ holds exactly the items due at
        // base_ + d, so whole lists move and keep their FIFO order.
        const std::vector<Slot> old = std::move(slots_);
        const std::size_t oldMask = mask_;
        reset(ringFor(delay));
        for (std::size_t d = 0; d <= oldMask; ++d) {
            const Slot &from = old[(base_ + d) & oldMask];
            if (from.head == kNil)
                continue;
            const std::size_t s = (base_ + d) & mask_;
            slots_[s] = from;
            occupied_[s / 64] |= std::uint64_t{1} << (s % 64);
        }
    }

    /** Item storage; free nodes are chained from free_. */
    std::vector<Node> nodes_;
    std::uint32_t free_ = kNil;
    std::vector<Slot> slots_;
    /** Bit s set <=> slots_[s] is non-empty. */
    std::vector<std::uint64_t> occupied_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
    /** Last drained cycle; every pending item is due at or after it. */
    Cycle base_ = 0;
};

} // namespace critmem

#endif // CRITMEM_SIM_TIMING_WHEEL_HH
