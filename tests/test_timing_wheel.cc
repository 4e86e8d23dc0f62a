/**
 * @file
 * Differential tests for TimingWheel: against a binary heap of
 * (cycle, push order) pairs it must pop the same items in the same
 * order, report the heap's top as its next cycle, and count the same
 * pending items.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "sim/random.hh"
#include "sim/timing_wheel.hh"

using namespace critmem;

namespace
{

/** A wheel and the heap it must match, fed identical pushes. */
class Differential
{
  public:
    Differential(Cycle maxDelay, std::uint64_t seed)
        : wheel_(maxDelay), rng_(seed)
    {
    }

    /**
     * Run until @p pushes items have been pushed. Each cycle advances
     * the clock by 1..@p maxStep, drains (comparing every visit with
     * the heap's pop, and pushing from inside the visit now and then,
     * sometimes into the slot being drained), then pushes 0..4 items
     * with delays in [1, @p maxDelay] from the drained cycle.
     */
    void
    run(std::uint64_t pushes, Cycle maxDelay, Cycle maxStep)
    {
        while (order_ < pushes) {
            now_ += rng_.range(1, maxStep);
            wheel_.drain(now_, [&](Cycle at, std::uint64_t id) {
                ASSERT_FALSE(heap_.empty());
                ASSERT_EQ(heap_.top(), std::make_pair(at, id));
                heap_.pop();
                ++visits_;
                if (rng_.chance(0.05))
                    push(at + rng_.below(maxDelay + 1), &inDrain_);
            });
            ASSERT_TRUE(heap_.empty() || heap_.top().first > now_);
            check();
            const std::uint64_t n = rng_.below(5);
            for (std::uint64_t i = 0; i < n; ++i)
                push(now_ + rng_.range(1, maxDelay), nullptr);
            check();
        }
    }

    /** Drain everything left; every push must have been visited. */
    void
    finish()
    {
        while (!wheel_.empty()) {
            now_ = wheel_.next(now_);
            wheel_.drain(now_, [&](Cycle at, std::uint64_t id) {
                ASSERT_EQ(heap_.top(), std::make_pair(at, id));
                heap_.pop();
                ++visits_;
            });
            check();
        }
        EXPECT_TRUE(heap_.empty());
        EXPECT_EQ(visits_, order_);
    }

    const TimingWheel<std::uint64_t> &wheel() const { return wheel_; }
    std::uint64_t inDrainPushes() const { return inDrain_; }

  private:
    void
    push(Cycle at, std::uint64_t *counter)
    {
        wheel_.push(at, order_);
        heap_.emplace(at, order_);
        ++order_;
        if (counter != nullptr)
            ++*counter;
    }

    void
    check()
    {
        ASSERT_EQ(wheel_.size(), heap_.size());
        ASSERT_EQ(wheel_.empty(), heap_.empty());
        ASSERT_EQ(wheel_.next(now_),
                  heap_.empty() ? kNoCycle : heap_.top().first);
    }

    using Entry = std::pair<Cycle, std::uint64_t>;

    TimingWheel<std::uint64_t> wheel_;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
    Rng rng_;
    Cycle now_ = 0;
    std::uint64_t order_ = 0;
    std::uint64_t visits_ = 0;
    std::uint64_t inDrain_ = 0;
};

} // namespace

TEST(TimingWheel, RingSizeIsPowerOfTwoAboveMaxDelay)
{
    EXPECT_EQ(TimingWheel<int>(1).slots(), 2u);
    EXPECT_EQ(TimingWheel<int>(32).slots(), 64u);
    EXPECT_EQ(TimingWheel<int>(63).slots(), 64u);
    EXPECT_EQ(TimingWheel<int>(64).slots(), 128u);
}

TEST(TimingWheel, MatchesHeapWithinTheRing)
{
    // The hierarchy's default ring: 64 slots. Delays span [1, slots),
    // the largest lands in the slot just behind the drained one, and
    // 200k pushes wrap the ring thousands of times.
    Differential diff(33, 1);
    const Cycle slots = diff.wheel().slots();
    ASSERT_EQ(slots, 64u);
    diff.run(200'000, slots - 1, 1);
    diff.finish();
    EXPECT_EQ(diff.wheel().slots(), slots) << "no push needed to grow";
    EXPECT_GT(diff.inDrainPushes(), 1000u);
}

TEST(TimingWheel, MatchesHeapAcrossMultiCycleDrains)
{
    // Clock steps of up to 4 cycles make a drain visit several slots,
    // and pushes from inside a visit land relative to that slot.
    for (const std::uint64_t seed : {2u, 3u, 4u}) {
        Differential diff(15, seed);
        diff.run(100'000, 12, 4);
        diff.finish();
        EXPECT_EQ(diff.wheel().slots(), 16u);
    }
}

TEST(TimingWheel, GrowsExactlyForDelaysBeyondTheRing)
{
    // A 2-slot ring fed ever longer delays must keep the heap's order
    // through every re-ring. Each phase first fills the ring with the
    // previous phase's delays, so every growth (some from inside a
    // drain) moves a full ring of pending items.
    Differential diff(1, 5);
    std::uint64_t pushes = 0;
    for (const Cycle maxDelay : {1u, 3u, 6u, 14u, 30u, 62u, 126u, 300u}) {
        pushes += 20'000;
        diff.run(pushes, maxDelay, 2);
        EXPECT_GT(diff.wheel().slots(), maxDelay);
    }
    diff.finish();
    EXPECT_EQ(diff.wheel().slots(), 512u);
}

TEST(TimingWheel, ItemsForTheDrainedCycleWaitForTheNextDrain)
{
    TimingWheel<int> wheel(4);
    std::vector<int> seen;
    const auto record = [&](Cycle, int v) { seen.push_back(v); };
    wheel.drain(10, record);
    wheel.push(10, 1); // the cycle just drained
    wheel.push(11, 2);
    EXPECT_EQ(wheel.next(10), 11u);
    wheel.drain(11, record);
    EXPECT_EQ(seen, (std::vector<int>{1, 2}));
    EXPECT_TRUE(wheel.empty());
    EXPECT_EQ(wheel.next(11), kNoCycle);
}
