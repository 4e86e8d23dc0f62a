/** @file Tests for the CLPT predictor and the storage calculator. */

#include <gtest/gtest.h>

#include "crit/clpt.hh"
#include "crit/overhead.hh"

using namespace critmem;

TEST(Clpt, BelowThresholdNonCritical)
{
    Clpt clpt(64, 3, false);
    clpt.recordConsumers(0x400000, 2);
    EXPECT_EQ(clpt.predict(0x400000), 0u);
}

TEST(Clpt, AtThresholdBinaryOne)
{
    Clpt clpt(64, 3, false);
    clpt.recordConsumers(0x400000, 3);
    EXPECT_EQ(clpt.predict(0x400000), 1u);
}

TEST(Clpt, ConsumersModeForwardsCount)
{
    Clpt clpt(64, 3, true);
    clpt.recordConsumers(0x400000, 7);
    EXPECT_EQ(clpt.predict(0x400000), 7u);
}

TEST(Clpt, LowerThresholdMarksMore)
{
    Clpt strict(64, 3, false);
    Clpt loose(64, 2, false);
    strict.recordConsumers(0x400000, 2);
    loose.recordConsumers(0x400000, 2);
    EXPECT_EQ(strict.predict(0x400000), 0u);
    EXPECT_EQ(loose.predict(0x400000), 1u);
}

TEST(Clpt, RecordOverwrites)
{
    Clpt clpt(64, 3, true);
    clpt.recordConsumers(0x400000, 7);
    clpt.recordConsumers(0x400000, 1);
    EXPECT_EQ(clpt.predict(0x400000), 0u);
}

TEST(ClptDeath, RejectsBadEntryCount)
{
    EXPECT_DEATH({ Clpt clpt(0, 3, false); }, "power of two");
    EXPECT_DEATH({ Clpt clpt(63, 3, false); }, "power of two");
}

TEST(Overhead, CounterWidths)
{
    EXPECT_EQ(counterWidth(0), 1u);
    EXPECT_EQ(counterWidth(1), 1u);
    EXPECT_EQ(counterWidth(2), 2u);
    EXPECT_EQ(counterWidth(13475), 14u);       // Table 5 stall times
    EXPECT_EQ(counterWidth(1975691), 21u);     // Table 5 BlockCount
    EXPECT_EQ(counterWidth(112753587), 27u);   // Table 5 TotalStall
}

TEST(Overhead, BinaryMatchesPaperSection57)
{
    // 8 cores, 4 channels, 64-entry tables, 32-entry LQ, 128-entry
    // ROB: paper reports 77-269 bits per core, 109-301 bytes total.
    const SystemConfig cfg = SystemConfig::parallelDefault();
    const OverheadReport r = storageOverhead(1, 64, cfg);
    EXPECT_EQ(r.perCoreMinBits, 77u);
    EXPECT_EQ(r.perCoreMaxBits, 269u);
    EXPECT_EQ(r.perChannelQueueBits, 64u);
    EXPECT_EQ(r.systemMinBytes, 109u);
    EXPECT_EQ(r.systemMaxBytes, 301u);
}

TEST(Overhead, MaxStallTimeMatchesPaperSection57)
{
    // 14-bit counters: 909-1357 bits per core, 1357-1805 bytes total.
    const SystemConfig cfg = SystemConfig::parallelDefault();
    const OverheadReport r = storageOverhead(14, 64, cfg);
    EXPECT_EQ(r.perCoreMinBits, 909u);
    EXPECT_EQ(r.perCoreMaxBits, 1357u);
    EXPECT_EQ(r.systemMinBytes, 1357u);
    EXPECT_EQ(r.systemMaxBytes, 1805u);
}

TEST(Overhead, TotalStallTimeMatchesPaperSection57)
{
    // 27-bit counters: 1741-2605 bits per core, 2605-3469 bytes for
    // the whole system.
    const SystemConfig cfg = SystemConfig::parallelDefault();
    const OverheadReport r = storageOverhead(27, 64, cfg);
    EXPECT_EQ(r.perCoreMinBits, 1741u);
    EXPECT_EQ(r.perCoreMaxBits, 2605u);
    EXPECT_EQ(r.systemMinBytes, 2605u);
    EXPECT_EQ(r.systemMaxBytes, 3469u);
}

TEST(Overhead, ScalesWithChannels)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    const OverheadReport four = storageOverhead(14, 64, cfg);
    cfg.dram.channels = 2;
    const OverheadReport two = storageOverhead(14, 64, cfg);
    EXPECT_LT(two.systemMinBytes, four.systemMinBytes);
    EXPECT_EQ(four.perChannelQueueBits, two.perChannelQueueBits);
}

TEST(Overhead, WidthDrivesTableCost)
{
    const SystemConfig cfg = SystemConfig::parallelDefault();
    const OverheadReport narrow = storageOverhead(1, 64, cfg);
    const OverheadReport wide = storageOverhead(27, 64, cfg);
    EXPECT_GT(wide.perCoreMinBits, narrow.perCoreMinBits);
    EXPECT_GT(wide.systemMaxBytes, narrow.systemMaxBytes);

    // BlockCount at its published 21 bits: 1357-2029 bits per core,
    // 2029-2701 bytes for the whole system.
    const OverheadReport blockCount = storageOverhead(21, 64, cfg);
    EXPECT_EQ(blockCount.perCoreMinBits, 1357u);
    EXPECT_EQ(blockCount.perCoreMaxBits, 2029u);
    EXPECT_EQ(blockCount.systemMinBytes, 2029u);
    EXPECT_EQ(blockCount.systemMaxBytes, 2701u);
}
