/** @file Tests for configuration presets (Tables 1 and 3). */

#include <gtest/gtest.h>

#include "sim/config.hh"

using namespace critmem;

TEST(Config, Ddr3_2133TimingsMatchTable3)
{
    const DramConfig cfg = DramConfig::preset(DramSpeed::DDR3_2133);
    EXPECT_EQ(cfg.busMHz, 1066u);
    EXPECT_EQ(cfg.t.tRCD, 14u);
    EXPECT_EQ(cfg.t.tCL, 14u);
    EXPECT_EQ(cfg.t.tWL, 7u);
    EXPECT_EQ(cfg.t.tCCD, 4u);
    EXPECT_EQ(cfg.t.tWTR, 8u);
    EXPECT_EQ(cfg.t.tWR, 16u);
    EXPECT_EQ(cfg.t.tRTP, 8u);
    EXPECT_EQ(cfg.t.tRP, 14u);
    EXPECT_EQ(cfg.t.tRRD, 6u);
    EXPECT_EQ(cfg.t.tRTRS, 2u);
    EXPECT_EQ(cfg.t.tRAS, 36u);
    EXPECT_EQ(cfg.t.tRC, 50u);
    EXPECT_EQ(cfg.t.tRFC, 118u);
    EXPECT_EQ(cfg.t.burstLength, 8u);
}

TEST(Config, Table3Organization)
{
    const DramConfig cfg = DramConfig::preset(DramSpeed::DDR3_2133);
    EXPECT_EQ(cfg.channels, 4u);
    EXPECT_EQ(cfg.ranksPerChannel, 4u);
    EXPECT_EQ(cfg.banksPerRank, 8u);
    EXPECT_EQ(cfg.rowBytes, 1024u);
    EXPECT_EQ(cfg.queueEntries, 64u);
}

TEST(Config, SlowerGradesScaleToConstantNanoseconds)
{
    const DramConfig slow = DramConfig::preset(DramSpeed::DDR3_1066);
    // Half the clock: cycle counts should halve (rounded up).
    EXPECT_EQ(slow.busMHz, 533u);
    EXPECT_EQ(slow.t.tRCD, 7u);
    EXPECT_EQ(slow.t.tCL, 7u);
    EXPECT_EQ(slow.t.tRC, 25u);
    EXPECT_EQ(slow.t.tRFC, 59u);
}

TEST(Config, Ddr3_1600Scaling)
{
    const DramConfig cfg = DramConfig::preset(DramSpeed::DDR3_1600);
    EXPECT_EQ(cfg.busMHz, 800u);
    // 14 cycles @1066 = 13.13ns -> ceil(10.5) = 11 cycles @800.
    EXPECT_EQ(cfg.t.tRCD, 11u);
    // tCCD is clamped at BL/2 = 4 cycles minimum.
    EXPECT_GE(cfg.t.tCCD, 4u);
}

TEST(Config, RefreshIntervalCoversAllRowsIn64ms)
{
    const DramConfig cfg = DramConfig::preset(DramSpeed::DDR3_2133);
    // 8192 refreshes per 64 ms: tREFI ~= 64ms/8192 at 1066 MHz.
    const double expected = 0.064 / 8192.0 * 1066.0e6;
    EXPECT_NEAR(cfg.t.tREFI, expected, 5.0);
}

TEST(Config, CpuPerDramCycleIsFourAt2133)
{
    const SystemConfig cfg = SystemConfig::parallelDefault();
    EXPECT_EQ(cfg.cpuPerDramCycle(), 4u);
}

TEST(Config, ParallelDefaultMatchesTables)
{
    const SystemConfig cfg = SystemConfig::parallelDefault();
    EXPECT_EQ(cfg.numCores, 8u);
    EXPECT_EQ(cfg.core.robEntries, 128u);
    EXPECT_EQ(cfg.core.lqEntries, 32u);
    EXPECT_EQ(cfg.core.maxUnresolvedBranches, 24u);
    EXPECT_EQ(cfg.core.mispredictPenalty, 9u);
    EXPECT_EQ(cfg.il1.sizeBytes, 32u * 1024);
    EXPECT_EQ(cfg.il1.ways, 1u);
    EXPECT_EQ(cfg.dl1.ways, 4u);
    EXPECT_EQ(cfg.dl1.blockBytes, 32u);
    EXPECT_EQ(cfg.dl1.latency, 3u);
    EXPECT_EQ(cfg.l2.sizeBytes, 4u * 1024 * 1024);
    EXPECT_EQ(cfg.l2.ways, 8u);
    EXPECT_EQ(cfg.l2.blockBytes, 64u);
    EXPECT_EQ(cfg.l2.latency, 32u);
    EXPECT_EQ(cfg.l2.mshrs, 64u);
}

TEST(Config, MultiprogDefaultHalvesChannelsAndMshrs)
{
    const SystemConfig cfg = SystemConfig::multiprogDefault();
    EXPECT_EQ(cfg.numCores, 4u);
    EXPECT_EQ(cfg.dram.channels, 2u);
    EXPECT_EQ(cfg.l2.mshrs, 32u);
}

TEST(Config, CacheSetsComputation)
{
    CacheConfig cfg;
    cfg.sizeBytes = 32 * 1024;
    cfg.blockBytes = 32;
    cfg.ways = 4;
    EXPECT_EQ(cfg.sets(), 256u);
}

TEST(Config, ToStringCoverage)
{
    EXPECT_STREQ(toString(DramSpeed::DDR3_2133), "DDR3-2133");
    EXPECT_STREQ(toString(CritPredictor::CbpMaxStall), "MaxStallTime");
    EXPECT_STREQ(toString(CritPredictor::ClptConsumers),
                 "CLPT-Consumers");
    EXPECT_STREQ(toString(SchedAlgo::CasRasCrit), "CASRAS-Crit");
    EXPECT_STREQ(toString(SchedAlgo::Morse), "MORSE-P");
}

TEST(Config, IsCbpClassification)
{
    EXPECT_TRUE(isCbp(CritPredictor::CbpBinary));
    EXPECT_TRUE(isCbp(CritPredictor::CbpTotalStall));
    EXPECT_FALSE(isCbp(CritPredictor::None));
    EXPECT_FALSE(isCbp(CritPredictor::ClptBinary));
    EXPECT_FALSE(isCbp(CritPredictor::NaiveForward));
}

// ---------------------------------------------------------------------
// Structured validation (SystemConfig::validate).
// ---------------------------------------------------------------------

namespace
{

/** True when some error names @p field. */
bool
hasField(const ConfigErrors &errors, const std::string &field)
{
    for (const ConfigError &error : errors) {
        if (error.field == field)
            return true;
    }
    return false;
}

} // namespace

TEST(ConfigValidate, DefaultsAreValid)
{
    EXPECT_TRUE(SystemConfig::parallelDefault().validate().empty());
    EXPECT_TRUE(SystemConfig::multiprogDefault().validate().empty());
}

TEST(ConfigValidate, AllPresetsAndCheckModesAreValid)
{
    for (const DramSpeed speed :
         {DramSpeed::DDR3_1066, DramSpeed::DDR3_1600,
          DramSpeed::DDR3_2133}) {
        SystemConfig cfg = SystemConfig::parallelDefault();
        cfg.dram = DramConfig::preset(speed);
        cfg.check.enabled = true;
        cfg.check.fault = FaultKind::EarlyCas;
        EXPECT_TRUE(cfg.validate().empty()) << toString(speed);
    }
}

TEST(ConfigValidate, ZeroFieldsAreEachReported)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.numCores = 0;
    cfg.core.robEntries = 0;
    cfg.dram.channels = 0;
    cfg.dram.t.tRCD = 0;
    cfg.l2.mshrs = 0;
    const ConfigErrors errors = cfg.validate();
    EXPECT_TRUE(hasField(errors, "numCores"));
    EXPECT_TRUE(hasField(errors, "core.robEntries"));
    EXPECT_TRUE(hasField(errors, "dram.channels"));
    EXPECT_TRUE(hasField(errors, "dram.t.tRCD"));
    EXPECT_TRUE(hasField(errors, "l2.mshrs"));
    EXPECT_GE(errors.size(), 5u);
}

TEST(ConfigValidate, ZeroCacheLatenciesAreRejected)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.il1.latency = 0;
    cfg.dl1.latency = 0;
    cfg.l2.latency = 0;
    const ConfigErrors errors = cfg.validate();
    EXPECT_TRUE(hasField(errors, "il1.latency"));
    EXPECT_TRUE(hasField(errors, "dl1.latency"));
    EXPECT_TRUE(hasField(errors, "l2.latency"));
    EXPECT_EQ(errors.size(), 3u);
}

TEST(ConfigValidate, AssociativityFitsOneByteRanks)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.l2.ways = 256; // 4 MB / (64 B x 256) = 256 sets
    EXPECT_TRUE(cfg.validate().empty());
    cfg.l2.ways = 512;
    const ConfigErrors errors = cfg.validate();
    EXPECT_TRUE(hasField(errors, "l2.ways"));
    EXPECT_EQ(errors.size(), 1u);
}

TEST(ConfigValidate, QueueFitsOnePositionMask)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.dram.queueEntries = 64;
    EXPECT_TRUE(cfg.validate().empty());
    cfg.dram.queueEntries = 65;
    const ConfigErrors errors = cfg.validate();
    EXPECT_TRUE(hasField(errors, "dram.queueEntries"));
    EXPECT_EQ(errors.size(), 1u);
}

TEST(ConfigValidate, TimingRelationsAreEnforced)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.dram.t.tRAS = 5; // below tRCD + tCCD
    cfg.dram.t.tRC = 10; // below tRAS + tRP
    cfg.dram.t.tFAW = 2; // below 4 * tRRD
    cfg.dram.t.tREFI = cfg.dram.t.tRFC; // not past the refresh time
    const ConfigErrors errors = cfg.validate();
    EXPECT_TRUE(hasField(errors, "dram.t.tRAS"));
    EXPECT_TRUE(hasField(errors, "dram.t.tRC"));
    EXPECT_TRUE(hasField(errors, "dram.t.tFAW"));
    EXPECT_TRUE(hasField(errors, "dram.t.tREFI"));
}

// Each DDR3 timing invariant, alone, on a corrupted Table 3 timing:
// exactly one error, on the named field, with the named reason.
TEST(ConfigValidate, EachTimingInvariantFiresOnCorruptedTable3)
{
    struct Case
    {
        const char *what;
        void (*corrupt)(DramTiming &);
        const char *field;
        const char *reason;
    };
    const Case cases[] = {
        {"tRC < tRAS + tRP",
         [](DramTiming &t) { t.tRC = t.tRAS + t.tRP - 1; }, "dram.t.tRC",
         "tRC >= tRAS + tRP"},
        {"tFAW < 4 * tRRD",
         [](DramTiming &t) { t.tFAW = 4 * t.tRRD - 1; }, "dram.t.tFAW",
         "tFAW >= 4 * tRRD"},
        {"tRC < tRRD",
         [](DramTiming &t) {
             t.tRRD = t.tRC + 1;
             t.tFAW = 4 * t.tRRD;
         },
         "dram.t.tRC", "tRC >= tRRD"},
        {"tCCD < BL/2",
         [](DramTiming &t) { t.tCCD = t.dataCycles() - 1; },
         "dram.t.tCCD", "tCCD >= burstLength / 2"},
        {"tRAS < tRCD + tCCD",
         [](DramTiming &t) { t.tRAS = t.tRCD + t.tCCD - 1; },
         "dram.t.tRAS", "tRAS >= tRCD + tCCD"},
        {"tRFC >= tREFI", [](DramTiming &t) { t.tRFC = t.tREFI; },
         "dram.t.tREFI", "exceed the refresh cycle time"},
        {"8192 * tREFI = 128 ms",
         [](DramTiming &t) { t.tREFI *= 2; }, "dram.t.tREFI", "64 ms"},
    };
    for (const Case &c : cases) {
        DramConfig cfg; // Table 3: DDR3-2133 at 1066 MHz
        c.corrupt(cfg.t);
        ConfigErrors errors;
        cfg.validate(errors);
        ASSERT_EQ(errors.size(), 1u) << c.what;
        EXPECT_EQ(errors[0].field, c.field) << c.what;
        EXPECT_NE(errors[0].message.find(c.reason), std::string::npos)
            << c.what << ": " << errors[0].message;
    }
}

// The LintPresetTiming tests keep the name of the lint rule that
// checked the speed-grade presets before DramConfig::validate did: each
// corrupts every preset at its own bus clock.
namespace
{

constexpr DramSpeed kSpeeds[] = {DramSpeed::DDR3_1066,
                                 DramSpeed::DDR3_1600,
                                 DramSpeed::DDR3_2133};

/** validate() finds exactly one error, @p field's, naming @p reason. */
void
expectSolePresetError(void (*corrupt)(DramTiming &), const char *field,
                      const char *reason)
{
    for (const DramSpeed speed : kSpeeds) {
        DramConfig cfg = DramConfig::preset(speed);
        corrupt(cfg.t);
        ConfigErrors errors;
        cfg.validate(errors);
        ASSERT_EQ(errors.size(), 1u) << toString(speed);
        EXPECT_EQ(errors[0].field, field) << toString(speed);
        EXPECT_NE(errors[0].message.find(reason), std::string::npos)
            << toString(speed) << ": " << errors[0].message;
    }
}

} // namespace

TEST(LintPresetTiming, CatchesCorruptedTRC)
{
    expectSolePresetError(
        [](DramTiming &t) { t.tRC = t.tRAS + t.tRP - 1; }, "dram.t.tRC",
        "tRC >= tRAS + tRP");
}

TEST(LintPresetTiming, CatchesFourActivateWindowViolation)
{
    expectSolePresetError(
        [](DramTiming &t) { t.tFAW = 4 * t.tRRD - 1; }, "dram.t.tFAW",
        "tFAW >= 4 * tRRD");
}

TEST(LintPresetTiming, CatchesRefreshWindowDrift)
{
    // The refresh window doubles to ~128 ms.
    expectSolePresetError([](DramTiming &t) { t.tREFI *= 2; },
                          "dram.t.tREFI", "64 ms");
}

TEST(LintPresetTiming, ShippedPresetsAreClean)
{
    for (const DramSpeed speed : kSpeeds) {
        ConfigErrors errors;
        DramConfig::preset(speed).validate(errors);
        EXPECT_TRUE(errors.empty())
            << toString(speed) << ": " << errors.front().message;
    }
}

TEST(ConfigValidate, RefreshWindowFollowsTheBusClock)
{
    // Table 3's tREFI on an 800 MHz bus spans 85 ms: the speed
    // grade's own preset rescales it.
    DramConfig cfg;
    cfg.busMHz = 800;
    ConfigErrors errors;
    cfg.validate(errors);
    EXPECT_TRUE(hasField(errors, "dram.t.tREFI"));
    cfg.t = DramConfig::preset(DramSpeed::DDR3_1600).t;
    errors.clear();
    cfg.validate(errors);
    EXPECT_TRUE(errors.empty());
}

TEST(ConfigValidate, GeometryMustBePowerOfTwoWhereRequired)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.dram.rowBytes = 1000;  // not a power of two
    cfg.dl1.blockBytes = 48;   // not a power of two
    cfg.l2.sizeBytes = 3u * 1024 * 1024 + 5; // non-pow2 set count
    const ConfigErrors errors = cfg.validate();
    EXPECT_TRUE(hasField(errors, "dram.rowBytes"));
    EXPECT_TRUE(hasField(errors, "dl1.blockBytes"));
    EXPECT_TRUE(hasField(errors, "l2.sizeBytes"));
}

TEST(ConfigValidate, ClockRelationIsEnforced)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.core.freqMHz = cfg.dram.busMHz / 2;
    EXPECT_TRUE(hasField(cfg.validate(), "core.freqMHz"));
}

TEST(ConfigValidate, CheckBlockIsValidated)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.check.enabled = true;
    cfg.check.watchdogCycles = 0;
    cfg.check.starvationCycles = 0;
    ConfigErrors errors = cfg.validate();
    EXPECT_TRUE(hasField(errors, "check.watchdogCycles"));
    EXPECT_TRUE(hasField(errors, "check.starvationCycles"));

    cfg = SystemConfig::parallelDefault();
    cfg.check.fault = FaultKind::StarveCore;
    cfg.check.faultVictim = cfg.numCores; // out of range
    EXPECT_TRUE(hasField(cfg.validate(), "check.faultVictim"));

    cfg.check.faultVictim = 0;
    cfg.check.faultPeriod = 0;
    EXPECT_TRUE(hasField(cfg.validate(), "check.faultPeriod"));
}

TEST(ConfigValidate, SchedulerKnobsAreValidated)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.sched.morseMaxCommands = 0;
    EXPECT_TRUE(hasField(cfg.validate(), "sched.morseMaxCommands"));
}
