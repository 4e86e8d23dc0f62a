/**
 * @file
 * Configuration structures for the whole simulated system, with
 * presets matching Tables 1 and 3 of the ISCA'13 paper.
 */

#ifndef CRITMEM_SIM_CONFIG_HH
#define CRITMEM_SIM_CONFIG_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace critmem
{

/** DDR3 speed grades evaluated in the paper (Section 5.6). */
enum class DramSpeed { DDR3_1066, DDR3_1600, DDR3_2133 };

/**
 * Physical address interleaving granularity.
 *
 * Page (Table 3): whole 1 KB rows rotate across channels — maximal
 * row-buffer locality for sequential streams. Block: consecutive
 * cache blocks rotate across channels — maximal channel-level
 * parallelism at the cost of row locality (an ablation knob).
 */
enum class AddressMapKind { PageInterleave, BlockInterleave };

/** @return printable name of a speed grade. */
const char *toString(DramSpeed speed);

/** CLI/spec name of a speed grade (e.g. "ddr3-2133"). */
const char *cliName(DramSpeed speed);

/** Look up a speed grade by CLI/spec name; nullopt when unknown. */
std::optional<DramSpeed> findDramSpeed(const std::string &name);

/**
 * One structured configuration error: the offending field and a
 * human-readable explanation. validate() returns every problem at
 * once so a user can fix a config in one pass.
 */
struct ConfigError
{
    std::string field;
    std::string message;
};

using ConfigErrors = std::vector<ConfigError>;

/**
 * DDR3 timing parameters, all expressed in DRAM (bus) clock cycles.
 * Values for DDR3-2133 come directly from Table 3; the slower grades
 * scale to (approximately) constant nanoseconds.
 */
struct DramTiming
{
    std::uint32_t tRCD = 14;  ///< ACT to internal RD/WR delay
    std::uint32_t tCL = 14;   ///< CAS (read) latency
    std::uint32_t tWL = 7;    ///< write latency
    std::uint32_t tCCD = 4;   ///< CAS-to-CAS delay
    std::uint32_t tWTR = 8;   ///< write-to-read turnaround (same rank)
    std::uint32_t tWR = 16;   ///< write recovery before PRE
    std::uint32_t tRTP = 8;   ///< read-to-precharge
    std::uint32_t tRP = 14;   ///< precharge period
    std::uint32_t tRRD = 6;   ///< ACT-to-ACT, same rank
    std::uint32_t tFAW = 27;  ///< four-activate window, same rank (25ns)
    std::uint32_t tRTRS = 2;  ///< rank-to-rank data-bus switch
    std::uint32_t tRAS = 36;  ///< ACT-to-PRE minimum
    std::uint32_t tRC = 50;   ///< ACT-to-ACT, same bank
    std::uint32_t tRFC = 118; ///< refresh cycle time
    std::uint32_t tREFI = 8328; ///< average refresh interval (64ms/8192)
    std::uint32_t burstLength = 8; ///< BL8: data occupies 4 bus cycles

    /** Bus cycles the data bus is busy per CAS (DDR: BL/2). */
    // lint:allow(narrow-cycle): burst duration, bounded by BL/2 <= 4
    std::uint32_t dataCycles() const { return burstLength / 2; }

    /** Append structured errors for inconsistent timing parameters. */
    void validate(ConfigErrors &errors) const;
};

/** DRAM organization + timing (Table 3). */
struct DramConfig
{
    DramSpeed speed = DramSpeed::DDR3_2133;
    std::uint32_t busMHz = 1066;       ///< bus clock (data rate is 2x)
    std::uint32_t channels = 4;        ///< 2 for quad-core bundles
    std::uint32_t ranksPerChannel = 4; ///< quad rank per channel
    std::uint32_t banksPerRank = 8;
    std::uint32_t rowBytes = 1024;     ///< row buffer size
    std::uint32_t queueEntries = 64;   ///< transaction queue entries
    /**
     * Row policy: open page (Table 3) keeps rows open after a CAS;
     * closed page auto-precharges when no other queued transaction
     * targets the open row, trading row-hit opportunity for faster
     * conflicts (an ablation knob, not a paper configuration).
     */
    bool closedPage = false;
    /** Interleaving granularity (page per Table 3). */
    AddressMapKind mapKind = AddressMapKind::PageInterleave;
    /**
     * True (the paper's Table 3 controller): one 64-entry transaction
     * queue; writebacks arbitrate like any other transaction, so they
     * delay reads. False: a modern split write buffer drained under a
     * high/low watermark, which keeps writes off the read path.
     */
    bool unifiedQueue = true;
    DramTiming t;

    /** Construct the timing/bus parameters for a speed grade. */
    static DramConfig preset(DramSpeed speed);

    /** Append structured errors for out-of-range geometry/timing. */
    void validate(ConfigErrors &errors) const;
};

/** One level of cache (Tables 1 and 3). */
struct CacheConfig
{
    std::uint32_t sizeBytes = 0;
    std::uint32_t blockBytes = 64;
    std::uint32_t ways = 1;            ///< 1 = direct-mapped
    std::uint32_t latency = 1;         ///< round-trip, uncontended
    std::uint32_t mshrs = 16;
    std::uint32_t ports = 1;

    std::uint32_t sets() const { return sizeBytes / (blockBytes * ways); }

    /** Append structured errors; @p name labels the cache level. */
    void validate(const std::string &name, ConfigErrors &errors) const;
};

/** L2 stream prefetcher (Section 5.5; Srinath et al. style). */
struct PrefetchConfig
{
    bool enabled = false;
    std::uint32_t streams = 64;
    /**
     * Blocks ahead of the demand stream. The paper's aggressive
     * configuration uses 64, sized for 500M-instruction runs; the
     * default here is scaled to this simulator's shorter measurement
     * windows so that prefetches land before their demands arrive
     * (see DESIGN.md). Set to 64 to mirror the paper verbatim.
     */
    std::uint32_t distance = 8;
    std::uint32_t degree = 4;     ///< prefetches issued per trigger
};

/** Out-of-order core microarchitecture (Table 1). */
struct CoreConfig
{
    std::uint32_t freqMHz = 4266;       ///< 4.27 GHz
    std::uint32_t fetchWidth = 4;
    std::uint32_t issueWidth = 4;
    std::uint32_t commitWidth = 4;
    std::uint32_t robEntries = 128;
    std::uint32_t intIqEntries = 32;
    std::uint32_t fpIqEntries = 32;
    std::uint32_t lqEntries = 32;
    std::uint32_t sqEntries = 32;
    std::uint32_t intAlus = 2;
    std::uint32_t fpAlus = 2;
    std::uint32_t loadPorts = 2;
    std::uint32_t storePorts = 2;
    std::uint32_t branchUnits = 2;
    std::uint32_t intMuls = 1;
    std::uint32_t fpMuls = 1;
    std::uint32_t maxUnresolvedBranches = 24;
    std::uint32_t mispredictPenalty = 9;

    /** Append structured errors for degenerate core parameters. */
    void validate(ConfigErrors &errors) const;
};

/** Which criticality source feeds the memory scheduler (Section 2/3). */
enum class CritPredictor
{
    None,           ///< plain scheduler, no criticality
    NaiveForward,   ///< Sec 5.1: flag sent only once a load blocks
    CbpBinary,      ///< CBP, 1-bit annotation
    CbpBlockCount,  ///< CBP, # times load blocked the ROB head
    CbpLastStall,   ///< CBP, most recent stall duration
    CbpMaxStall,    ///< CBP, largest observed stall duration
    CbpTotalStall,  ///< CBP, accumulated stall cycles
    ClptBinary,     ///< Subramaniam et al. [29], binary threshold
    ClptConsumers,  ///< CLPT with consumer count as magnitude
};

const char *toString(CritPredictor pred);

/** One registered criticality predictor. */
struct PredictorInfo
{
    CritPredictor pred;
    /** Stable lower-case name used by CLIs and sweep specs. */
    const char *cliName;
    /** One-line description for --list output. */
    const char *desc;
};

/** Every predictor, in the CritPredictor declaration order. */
const std::vector<PredictorInfo> &predictorRegistry();

/** CLI/spec name of @p pred (e.g. "maxstall"). */
const char *cliName(CritPredictor pred);

/** Look up a predictor by CLI/spec name; nullopt when unknown. */
std::optional<CritPredictor> findCritPredictor(const std::string &name);

/** @return true when the predictor is one of the CBP annotations. */
bool isCbp(CritPredictor pred);

/** Criticality predictor configuration (Section 3). */
struct CritConfig
{
    CritPredictor predictor = CritPredictor::None;
    /** CBP/CLPT entries; 0 selects the unlimited fully-assoc. table. */
    std::uint32_t tableEntries = 64;
    /** Periodic full reset interval in CPU cycles; 0 disables. */
    std::uint64_t resetInterval = 0;
    /** CLPT: minimum direct consumers to mark a load critical. */
    std::uint32_t clptThreshold = 3;
    /**
     * Hardware counter width in bits; values saturate at 2^width - 1.
     * 0 = unbounded (the paper's main configurations, which instead
     * size the counter for the largest observed value, Table 5).
     * Section 5.3 mentions saturation as an unexplored option;
     * specs/ext-cbp.sweep explores it.
     */
    std::uint32_t counterWidth = 0;
    /**
     * Probabilistic accumulation for BlockCount/TotalStallTime (Riley
     * & Zilles [21], the other unexplored Section 5.3 option): apply
     * each update with probability 2^-probShift, scaled by 2^probShift
     * — an unbiased estimate that lets narrow counters track large
     * totals. 0 disables.
     */
    std::uint32_t probShift = 0;
};

/** Memory scheduling algorithms (Sections 3.2 and 5.8). */
enum class SchedAlgo
{
    Fcfs,          ///< strict oldest-first (lower-bound baseline)
    FrFcfs,        ///< baseline [22]
    CritCasRas,    ///< critical first, then CAS-over-RAS
    CasRasCrit,    ///< CAS-over-RAS first, criticality breaks ties
    ParBs,         ///< parallelism-aware batch scheduling [17]
    Tcm,           ///< thread cluster memory scheduling [12]
    TcmCrit,       ///< TCM + criticality-aware FR-FCFS tiebreak
    Ahb,           ///< adaptive history-based [8]
    Morse,         ///< self-optimizing RL scheduler [9,16]
    CritRl,        ///< MORSE + criticality features (Table 6)
    Atlas,         ///< least-attained-service ranking [11]
    Minimalist,    ///< MLP-ranked minimalist open-page [10]
    Bliss,         ///< blacklisting scheduler (Subramanian et al.)
    BatchCapRr,    ///< capped per-core batches served round-robin
    DynThreshCrit, ///< criticality FR-FCFS with adaptive threshold
};

const char *toString(SchedAlgo algo);

/**
 * Scheduler configuration: what a spec, flag or preset can set. Each
 * policy's own parameters are named defaults of its constructor
 * (src/sched/).
 */
struct SchedConfig
{
    SchedAlgo algo = SchedAlgo::FrFcfs;
    /** MORSE: ready commands evaluable per DRAM cycle (Fig. 11). */
    std::uint32_t morseMaxCommands = 24;
};

/**
 * Deliberate misbehaviours the fault-injection layer can introduce,
 * used to prove that each checker rule actually fires (src/check/).
 */
enum class FaultKind
{
    None,            ///< no fault injection
    DropCompletion,  ///< swallow a finished read's fill
    EarlyCas,        ///< issue a CAS one DRAM cycle before it is legal
    SkipRefresh,     ///< silently skip a due refresh
    StarveCore,      ///< never schedule requests from a victim core
    FlipCrit,        ///< zero a criticality level during promotion
    CrashWorker,     ///< raise SIGSEGV mid-simulation (containment test)
    HogMemory,       ///< allocate unboundedly mid-simulation (oom test)
};

const char *toString(FaultKind kind);

/** Look up a fault kind by its toString() name; nullopt if unknown. */
std::optional<FaultKind> findFaultKind(const std::string &name);

/**
 * Validation-harness configuration: the DRAM protocol invariant
 * checker, the forward-progress watchdog, and fault injection.
 */
struct CheckConfig
{
    /** Attach the ProtocolChecker (and watchdog) to every channel. */
    bool enabled = false;
    /** Throw CheckViolation on the first violation (else record). */
    bool failFast = true;
    /**
     * Forward-progress watchdog: DRAM cycles a channel with queued
     * work may go without issuing a command or popping a completion.
     */
    std::uint64_t watchdogCycles = 200000;
    /** CPU cycles the whole system may go without a single commit. */
    std::uint64_t commitWatchdogCycles = 4'000'000;
    /** Max DRAM cycles any request may sit in a transaction queue. */
    std::uint64_t starvationCycles = 200000;

    /** Which fault to inject; None leaves the channel honest. */
    FaultKind fault = FaultKind::None;
    /** Mean opportunities between injections (1 = every time). */
    std::uint64_t faultPeriod = 64;
    /** Victim core for FaultKind::StarveCore. */
    CoreId faultVictim = 0;

    /** Append structured errors for inconsistent checker settings. */
    void validate(ConfigErrors &errors) const;
};

/** Whole-system configuration. */
struct SystemConfig
{
    std::uint32_t numCores = 8;
    std::uint64_t seed = 1;
    /**
     * Event-driven cycle skipping: run() fast-forwards across windows
     * every component certifies idle via nextEventCycle(). Statistics
     * are bulk-replayed, so results are bit-identical with the flag
     * off (enforced by the Skip.Equivalence test); disable to force
     * the plain tick-every-cycle loop when debugging.
     */
    bool fastForward = true;
    /** Dirty share of the prewarmed L2 (sets the writeback share). */
    double prewarmDirtyFrac = 0.12;
    /** When set, every synthetic app's AppParams::burstiness. */
    std::optional<double> burstiness;
    CoreConfig core;
    CacheConfig il1;
    CacheConfig dl1;
    CacheConfig l2;
    PrefetchConfig prefetch;
    DramConfig dram;
    SchedConfig sched;
    CritConfig crit;
    CheckConfig check;

    /** CPU cycles per DRAM bus cycle, rounded to nearest integer. */
    std::uint32_t
    cpuPerDramCycle() const
    {
        return (core.freqMHz + dram.busMHz / 2) / dram.busMHz;
    }

    /**
     * Paper-default 8-core system: Table 1 core, 32 kB L1s, 4 MB
     * shared L2, quad-channel quad-rank DDR3-2133 (Table 3).
     */
    static SystemConfig parallelDefault();

    /**
     * 4-core multiprogrammed variant (Section 5.8.2): two DRAM
     * channels and half the L2 MSHRs, preserving the 2:1 core:channel
     * ratio.
     */
    static SystemConfig multiprogDefault();

    /**
     * Validate every configuration block. Returns all problems found
     * (empty = valid). System, DramSystem and MemHierarchy enforce it
     * at construction (validateOrFatal).
     */
    ConfigErrors validate() const;
};

/**
 * fatal() with every validation error when @p cfg is inconsistent;
 * otherwise return @p cfg, so a constructor can validate in its
 * initializer list before any member is sized from the config.
 */
const SystemConfig &validateOrFatal(const SystemConfig &cfg);

/** validateOrFatal() for a DRAM subsystem's own config. */
const DramConfig &validateOrFatal(const DramConfig &cfg);

} // namespace critmem

#endif // CRITMEM_SIM_CONFIG_HH
