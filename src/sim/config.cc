#include "sim/config.hh"

#include <cmath>

#include "sim/log.hh"

namespace critmem
{

const char *
toString(DramSpeed speed)
{
    switch (speed) {
      case DramSpeed::DDR3_1066: return "DDR3-1066";
      case DramSpeed::DDR3_1600: return "DDR3-1600";
      case DramSpeed::DDR3_2133: return "DDR3-2133";
    }
    return "DDR3-?";
}

const char *
cliName(DramSpeed speed)
{
    switch (speed) {
      case DramSpeed::DDR3_1066: return "ddr3-1066";
      case DramSpeed::DDR3_1600: return "ddr3-1600";
      case DramSpeed::DDR3_2133: return "ddr3-2133";
    }
    return "?";
}

std::optional<DramSpeed>
findDramSpeed(const std::string &name)
{
    if (name == "ddr3-1066") return DramSpeed::DDR3_1066;
    if (name == "ddr3-1600") return DramSpeed::DDR3_1600;
    if (name == "ddr3-2133") return DramSpeed::DDR3_2133;
    return std::nullopt;
}

const char *
toString(CritPredictor pred)
{
    switch (pred) {
      case CritPredictor::None:          return "None";
      case CritPredictor::NaiveForward:  return "NaiveForward";
      case CritPredictor::CbpBinary:     return "Binary";
      case CritPredictor::CbpBlockCount: return "BlockCount";
      case CritPredictor::CbpLastStall:  return "LastStallTime";
      case CritPredictor::CbpMaxStall:   return "MaxStallTime";
      case CritPredictor::CbpTotalStall: return "TotalStallTime";
      case CritPredictor::ClptBinary:    return "CLPT-Binary";
      case CritPredictor::ClptConsumers: return "CLPT-Consumers";
    }
    return "?";
}

const std::vector<PredictorInfo> &
predictorRegistry()
{
    static const std::vector<PredictorInfo> registry = {
        {CritPredictor::None, "none",
         "no criticality information"},
        {CritPredictor::NaiveForward, "naive",
         "Sec 5.1: flag sent only once a load blocks"},
        {CritPredictor::CbpBinary, "binary",
         "CBP, 1-bit annotation"},
        {CritPredictor::CbpBlockCount, "blockcount",
         "CBP, # times load blocked the ROB head"},
        {CritPredictor::CbpLastStall, "laststall",
         "CBP, most recent stall duration"},
        {CritPredictor::CbpMaxStall, "maxstall",
         "CBP, largest observed stall duration (the paper's best)"},
        {CritPredictor::CbpTotalStall, "totalstall",
         "CBP, accumulated stall cycles"},
        {CritPredictor::ClptBinary, "clpt-binary",
         "Subramaniam et al. [29], binary threshold"},
        {CritPredictor::ClptConsumers, "clpt-consumers",
         "CLPT with consumer count as magnitude"},
    };
    return registry;
}

const char *
cliName(CritPredictor pred)
{
    for (const PredictorInfo &info : predictorRegistry()) {
        if (info.pred == pred)
            return info.cliName;
    }
    return "?";
}

std::optional<CritPredictor>
findCritPredictor(const std::string &name)
{
    for (const PredictorInfo &info : predictorRegistry()) {
        if (name == info.cliName)
            return info.pred;
    }
    return std::nullopt;
}

bool
isCbp(CritPredictor pred)
{
    switch (pred) {
      case CritPredictor::CbpBinary:
      case CritPredictor::CbpBlockCount:
      case CritPredictor::CbpLastStall:
      case CritPredictor::CbpMaxStall:
      case CritPredictor::CbpTotalStall:
        return true;
      default:
        return false;
    }
}

const char *
toString(SchedAlgo algo)
{
    switch (algo) {
      case SchedAlgo::Fcfs:       return "FCFS";
      case SchedAlgo::FrFcfs:     return "FR-FCFS";
      case SchedAlgo::CritCasRas: return "Crit-CASRAS";
      case SchedAlgo::CasRasCrit: return "CASRAS-Crit";
      case SchedAlgo::ParBs:      return "PAR-BS";
      case SchedAlgo::Tcm:        return "TCM";
      case SchedAlgo::TcmCrit:    return "TCM+Crit";
      case SchedAlgo::Ahb:        return "AHB";
      case SchedAlgo::Morse:      return "MORSE-P";
      case SchedAlgo::CritRl:     return "Crit-RL";
      case SchedAlgo::Atlas:      return "ATLAS";
      case SchedAlgo::Minimalist: return "Minimalist";
      case SchedAlgo::Bliss:      return "BLISS";
      case SchedAlgo::BatchCapRr: return "BatchCap-RR";
      case SchedAlgo::DynThreshCrit: return "DynThresh-Crit";
    }
    return "?";
}

const char *
toString(FaultKind kind)
{
    switch (kind) {
      case FaultKind::None:           return "none";
      case FaultKind::DropCompletion: return "drop-completion";
      case FaultKind::EarlyCas:       return "early-cas";
      case FaultKind::SkipRefresh:    return "skip-refresh";
      case FaultKind::StarveCore:     return "starve-core";
      case FaultKind::FlipCrit:       return "flip-crit";
      case FaultKind::CrashWorker:    return "crash-worker";
      case FaultKind::HogMemory:      return "hog-memory";
    }
    return "?";
}

std::optional<FaultKind>
findFaultKind(const std::string &name)
{
    for (const FaultKind kind :
         {FaultKind::DropCompletion, FaultKind::EarlyCas,
          FaultKind::SkipRefresh, FaultKind::StarveCore,
          FaultKind::FlipCrit, FaultKind::CrashWorker,
          FaultKind::HogMemory}) {
        if (name == toString(kind))
            return kind;
    }
    return std::nullopt;
}

namespace
{

/**
 * Scale a DDR3-2133 cycle count to another bus frequency at constant
 * latency in nanoseconds, rounding up as a real controller would.
 */
std::uint32_t
// lint:allow(narrow-cycle): scales bounded Table 3 timing parameters
scaleCycles(std::uint32_t cycles2133, std::uint32_t busMHz)
{
    const double ns = static_cast<double>(cycles2133) / 1066.0 * 1000.0;
    return static_cast<std::uint32_t>(
        std::ceil(ns * busMHz / 1000.0 - 1e-9));
}

} // namespace

DramConfig
DramConfig::preset(DramSpeed speed)
{
    DramConfig cfg;
    cfg.speed = speed;
    switch (speed) {
      case DramSpeed::DDR3_2133: cfg.busMHz = 1066; break;
      case DramSpeed::DDR3_1600: cfg.busMHz = 800; break;
      case DramSpeed::DDR3_1066: cfg.busMHz = 533; break;
    }
    if (speed != DramSpeed::DDR3_2133) {
        DramTiming t; // DDR3-2133 reference values from Table 3
        cfg.t.tRCD = scaleCycles(t.tRCD, cfg.busMHz);
        cfg.t.tCL = scaleCycles(t.tCL, cfg.busMHz);
        cfg.t.tWL = scaleCycles(t.tWL, cfg.busMHz);
        cfg.t.tCCD = std::max(scaleCycles(t.tCCD, cfg.busMHz), 4u);
        cfg.t.tWTR = scaleCycles(t.tWTR, cfg.busMHz);
        cfg.t.tWR = scaleCycles(t.tWR, cfg.busMHz);
        cfg.t.tRTP = scaleCycles(t.tRTP, cfg.busMHz);
        cfg.t.tRP = scaleCycles(t.tRP, cfg.busMHz);
        cfg.t.tRRD = scaleCycles(t.tRRD, cfg.busMHz);
        cfg.t.tFAW = scaleCycles(t.tFAW, cfg.busMHz);
        cfg.t.tRTRS = scaleCycles(t.tRTRS, cfg.busMHz);
        cfg.t.tRAS = scaleCycles(t.tRAS, cfg.busMHz);
        // Independent round-up can leave tRC a cycle short of
        // tRAS + tRP (e.g. DDR3-1600: 38 < 28 + 11); a real row
        // cycle can never beat restore + precharge, so clamp.
        cfg.t.tRC = std::max(scaleCycles(t.tRC, cfg.busMHz),
                             cfg.t.tRAS + cfg.t.tRP);
        cfg.t.tRFC = scaleCycles(t.tRFC, cfg.busMHz);
        cfg.t.tREFI = scaleCycles(t.tREFI, cfg.busMHz);
    }
    return cfg;
}

SystemConfig
SystemConfig::parallelDefault()
{
    SystemConfig cfg;
    cfg.numCores = 8;

    cfg.il1.sizeBytes = 32 * 1024;
    cfg.il1.blockBytes = 32;
    cfg.il1.ways = 1;
    cfg.il1.latency = 2;
    cfg.il1.mshrs = 16;
    cfg.il1.ports = 1;

    cfg.dl1.sizeBytes = 32 * 1024;
    cfg.dl1.blockBytes = 32;
    cfg.dl1.ways = 4;
    cfg.dl1.latency = 3;
    cfg.dl1.mshrs = 16;
    cfg.dl1.ports = 2;

    cfg.l2.sizeBytes = 4 * 1024 * 1024;
    cfg.l2.blockBytes = 64;
    cfg.l2.ways = 8;
    cfg.l2.latency = 32;
    cfg.l2.mshrs = 64;
    cfg.l2.ports = 4;

    cfg.dram = DramConfig::preset(DramSpeed::DDR3_2133);
    return cfg;
}

SystemConfig
SystemConfig::multiprogDefault()
{
    SystemConfig cfg = parallelDefault();
    cfg.numCores = 4;
    cfg.dram.channels = 2;
    cfg.l2.mshrs = 32;
    return cfg;
}

namespace
{

void
addError(ConfigErrors &errors, std::string field, std::string message)
{
    errors.push_back(ConfigError{std::move(field), std::move(message)});
}

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

void
DramTiming::validate(ConfigErrors &errors) const
{
    const struct { const char *name; std::uint32_t value; } nonzero[] = {
        {"tRCD", tRCD}, {"tCL", tCL}, {"tWL", tWL}, {"tCCD", tCCD},
        {"tWTR", tWTR}, {"tWR", tWR}, {"tRTP", tRTP}, {"tRP", tRP},
        {"tRRD", tRRD}, {"tFAW", tFAW}, {"tRAS", tRAS}, {"tRC", tRC},
        {"tRFC", tRFC}, {"tREFI", tREFI},
    };
    for (const auto &[name, value] : nonzero) {
        if (value == 0)
            addError(errors, std::string("dram.t.") + name,
                     "must be nonzero");
    }
    if (burstLength == 0 || burstLength % 2 != 0)
        addError(errors, "dram.t.burstLength",
                 "must be a nonzero even burst length");
    if (tCCD < dataCycles())
        addError(errors, "dram.t.tCCD",
                 "back-to-back CAS would overlap on the data bus "
                 "(tCCD >= burstLength / 2)");
    if (tRAS < tRCD + tCCD)
        addError(errors, "dram.t.tRAS",
                 "row must stay open at least tRCD + tCCD to serve one "
                 "CAS (tRAS >= tRCD + tCCD)");
    if (tRC < tRAS + tRP)
        addError(errors, "dram.t.tRC",
                 "ACT-to-ACT must cover the row cycle (tRC >= tRAS + "
                 "tRP)");
    // DramChannel keeps tRRD as one rank-wide window that also covers
    // the activating bank, whose own tRC must then dominate it.
    if (tRC < tRRD)
        addError(errors, "dram.t.tRC",
                 "ACT-to-ACT on one bank must not be shorter than on "
                 "two banks of a rank (tRC >= tRRD)");
    if (tFAW < 4 * tRRD)
        addError(errors, "dram.t.tFAW",
                 "four-activate window would never bind (tFAW >= "
                 "4 * tRRD)");
    if (tREFI <= tRFC)
        addError(errors, "dram.t.tREFI",
                 "refresh interval must exceed the refresh cycle time");
}

void
DramConfig::validate(ConfigErrors &errors) const
{
    if (busMHz == 0)
        addError(errors, "dram.busMHz", "must be nonzero");
    if (channels == 0)
        addError(errors, "dram.channels", "must be nonzero");
    if (ranksPerChannel == 0)
        addError(errors, "dram.ranksPerChannel", "must be nonzero");
    if (banksPerRank == 0)
        addError(errors, "dram.banksPerRank", "must be nonzero");
    if (!isPow2(rowBytes))
        addError(errors, "dram.rowBytes",
                 "must be a nonzero power of two");
    if (queueEntries == 0)
        addError(errors, "dram.queueEntries", "must be nonzero");
    t.validate(errors);
    // DDR3 retires its 8192 refresh commands in one 64 ms window.
    if (busMHz != 0 && t.tREFI != 0) {
        const double windowMs = 8192.0 * t.tREFI / (busMHz * 1000.0);
        if (std::abs(windowMs - 64.0) > 0.64)
            addError(errors, "dram.t.tREFI",
                     "8192 refresh intervals must span 64 ms (+/- 1%) "
                     "at busMHz, got " + std::to_string(windowMs) +
                         " ms");
    }
}

void
CacheConfig::validate(const std::string &name,
                      ConfigErrors &errors) const
{
    if (!isPow2(blockBytes))
        addError(errors, name + ".blockBytes",
                 "must be a nonzero power of two");
    if (ways == 0)
        addError(errors, name + ".ways", "must be nonzero");
    else if (ways > 256)
        addError(errors, name + ".ways",
                 "must be at most 256 (one-byte LRU ranks)");
    if (sizeBytes == 0)
        addError(errors, name + ".sizeBytes", "must be nonzero");
    else if (blockBytes != 0 && ways != 0 &&
             (sizeBytes % (blockBytes * ways) != 0 ||
              sets() == 0 || !isPow2(sets())))
        addError(errors, name + ".sizeBytes",
                 "must yield a nonzero power-of-two set count "
                 "(sizeBytes / (blockBytes * ways))");
    if (latency == 0)
        addError(errors, name + ".latency",
                 "must be nonzero (an access takes at least a cycle)");
    if (mshrs == 0)
        addError(errors, name + ".mshrs", "must be nonzero");
    if (ports == 0)
        addError(errors, name + ".ports", "must be nonzero");
}

void
CoreConfig::validate(ConfigErrors &errors) const
{
    const struct { const char *name; std::uint32_t value; } nonzero[] = {
        {"freqMHz", freqMHz}, {"fetchWidth", fetchWidth},
        {"issueWidth", issueWidth}, {"commitWidth", commitWidth},
        {"robEntries", robEntries}, {"intIqEntries", intIqEntries},
        {"fpIqEntries", fpIqEntries}, {"lqEntries", lqEntries},
        {"sqEntries", sqEntries}, {"intAlus", intAlus},
        {"fpAlus", fpAlus}, {"loadPorts", loadPorts},
        {"storePorts", storePorts}, {"branchUnits", branchUnits},
        {"intMuls", intMuls}, {"fpMuls", fpMuls},
        {"maxUnresolvedBranches", maxUnresolvedBranches},
    };
    for (const auto &[name, value] : nonzero) {
        if (value == 0)
            addError(errors, std::string("core.") + name,
                     "must be nonzero");
    }
    if (robEntries < fetchWidth)
        addError(errors, "core.robEntries",
                 "must hold at least one fetch group");
}

void
CheckConfig::validate(ConfigErrors &errors) const
{
    if (enabled && watchdogCycles == 0)
        addError(errors, "check.watchdogCycles",
                 "must be nonzero when checking is enabled");
    if (enabled && commitWatchdogCycles == 0)
        addError(errors, "check.commitWatchdogCycles",
                 "must be nonzero when checking is enabled");
    if (enabled && starvationCycles == 0)
        addError(errors, "check.starvationCycles",
                 "must be nonzero when checking is enabled");
    if (fault != FaultKind::None && faultPeriod == 0)
        addError(errors, "check.faultPeriod",
                 "must be nonzero when a fault is injected");
}

ConfigErrors
SystemConfig::validate() const
{
    ConfigErrors errors;
    if (numCores == 0)
        addError(errors, "numCores", "must be nonzero");
    core.validate(errors);
    il1.validate("il1", errors);
    dl1.validate("dl1", errors);
    l2.validate("l2", errors);
    dram.validate(errors);
    check.validate(errors);
    if (core.freqMHz != 0 && dram.busMHz != 0 &&
        core.freqMHz < dram.busMHz)
        addError(errors, "core.freqMHz",
                 "CPU clock must be at least the DRAM bus clock");
    if (prefetch.enabled) {
        if (prefetch.streams == 0)
            addError(errors, "prefetch.streams", "must be nonzero");
        if (prefetch.distance == 0)
            addError(errors, "prefetch.distance", "must be nonzero");
        if (prefetch.degree == 0)
            addError(errors, "prefetch.degree", "must be nonzero");
    }
    if (prewarmDirtyFrac < 0.0 || prewarmDirtyFrac > 1.0)
        addError(errors, "prewarmDirtyFrac", "must lie in [0, 1]");
    if (burstiness && (*burstiness < 0.0 || *burstiness > 1.0))
        addError(errors, "burstiness", "must lie in [0, 1]");
    if (crit.probShift >= 32)
        addError(errors, "crit.probShift", "must be below 32");
    if (crit.counterWidth > 64)
        addError(errors, "crit.counterWidth", "must be at most 64");
    if (sched.morseMaxCommands == 0)
        addError(errors, "sched.morseMaxCommands", "must be nonzero");
    if (check.fault == FaultKind::StarveCore &&
        check.faultVictim >= numCores)
        addError(errors, "check.faultVictim",
                 "victim core id must be below numCores");
    return errors;
}

namespace
{

void
fatalOnErrors(const ConfigErrors &errors)
{
    if (errors.empty())
        return;
    std::string joined;
    for (const ConfigError &error : errors) {
        joined += "\n  ";
        joined += error.field;
        joined += ": ";
        joined += error.message;
    }
    fatal("invalid configuration (", errors.size(), " error",
          errors.size() == 1 ? "" : "s", "):", joined);
}

} // namespace

const SystemConfig &
validateOrFatal(const SystemConfig &cfg)
{
    fatalOnErrors(cfg.validate());
    return cfg;
}

const DramConfig &
validateOrFatal(const DramConfig &cfg)
{
    ConfigErrors errors;
    cfg.validate(errors);
    fatalOnErrors(errors);
    return cfg;
}

} // namespace critmem
