#include "sched/registry.hh"

#include "sched/ahb.hh"
#include "sched/atlas.hh"
#include "sched/batch_cap_rr.hh"
#include "sched/bliss.hh"
#include "sched/crit_frfcfs.hh"
#include "sched/dyn_thresh.hh"
#include "sched/frfcfs.hh"
#include "sched/minimalist.hh"
#include "sched/morse.hh"
#include "sched/parbs.hh"
#include "sched/tcm.hh"
#include "sim/log.hh"

namespace critmem
{

std::unique_ptr<Scheduler>
makeScheduler(const SystemConfig &cfg)
{
    const SchedConfig &s = cfg.sched;
    switch (s.algo) {
      case SchedAlgo::Fcfs:
        return std::make_unique<FcfsScheduler>();
      case SchedAlgo::FrFcfs:
        return std::make_unique<FrFcfsScheduler>();
      case SchedAlgo::CritCasRas:
        return std::make_unique<CritFrFcfsScheduler>(CritOrder::CritFirst);
      case SchedAlgo::CasRasCrit:
        return std::make_unique<CritFrFcfsScheduler>(
            CritOrder::CasRasFirst);
      case SchedAlgo::ParBs:
        return std::make_unique<ParBsScheduler>(
            cfg.dram.channels, cfg.numCores, cfg.dram.banksPerRank);
      case SchedAlgo::Tcm:
        return std::make_unique<TcmScheduler>(cfg.numCores, false,
                                              cfg.seed);
      case SchedAlgo::TcmCrit:
        return std::make_unique<TcmScheduler>(cfg.numCores, true,
                                              cfg.seed);
      case SchedAlgo::Ahb:
        return std::make_unique<AhbScheduler>();
      case SchedAlgo::Morse:
        return std::make_unique<MorseScheduler>(
            cfg.dram.channels, cfg.dram.banksPerRank, s.morseMaxCommands,
            false, cfg.seed);
      case SchedAlgo::CritRl:
        return std::make_unique<MorseScheduler>(
            cfg.dram.channels, cfg.dram.banksPerRank, s.morseMaxCommands,
            true, cfg.seed);
      case SchedAlgo::Atlas:
        return std::make_unique<AtlasScheduler>(cfg.numCores);
      case SchedAlgo::Minimalist:
        return std::make_unique<MinimalistScheduler>(
            cfg.dram.channels, cfg.numCores, cfg.dram.banksPerRank);
      case SchedAlgo::Bliss:
        return std::make_unique<BlissScheduler>(cfg.dram.channels,
                                                cfg.numCores);
      case SchedAlgo::BatchCapRr:
        return std::make_unique<BatchCapRrScheduler>(cfg.dram.channels,
                                                     cfg.numCores);
      case SchedAlgo::DynThreshCrit:
        return std::make_unique<DynThreshCritScheduler>();
    }
    fatal("unknown scheduler algorithm");
}

const std::vector<SchedInfo> &
schedulerRegistry()
{
    static const std::vector<SchedInfo> registry = {
        {SchedAlgo::Fcfs, "fcfs", "FCFS",
         "strict oldest-first (lower-bound baseline)"},
        {SchedAlgo::FrFcfs, "frfcfs", "FR-FCFS",
         "first-ready FCFS baseline [22]"},
        {SchedAlgo::CritCasRas, "crit-casras", "Crit-CASRAS",
         "critical first, then CAS-over-RAS"},
        {SchedAlgo::CasRasCrit, "casras-crit", "CASRAS-Crit",
         "CAS-over-RAS first, criticality breaks ties (the paper's)"},
        {SchedAlgo::ParBs, "parbs", "PAR-BS",
         "parallelism-aware batch scheduling [17]"},
        {SchedAlgo::Tcm, "tcm", "TCM",
         "thread cluster memory scheduling [12]"},
        {SchedAlgo::TcmCrit, "tcm-crit", "TCM+Crit",
         "TCM + criticality-aware FR-FCFS tiebreak"},
        {SchedAlgo::Ahb, "ahb", "AHB",
         "adaptive history-based (Hur/Lin) [8]"},
        {SchedAlgo::Morse, "morse", "MORSE-P",
         "self-optimizing RL scheduler [9,16]"},
        {SchedAlgo::CritRl, "crit-rl", "Crit-RL",
         "MORSE + criticality features (Table 6)"},
        {SchedAlgo::Atlas, "atlas", "ATLAS",
         "least-attained-service ranking [11]"},
        {SchedAlgo::Minimalist, "minimalist", "Minimalist",
         "MLP-ranked minimalist open-page [10]"},
        {SchedAlgo::Bliss, "bliss", "BLISS",
         "blacklists request streaks, clears periodically"},
        {SchedAlgo::BatchCapRr, "batch-cap-rr", "BatchCap-RR",
         "capped per-core batches served round-robin"},
        {SchedAlgo::DynThreshCrit, "dyn-thresh-crit", "DynThresh-Crit",
         "criticality FR-FCFS with adaptive threshold"},
    };
    return registry;
}

const char *
cliName(SchedAlgo algo)
{
    for (const SchedInfo &info : schedulerRegistry()) {
        if (info.algo == algo)
            return info.cliName;
    }
    return "?";
}

std::optional<SchedAlgo>
findSchedAlgo(const std::string &name)
{
    for (const SchedInfo &info : schedulerRegistry()) {
        if (name == info.cliName)
            return info.algo;
    }
    return std::nullopt;
}

} // namespace critmem
