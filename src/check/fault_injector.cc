#include "check/fault_injector.hh"

#include <csignal>
#include <new>

#include <sys/mman.h>

namespace critmem
{

ScriptedFaultInjector::ScriptedFaultInjector(const CheckConfig &cfg)
    : kind_(cfg.fault), period_(cfg.faultPeriod),
      victim_(cfg.faultVictim), rng_(kSeed)
{
}

ScriptedFaultInjector::~ScriptedFaultInjector()
{
    for (void *region : hog_)
        ::munmap(region, kHogChunkBytes);
}

bool
ScriptedFaultInjector::roll()
{
    if (period_ <= 1)
        return true;
    return rng_.below(period_) == 0;
}

bool
ScriptedFaultInjector::dropCompletion(const MemRequest &req,
                                      DramCycle now)
{
    (void)now;
    // Only reads have a consumer waiting on the fill; dropping a
    // writeback completion would be invisible to the processor side.
    if (kind_ != FaultKind::DropCompletion || req.type == ReqType::Write)
        return false;
    if (!roll())
        return false;
    ++injections_;
    return true;
}

void
ScriptedFaultInjector::processFault()
{
    if (++opportunities_ != period_)
        return;
    ++injections_;
    if (kind_ == FaultKind::CrashWorker) {
        // A deterministic "segfault": raising the signal directly
        // (instead of dereferencing null) keeps sanitizer runtimes
        // out of the picture, so an isolated worker dies with
        // WTERMSIG == SIGSEGV under ASan/TSan exactly as in a plain
        // build. Containment is the supervisor's job (exec/worker.cc).
        std::raise(SIGSEGV);
        return;
    }
    // HogMemory: grab address space until the per-job budget
    // (RLIMIT_AS, set by --job-mem-mb) is exhausted, then throw
    // bad_alloc so the isolated worker records status=oom. Raw mmap
    // instead of operator new keeps sanitizer runtimes out of the
    // failure path: ASan aborts (or deadlocks, when another thread
    // held its allocator lock across fork) on an internal mmap
    // failure before bad_alloc is reachable, so the heap route would
    // make the oom classification runtime-dependent. Without a budget
    // this really does try to exhaust memory — it exists to prove
    // containment, never run it outside --isolate --job-mem-mb.
    for (;;) {
        void *region = ::mmap(nullptr, kHogChunkBytes,
                              PROT_READ | PROT_WRITE,
                              MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (region == MAP_FAILED)
            throw std::bad_alloc();
        hog_.push_back(region);
    }
}

std::uint32_t
ScriptedFaultInjector::casSlack(DramCycle now)
{
    (void)now;
    if (kind_ == FaultKind::CrashWorker ||
        kind_ == FaultKind::HogMemory) {
        processFault();
        return 0;
    }
    if (kind_ != FaultKind::EarlyCas || !roll())
        return 0;
    ++injections_;
    return 1; // CAS eligibility opens one DRAM cycle early
}

bool
ScriptedFaultInjector::skipRefresh(std::uint32_t rank, DramCycle now)
{
    (void)rank; (void)now;
    if (kind_ != FaultKind::SkipRefresh || !roll())
        return false;
    ++injections_;
    return true;
}

bool
ScriptedFaultInjector::starveCore(CoreId core)
{
    // Deterministic (no roll): starvation only manifests when the
    // victim's requests are hidden persistently, not intermittently.
    if (kind_ != FaultKind::StarveCore || core != victim_)
        return false;
    ++injections_;
    return true;
}

bool
ScriptedFaultInjector::corruptPromotion(DramCycle now)
{
    (void)now;
    if (kind_ != FaultKind::FlipCrit || !roll())
        return false;
    ++injections_;
    return true;
}

} // namespace critmem
