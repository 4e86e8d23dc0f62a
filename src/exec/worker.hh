/**
 * @file
 * Process-isolated job execution: the supervisor side of
 * `critmem-sweep --isolate`.
 *
 * Each job runs in a forked worker process that streams its finished
 * JobRecord — encoded exactly like a journal line, checksum and all —
 * back over a pipe, then _exit()s. A worker that segfaults, exhausts
 * its memory budget or wedges takes down only itself: the supervisor
 * reaps it via waitpid, classifies the wait status into the failure
 * taxonomy (crashed / oom / timeout / exit(N)) and the campaign keeps
 * going. Resource governance is applied inside the child before the
 * job starts: RLIMIT_AS for `--job-mem-mb` (relative to the pre-fork
 * baseline VM size, so sanitizer shadow mappings do not count against
 * the budget) and an RLIMIT_CPU backstop derived from `--timeout` in
 * case the supervisor's wall-clock watchdog dies with the supervisor.
 *
 * Failure forensics: the child installs async-signal-safe crash
 * handlers (SIGSEGV/SIGBUS/SIGILL/SIGFPE/SIGABRT) that write a
 * backtrace down the pipe before re-raising, and the supervisor
 * attaches it — with absolute addresses stripped, so the record bytes
 * stay deterministic under ASLR — to the failure record next to the
 * ready-to-paste critmem-sim repro line.
 *
 * Byte-identity contract: a record produced by an isolated worker is
 * decoded from the same checksummed encoding the journal uses, so
 * result files are identical with and without --isolate for any
 * --jobs value. See DESIGN.md ("Process-isolated job execution").
 */

#ifndef CRITMEM_EXEC_WORKER_HH
#define CRITMEM_EXEC_WORKER_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "exec/job.hh"

namespace critmem::exec
{

/** Resource limits applied inside a forked worker before its job. */
struct WorkerLimits
{
    /**
     * Address-space budget in MiB above the supervisor's VM size at
     * fork time (RLIMIT_AS); 0 = unlimited. Relative because ASan /
     * TSan map terabytes of shadow up front — an absolute budget
     * would starve every sanitized job before it allocated a byte.
     */
    std::uint64_t memMb = 0;
    /**
     * CPU-time backstop in seconds (RLIMIT_CPU soft limit; the hard
     * limit adds a 5 s SIGKILL grace); 0 = none. The supervisor's
     * wall-clock watchdog normally fires first — this catches a
     * spinning worker whose supervisor died.
     */
    std::uint64_t cpuSeconds = 0;
};

/** Outcome of one isolated (out-of-process) job execution. */
struct IsolatedRun
{
    /**
     * The worker died on a SIGKILL the supervisor did not send (an
     * operator, or the kernel OOM killer). The execution never
     * happened from the campaign's accounting viewpoint: the caller
     * runs the job again, keeping result files byte-identical to a
     * run where nobody interfered.
     */
    bool externalKill = false;
    /** The classified record. */
    JobRecord record;
};

/**
 * Run one job in a forked, resource-governed worker process and
 * block until it is reaped. The child runs runJob() and streams its
 * record back. When the runner raises @p cancel, the worker's whole
 * process group is SIGKILLed and the record is a Timeout; the caller
 * knows whether the cancel was a timeout or a shutdown drain.
 * Never throws: every failure mode becomes a classified record.
 */
IsolatedRun runJobIsolated(const JobSpec &spec, std::size_t index,
                           const WorkerLimits &limits,
                           const std::atomic<bool> *cancel);

/**
 * Classify a waitpid() status (for a worker that streamed no intact
 * record) into the failure taxonomy and a human-readable detail:
 * SIGXCPU -> Timeout (the RLIMIT_CPU backstop), any other signal ->
 * Crashed with the signal name, plain exit -> Exit with the code.
 * Split out for unit testing; @p limits shapes the messages.
 */
JobStatus classifyWaitStatus(int wstatus, const WorkerLimits &limits,
                             std::string &detail);

/**
 * SIGKILL every live worker process group. Async-signal-safe (a scan
 * over a fixed array of lock-free atomics plus kill()): this is what
 * the second SIGINT during a graceful drain calls so isolated
 * workers die with the supervisor instead of being orphaned.
 */
void killWorkerGroups();

} // namespace critmem::exec

#endif // CRITMEM_EXEC_WORKER_HH
