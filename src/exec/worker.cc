#include "exec/worker.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include <execinfo.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "exec/campaign.hh"

namespace critmem::exec
{

namespace
{

/**
 * Registry of live worker process groups, sized generously above any
 * plausible --jobs value. Lock-free atomics only: killWorkerGroups()
 * runs from the SIGINT handler, so everything it touches must be
 * async-signal-safe.
 */
constexpr std::size_t kMaxWorkerSlots = 512;
std::atomic<long> gWorkerGroups[kMaxWorkerSlots];

void
registerWorkerGroup(pid_t pid)
{
    for (std::atomic<long> &slot : gWorkerGroups) {
        long expected = 0;
        if (slot.compare_exchange_strong(expected,
                                         static_cast<long>(pid)))
            return;
    }
    // Registry full (would need > kMaxWorkerSlots concurrent
    // workers): the worker still runs, it just cannot be mass-killed
    // by the second-SIGINT path.
}

void
unregisterWorkerGroup(pid_t pid)
{
    for (std::atomic<long> &slot : gWorkerGroups) {
        long expected = static_cast<long>(pid);
        if (slot.compare_exchange_strong(expected, 0))
            return;
    }
}

/** Stable signal spelling (strsignal() is locale-dependent). */
const char *
signalName(int sig)
{
    switch (sig) {
      case SIGHUP:  return "SIGHUP";
      case SIGINT:  return "SIGINT";
      case SIGQUIT: return "SIGQUIT";
      case SIGILL:  return "SIGILL";
      case SIGTRAP: return "SIGTRAP";
      case SIGABRT: return "SIGABRT";
      case SIGBUS:  return "SIGBUS";
      case SIGFPE:  return "SIGFPE";
      case SIGKILL: return "SIGKILL";
      case SIGSEGV: return "SIGSEGV";
      case SIGPIPE: return "SIGPIPE";
      case SIGTERM: return "SIGTERM";
      case SIGXCPU: return "SIGXCPU";
      case SIGXFSZ: return "SIGXFSZ";
      case SIGSYS:  return "SIGSYS";
      default:      return nullptr;
    }
}

std::string
describeSignal(int sig)
{
    std::string out = "killed by signal " + std::to_string(sig);
    if (const char *name = signalName(sig))
        out += std::string(" (") + name + ")";
    return out;
}

/**
 * Current VM size of this process in bytes (/proc/self/statm), the
 * baseline the relative --job-mem-mb budget is applied on top of.
 * 0 when unreadable (the budget then falls back to absolute).
 */
std::uint64_t
currentVmBytes()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr)
        return 0;
    unsigned long long pages = 0;
    const int got = std::fscanf(f, "%llu", &pages);
    std::fclose(f);
    if (got != 1)
        return 0;
    const long pageSize = ::sysconf(_SC_PAGESIZE);
    return pages * static_cast<std::uint64_t>(
        pageSize > 0 ? pageSize : 4096);
}

/**
 * Strip bracketed absolute addresses ("[0x7f...]") from a backtrace
 * line: file-relative offsets ("binary(+0x1234)") are stable across
 * runs of the same build, absolute addresses move with ASLR and
 * would make failure records nondeterministic.
 */
std::string
sanitizeDiagLine(const std::string &line)
{
    std::string out;
    for (std::size_t i = 0; i < line.size(); ++i) {
        if (line[i] == '[' && i + 2 < line.size() &&
            line[i + 1] == '0' && line[i + 2] == 'x') {
            const std::size_t close = line.find(']', i);
            if (close != std::string::npos) {
                i = close;
                continue;
            }
        }
        out += line[i];
    }
    while (!out.empty() && (out.back() == ' ' || out.back() == '\r'))
        out.pop_back();
    return out;
}

/** write() the whole buffer, riding out EINTR and partial writes. */
void
writeAllFd(int fd, const char *data, std::size_t size)
{
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n = ::write(fd, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return; // supervisor gone (EPIPE): nothing left to tell
        }
        done += static_cast<std::size_t>(n);
    }
}

/** Pipe fd the crash handler writes its backtrace to. */
std::atomic<int> gCrashPipeFd{-1};

extern "C" void
onWorkerCrash(int sig)
{
    // Async-signal-safe only: write() and backtrace_symbols_fd()
    // (the unwinder was warmed up before handlers were installed, so
    // no lazy allocation happens here). SA_RESETHAND restored the
    // default action; re-raising terminates with the true signal so
    // the supervisor's waitpid sees WTERMSIG == sig.
    const int fd = gCrashPipeFd.load(std::memory_order_relaxed);
    if (fd >= 0) {
        static const char header[] = "worker backtrace:\n";
        writeAllFd(fd, header, sizeof(header) - 1);
        void *frames[64];
        const int depth = ::backtrace(frames, 64);
        ::backtrace_symbols_fd(frames, depth, fd);
    }
    ::raise(sig);
}

/**
 * The post-fork child: apply limits, run the job, stream the record,
 * terminate. Must never return into the supervisor's call stack —
 * two processes running the same campaign state would corrupt both.
 */
[[noreturn]] void
runWorkerChild(const JobSpec &spec, std::size_t index,
               const WorkerLimits &limits, std::uint64_t memLimitBytes,
               int fd)
{
    // Own process group: a terminal ^C (sent to the supervisor's
    // group) must not reach workers mid-drain, and it gives the
    // supervisor one handle to SIGKILL the worker and any helpers.
    ::setpgid(0, 0);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGPIPE, SIG_IGN);

    // Warm up the unwinder while ordinary allocation is still legal;
    // the crash handler may then call backtrace() safely.
    void *warm[4];
    ::backtrace(warm, 4);
    gCrashPipeFd.store(fd, std::memory_order_relaxed);
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onWorkerCrash;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESETHAND | SA_NODEFER;
    for (const int sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT})
        ::sigaction(sig, &sa, nullptr);

    if (memLimitBytes != 0) {
        struct rlimit lim;
        lim.rlim_cur = memLimitBytes;
        lim.rlim_max = memLimitBytes;
        ::setrlimit(RLIMIT_AS, &lim);
    }
    if (limits.cpuSeconds != 0) {
        struct rlimit lim;
        lim.rlim_cur = limits.cpuSeconds;
        lim.rlim_max = limits.cpuSeconds + 5;
        ::setrlimit(RLIMIT_CPU, &lim);
    }

    const std::string line = encodeJournalRecord(
        runJob(spec, index, nullptr, limits.memMb));
    writeAllFd(fd, line.data(), line.size());
    // lint:allow(no-terminate): the post-fork worker child must
    // terminate here; returning would run the supervisor's stack
    // (sinks, journal, joins) a second time in a second process.
    // _exit (not exit) so inherited stdio buffers are not re-flushed.
    ::_exit(0);
}

/** Split the pipe buffer into lines (a trailing partial line too). */
std::vector<std::string>
splitLines(const std::string &buffer)
{
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos < buffer.size()) {
        const std::size_t nl = buffer.find('\n', pos);
        const std::size_t end =
            nl == std::string::npos ? buffer.size() : nl;
        lines.push_back(buffer.substr(pos, end - pos));
        pos = nl == std::string::npos ? buffer.size() : nl + 1;
    }
    return lines;
}

} // namespace

JobStatus
classifyWaitStatus(int wstatus, const WorkerLimits &limits,
                   std::string &detail)
{
    if (WIFSIGNALED(wstatus)) {
        const int sig = WTERMSIG(wstatus);
        if (sig == SIGXCPU) {
            detail = "worker hit the RLIMIT_CPU backstop (" +
                std::to_string(limits.cpuSeconds) +
                "s CPU) and was killed (SIGXCPU)";
            return JobStatus::Timeout;
        }
        detail = describeSignal(sig);
        return JobStatus::Crashed;
    }
    if (WIFEXITED(wstatus)) {
        detail = "worker exited with status " +
            std::to_string(WEXITSTATUS(wstatus)) +
            " without streaming a result record";
        return JobStatus::Exit;
    }
    detail = "worker vanished with unrecognized wait status " +
        std::to_string(wstatus);
    return JobStatus::Crashed;
}

void
killWorkerGroups()
{
    for (std::atomic<long> &slot : gWorkerGroups) {
        const long pid = slot.load(std::memory_order_relaxed);
        if (pid > 0)
            ::kill(static_cast<pid_t>(-pid), SIGKILL);
    }
}

IsolatedRun
runJobIsolated(const JobSpec &spec, std::size_t index,
               const WorkerLimits &limits, const std::atomic<bool> *cancel)
{
    IsolatedRun out{false, newRecord(spec, index)};
    JobRecord &rec = out.record;

    const std::uint64_t memLimitBytes = limits.memMb == 0
        ? 0
        : currentVmBytes() + (limits.memMb << 20);

    int fds[2];
    if (::pipe(fds) != 0) {
        rec.status = JobStatus::Error;
        rec.error = std::string("cannot create worker pipe: ") +
            std::strerror(errno);
        return out;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        rec.status = JobStatus::Error;
        rec.error = std::string("cannot fork worker: ") +
            std::strerror(errno);
        return out;
    }
    if (pid == 0) {
        ::close(fds[0]);
        runWorkerChild(spec, index, limits, memLimitBytes, fds[1]);
    }
    ::close(fds[1]);
    // Both sides call setpgid to close the race between the fork and
    // the child's own call; EACCES just means the child won.
    ::setpgid(pid, pid);
    registerWorkerGroup(pid);

    const int fd = fds[0];
    std::string buffer;
    bool killedByUs = false;
    auto maybeKill = [&] {
        if (killedByUs || cancel == nullptr || !cancel->load())
            return;
        ::kill(-pid, SIGKILL);
        killedByUs = true;
    };
    for (bool eof = false; !eof;) {
        struct pollfd pfd;
        pfd.fd = fd;
        pfd.events = POLLIN;
        pfd.revents = 0;
        const int ready = ::poll(&pfd, 1, 100);
        if (ready > 0) {
            char chunk[4096];
            const ssize_t n = ::read(fd, chunk, sizeof(chunk));
            if (n > 0)
                buffer.append(chunk, static_cast<std::size_t>(n));
            else if (n == 0 || errno != EINTR)
                eof = true;
        }
        maybeKill();
    }
    ::close(fd);

    int wstatus = 0;
    for (;;) {
        const pid_t reaped = ::waitpid(pid, &wstatus, WNOHANG);
        if (reaped == pid)
            break;
        if (reaped < 0 && errno != EINTR) {
            wstatus = 0; // unreachable: pid is our un-reaped child
            break;
        }
        // EOF but still running: the worker closed its pipe end and
        // kept going. The cancel watchdog remains the way out.
        maybeKill();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    unregisterWorkerGroup(pid);

    if (killedByUs) {
        // A drain-deadline kill looks the same; the runner drops it.
        rec.status = JobStatus::Timeout;
        rec.error = "worker killed after exceeding the per-job "
                    "wall-clock budget (--timeout)";
        return out;
    }

    // Find the streamed record among the pipe lines; everything else
    // is diagnostic output (crash-handler backtrace, stray prints).
    std::vector<std::string> diag;
    bool haveRecord = false;
    for (const std::string &line : splitLines(buffer)) {
        if (!haveRecord && line.rfind("r1 ", 0) == 0) {
            try {
                JobRecord streamed = decodeJournalRecord(line);
                if (streamed.index == index &&
                    streamed.spec.name == spec.name &&
                    streamed.spec.cfg.seed == spec.cfg.seed) {
                    // Re-attach the full spec: the wire format (like
                    // the journal) only carries the identity fields.
                    streamed.spec = spec;
                    rec = std::move(streamed);
                    haveRecord = true;
                    continue;
                }
                diag.push_back("worker streamed a record for the "
                               "wrong job ('" + streamed.spec.name +
                               "')");
            } catch (const CampaignError &) {
                // Torn record line — the worker died mid-write. The
                // wait status below tells the real story.
                diag.push_back("worker record line failed its "
                               "checksum (torn write)");
            }
            continue;
        }
        const std::string clean = sanitizeDiagLine(line);
        if (!clean.empty() && diag.size() < 40)
            diag.push_back(clean);
    }
    if (haveRecord)
        return out;

    if (WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL) {
        // Not our kill (killedByUs was handled above): an operator or
        // the kernel OOM killer. Let the caller run it again.
        out.externalKill = true;
    }
    rec.status = classifyWaitStatus(wstatus, limits, rec.error);
    for (const std::string &line : diag)
        rec.error += "\n" + line;
    return out;
}

} // namespace critmem::exec
