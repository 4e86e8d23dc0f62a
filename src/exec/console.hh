/**
 * @file
 * Single mutex-guarded stderr writer for campaign drivers. The job
 * runner's progress line, worker respawn and circuit-breaker notices and the
 * tool-level summary/failure lines all funnel through one Console so
 * that no two threads ever interleave partial lines — and a sticky
 * progress line is cleanly erased before any full line is printed.
 */

#ifndef CRITMEM_EXEC_CONSOLE_HH
#define CRITMEM_EXEC_CONSOLE_HH

#include <mutex>
#include <string>

namespace critmem::exec
{

/** Process-wide serialized stderr writer (see file comment). */
class Console
{
  public:
    static Console &instance();

    /**
     * Print @p text as one whole line (newline appended), atomically
     * with respect to every other Console caller. Any sticky progress
     * line is erased first and redrawn by the next progress() call.
     */
    void line(const std::string &text);

    /** Replace the sticky single-line progress display. */
    void progress(const std::string &text);

    /** Terminate the progress line with a newline, if one is shown. */
    void close();

  private:
    Console() = default;

    std::mutex mutex_;
    /** Visible width of the currently shown progress line (0 = none). */
    std::size_t shown_ = 0;
};

} // namespace critmem::exec

#endif // CRITMEM_EXEC_CONSOLE_HH
