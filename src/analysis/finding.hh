/**
 * @file
 * Core types of the critmem-lint static-analysis pass: a Finding is
 * one rule violation at one source location, and RuleMeta describes a
 * registered rule (id, default severity, one-line rationale).
 */

#ifndef CRITMEM_ANALYSIS_FINDING_HH
#define CRITMEM_ANALYSIS_FINDING_HH

#include <ostream>
#include <string>

namespace critmem::analysis
{

/**
 * Severity of a finding. Error findings fail the `lint` build target;
 * Warning findings are reported but never affect the exit status.
 */
enum class Severity { Warning, Error };

const char *toString(Severity severity);

/** One rule violation at one location. */
struct Finding
{
    /** Stable rule id, e.g. "wall-clock". */
    std::string rule;
    Severity severity = Severity::Error;
    /** Repo-relative path with '/' separators ("" for repo-level). */
    std::string path;
    /** 1-based line number; 0 when the finding is not line-anchored. */
    int line = 0;
    std::string message;
};

/** Render as "path:line: severity: [rule] message" (clickable). */
std::ostream &operator<<(std::ostream &os, const Finding &finding);

/** Stable report order: path, then line, then rule, then message. */
bool findingLess(const Finding &a, const Finding &b);

/** Static description of one registered rule. */
struct RuleMeta
{
    /** Stable lower-case id used in reports and suppressions. */
    const char *id;
    Severity severity;
    /** One-line rationale for --list-rules. */
    const char *desc;
};

} // namespace critmem::analysis

#endif // CRITMEM_ANALYSIS_FINDING_HH
