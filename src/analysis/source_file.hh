/**
 * @file
 * Lexical model of one C++ source file as seen by the lint pass.
 *
 * Rules never parse C++ properly (no libclang in the build image, by
 * design); instead they pattern-match over a "code view" of the file
 * in which comments and string/character literals have been blanked
 * to spaces, so that a forbidden token inside a comment or a log
 * string can never fire a rule. Suppressions are read from the
 * comments while they are being blanked. A suppression is the tag
 * lint:allow or lint:allow-file followed directly by a parenthesised,
 * comma-separated list of rule ids, then ": reason". A lint:allow
 * after code guards that line; one in a comment standing alone guards
 * that line and the next code line; lint:allow-file guards the whole
 * file. (No example tag is written out here: a tag naming no
 * registered rule is itself a finding.)
 *
 * Every lint:allow site is also recorded (with the lines it ends up
 * guarding) so the analyzer can flag suppressions that no longer
 * suppress anything (the stale-suppression finding).
 */

#ifndef CRITMEM_ANALYSIS_SOURCE_FILE_HH
#define CRITMEM_ANALYSIS_SOURCE_FILE_HH

#include <set>
#include <string>
#include <vector>

namespace critmem::analysis
{

/** One lint:allow / lint:allow-file suppression site. */
struct AllowSite
{
    /** Rule id named inside the tag's parentheses. */
    std::string rule;
    /** 1-based line of the comment that declares the suppression. */
    int line = 0;
    /** True for lint:allow-file. */
    bool wholeFile = false;
    /** 1-based lines this site guards (empty for wholeFile). */
    std::vector<int> applies;
};

/** One loaded source file plus its lint-relevant derived views. */
struct SourceFile
{
    /** Repo-relative path with '/' separators. */
    std::string path;
    /** Raw text split into lines (no trailing '\n'). */
    std::vector<std::string> lines;
    /** lines with comments and literals blanked to spaces. */
    std::vector<std::string> code;
    /** Per-line suppressed rule ids (index = line number - 1). */
    std::vector<std::set<std::string>> allow;
    /** File-wide suppressed rule ids. */
    std::set<std::string> allowFile;
    /** Every suppression site, in source order (staleness check). */
    std::vector<AllowSite> allowSites;

    /** True for .hh/.h/.hpp files. */
    bool isHeader() const;

    /** True when @p rule is suppressed at 1-based @p line. */
    bool suppressed(const std::string &rule, int line) const;

    /** The whole code view joined with '\n' (for cross-line regexes). */
    std::string joinedCode() const;

    /** 1-based line number containing @p offset of joinedCode(). */
    int lineOfOffset(std::size_t offset) const;
};

/** Build a SourceFile from in-memory text (fixture tests). */
SourceFile makeSourceFile(std::string path, const std::string &text);

/**
 * Load @p absPath from disk, recording it as @p relPath.
 * Throws std::runtime_error when unreadable.
 */
SourceFile loadSourceFile(const std::string &absPath,
                          std::string relPath);

} // namespace critmem::analysis

#endif // CRITMEM_ANALYSIS_SOURCE_FILE_HH
