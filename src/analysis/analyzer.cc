#include "analysis/analyzer.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace critmem::analysis
{

namespace fs = std::filesystem;

bool
Baseline::covers(const Finding &finding) const
{
    return keys.count(finding.baselineKey()) > 0;
}

Baseline
loadBaseline(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read baseline " + path);
    Baseline baseline;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        const std::size_t first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line[first] == '#')
            continue;
        baseline.keys.insert(line);
    }
    return baseline;
}

std::string
formatBaseline(const std::vector<Finding> &findings)
{
    std::vector<std::string> keys;
    keys.reserve(findings.size());
    for (const Finding &finding : findings)
        keys.push_back(finding.baselineKey());
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

    std::ostringstream os;
    os << "# critmem-lint baseline: known findings, one "
          "rule<TAB>path<TAB>message per line.\n"
       << "# Regenerate with: critmem-lint --root . "
          "--write-baseline\n";
    for (const std::string &key : keys)
        os << key << '\n';
    return os.str();
}

bool
Report::clean() const
{
    return std::none_of(findings.begin(), findings.end(),
                        [](const Finding &finding) {
                            return finding.severity ==
                                Severity::Error;
                        });
}

const std::vector<std::string> &
scannedDirs()
{
    static const std::vector<std::string> kDirs{"src", "tools",
                                               "bench", "examples"};
    return kDirs;
}

namespace
{

bool
isCppSource(const fs::path &path)
{
    const std::string ext = path.extension().string();
    return ext == ".cc" || ext == ".cpp" || ext == ".hh" ||
        ext == ".h" || ext == ".hpp";
}

/** Repo-relative path with '/' separators. */
std::string
relativePath(const fs::path &root, const fs::path &file)
{
    return fs::relative(file, root).generic_string();
}

/** Whether @p meta's rule runs under @p ruleFilter (empty = all). */
bool
ruleEnabled(const std::set<std::string> &ruleFilter,
            const RuleMeta &meta)
{
    return ruleFilter.empty() || ruleFilter.count(meta.id) > 0;
}

/**
 * Run the enabled source rules over @p file and append every finding
 * its lint:allow sites do not suppress. A site whose rule ran but
 * that suppressed nothing, or that names no registered rule (a typo
 * suppresses nothing either), becomes a stale-suppression finding
 * (when that pseudo-rule is enabled). Sites naming stale-suppression
 * itself are exempt (no recursion), and the finding itself honors
 * lint:allow(stale-suppression).
 */
void
lintFile(const SourceFile &file, const std::set<std::string> &ruleFilter,
         std::vector<Finding> &out)
{
    std::vector<bool> used(file.allowSites.size(), false);
    // True when @p finding is suppressed; marks every covering site
    // as used.
    auto suppressed = [&](const Finding &finding) {
        if (!file.suppressed(finding.rule, finding.line))
            return false;
        for (std::size_t s = 0; s < file.allowSites.size(); ++s) {
            const AllowSite &site = file.allowSites[s];
            if (site.rule == finding.rule &&
                (site.wholeFile ||
                 std::find(site.applies.begin(), site.applies.end(),
                           finding.line) != site.applies.end()))
                used[s] = true;
        }
        return true;
    };

    std::set<std::string> ranRules;
    for (const SourceRule *rule : sourceRules()) {
        if (!ruleEnabled(ruleFilter, rule->meta()))
            continue;
        ranRules.insert(rule->meta().id);
        std::vector<Finding> raw;
        rule->check(file, raw);
        for (Finding &finding : raw) {
            if (!suppressed(finding))
                out.push_back(std::move(finding));
        }
    }

    const RuleMeta &stale = staleSuppressionMeta();
    if (!ruleEnabled(ruleFilter, stale))
        return;
    for (std::size_t s = 0; s < file.allowSites.size(); ++s) {
        const AllowSite &site = file.allowSites[s];
        if (used[s] || site.rule == stale.id)
            continue;
        const char *why = nullptr;
        if (!haveRule(site.rule))
            why = ") names no registered rule";
        else if (ranRules.count(site.rule))
            why = ") suppresses nothing and must be removed";
        else
            continue;
        Finding finding{stale.id, stale.severity, file.path, site.line,
                        std::string(site.wholeFile ? "lint:allow-file("
                                                   : "lint:allow(") +
                            site.rule + why};
        if (!suppressed(finding))
            out.push_back(std::move(finding));
    }
}

} // namespace

std::vector<Finding>
analyzeFile(const SourceFile &file)
{
    std::vector<Finding> findings;
    lintFile(file, {}, findings);
    return findings;
}

Report
runAnalysis(const AnalyzerOptions &opts, const Baseline &baseline)
{
    const fs::path root(opts.root);
    if (!fs::is_directory(root))
        throw std::runtime_error("not a directory: " + opts.root);

    // Collect and sort the file list: directory iteration order is
    // filesystem-defined, and the lint report must be byte-identical
    // across runs and machines.
    std::vector<fs::path> paths;
    for (const std::string &dir : scannedDirs()) {
        const fs::path base = root / dir;
        if (!fs::is_directory(base))
            continue;
        for (const auto &entry :
             fs::recursive_directory_iterator(base)) {
            if (entry.is_regular_file() && isCppSource(entry.path()))
                paths.push_back(entry.path());
        }
    }
    std::sort(paths.begin(), paths.end());

    Report report;
    report.filesScanned = paths.size();
    std::vector<Finding> all;
    for (const fs::path &path : paths) {
        lintFile(loadSourceFile(path.string(), relativePath(root, path)),
                 opts.ruleFilter, all);
    }

    std::sort(all.begin(), all.end(), findingLess);
    for (Finding &finding : all) {
        (baseline.covers(finding) ? report.baselined
                                  : report.findings)
            .push_back(std::move(finding));
    }
    return report;
}

namespace
{

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 8);
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char kHex[] = "0123456789abcdef";
                out += "\\u00";
                out += kHex[(c >> 4) & 0xf];
                out += kHex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
appendFindingJson(std::ostringstream &os, const Finding &finding,
                  const char *indent)
{
    os << indent << "{\"rule\": \"" << jsonEscape(finding.rule)
       << "\", \"severity\": \"" << toString(finding.severity)
       << "\", \"path\": \"" << jsonEscape(finding.path)
       << "\", \"line\": " << finding.line << ", \"message\": \""
       << jsonEscape(finding.message) << "\"}";
}

void
appendFindingsJson(std::ostringstream &os,
                   const std::vector<Finding> &findings)
{
    if (findings.empty()) {
        os << "[]";
        return;
    }
    os << "[\n";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        appendFindingJson(os, findings[i], "    ");
        os << (i + 1 < findings.size() ? ",\n" : "\n");
    }
    os << "  ]";
}

} // namespace

std::string
formatJson(const Report &report)
{
    std::ostringstream os;
    os << "{\n"
       << "  \"filesScanned\": " << report.filesScanned << ",\n"
       << "  \"clean\": " << (report.clean() ? "true" : "false")
       << ",\n"
       << "  \"findings\": ";
    appendFindingsJson(os, report.findings);
    os << ",\n  \"baselined\": ";
    appendFindingsJson(os, report.baselined);
    os << "\n}\n";
    return os.str();
}

} // namespace critmem::analysis
