/**
 * @file
 * The source-rule family of critmem-lint: lexical determinism,
 * clock-domain, protocol-bypass and hygiene invariants over the C++
 * tree. Each rule documents the contract it enforces and the failure
 * it was written to prevent; fixtures under tests/analysis/fixtures/
 * prove each one fires.
 */

#include <algorithm>
#include <iterator>
#include <memory>
#include <regex>
#include <set>

#include "analysis/rule.hh"

namespace critmem::analysis
{

namespace
{

/**
 * @p code in single quotes, the way findings cite source text. Built
 * by appending: GCC 12 at -O2 warns falsely (-Wrestrict) on
 * "'" + std::string.
 */
std::string
quoted(const std::string &code)
{
    std::string out = "'";
    out += code;
    out += '\'';
    return out;
}

/** Shared helper: flag every regex hit on the blanked-code view. */
void
flagPattern(const SourceFile &file, const RuleMeta &meta,
            const std::regex &pattern, const std::string &reason,
            std::vector<Finding> &out)
{
    for (std::size_t li = 0; li < file.code.size(); ++li) {
        std::smatch match;
        if (std::regex_search(file.code[li], match, pattern)) {
            out.push_back({meta.id, meta.severity, file.path,
                           static_cast<int>(li + 1),
                           quoted(match.str()) + " " + reason});
        }
    }
}

/**
 * wall-clock: simulation behaviour and emitted results must be pure
 * functions of (workload, config, seed). Reading host time anywhere
 * in the scanned tree risks results that change from run to run —
 * exactly what the --jobs N byte-identical contract forbids. Display
 * -only uses (progress ETA lines on stderr) carry an inline
 * allow naming this rule, with a reason.
 */
class WallClockRule : public SourceRule
{
  public:
    const RuleMeta &
    meta() const override
    {
        static const RuleMeta kMeta{
            "wall-clock", Severity::Error,
            "no host time sources in simulation or emission code"};
        return kMeta;
    }

    void
    check(const SourceFile &file, std::vector<Finding> &out)
        const override
    {
        static const std::regex kPattern(
            "system_clock|steady_clock|high_resolution_clock|"
            "gettimeofday|clock_gettime|\\btime\\s*\\(|"
            "\\bclock\\s*\\(");
        flagPattern(file, meta(), kPattern,
                    "reads host time; results must depend only on "
                    "(workload, config, seed)",
                    out);
    }
};

/**
 * unseeded-random: every stochastic element must draw from an
 * explicitly seeded critmem::Rng (sim/random.hh). std::random_device
 * and the C rand() family produce irreproducible streams.
 */
class UnseededRandomRule : public SourceRule
{
  public:
    const RuleMeta &
    meta() const override
    {
        static const RuleMeta kMeta{
            "unseeded-random", Severity::Error,
            "randomness must come from an explicitly seeded Rng"};
        return kMeta;
    }

    void
    check(const SourceFile &file, std::vector<Finding> &out)
        const override
    {
        static const std::regex kPattern(
            "random_device|\\bsrand\\s*\\(|\\brand\\s*\\(\\s*\\)|"
            "default_random_engine|\\bmt19937|\\bminstd_rand");
        flagPattern(file, meta(), kPattern,
                    "is not reproducibly seeded; use critmem::Rng",
                    out);
    }
};

/**
 * unordered-iter: iterating an unordered associative container yields
 * an implementation- and address-layout-defined order. Any such loop
 * in an emission, sink or stats path silently breaks the byte-
 * identical --jobs N guarantee, so range-for over a container whose
 * declared type is std::unordered_* is banned tree-wide (membership
 * tests and lookups are fine). Copy into a std::map/sorted vector
 * before emitting.
 */
class UnorderedIterRule : public SourceRule
{
  public:
    const RuleMeta &
    meta() const override
    {
        static const RuleMeta kMeta{
            "unordered-iter", Severity::Error,
            "no iteration over unordered containers (order is not "
            "deterministic)"};
        return kMeta;
    }

    void
    check(const SourceFile &file, std::vector<Finding> &out)
        const override
    {
        const std::string joined = file.joinedCode();
        const std::set<std::string> tracked = trackedNames(joined);

        // Every range-for: extract the range expression and test
        // whether it is (or ends in a member access of) a tracked
        // unordered container.
        static const std::regex kFor("\\bfor\\s*\\(");
        auto begin = std::sregex_iterator(joined.begin(), joined.end(),
                                          kFor);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            const std::size_t open =
                static_cast<std::size_t>(it->position()) +
                it->length() - 1;
            const std::size_t close = matchParen(joined, open);
            if (close == std::string::npos)
                continue;
            const std::string inside =
                joined.substr(open + 1, close - open - 1);
            const std::size_t colon = rangeColon(inside);
            if (colon == std::string::npos)
                continue;
            std::string range = inside.substr(colon + 1);
            std::smatch last;
            static const std::regex kLastIdent(
                "([A-Za-z_]\\w*)\\s*(?:\\(\\s*\\))?\\s*$");
            const bool direct =
                range.find("unordered_") != std::string::npos;
            std::string name;
            if (std::regex_search(range, last, kLastIdent))
                name = last[1];
            if (!direct && (name.empty() || !tracked.count(name)))
                continue;
            out.push_back(
                {meta().id, meta().severity, file.path,
                 file.lineOfOffset(open),
                 "range-for over unordered container '" +
                     (direct ? std::string("<temporary>") : name) +
                     "': iteration order is nondeterministic; copy "
                     "into an ordered container first"});
        }
    }

  private:
    /** Names of variables/aliases with an unordered declared type. */
    static std::set<std::string>
    trackedNames(const std::string &joined)
    {
        std::set<std::string> aliases;
        static const std::regex kAlias(
            "using\\s+(\\w+)\\s*=\\s*std\\s*::\\s*unordered_");
        for (auto it = std::sregex_iterator(joined.begin(),
                                            joined.end(), kAlias);
             it != std::sregex_iterator(); ++it)
            aliases.insert((*it)[1]);

        std::set<std::string> names;
        static const std::regex kDecl(
            "unordered_(?:map|set|multimap|multiset)\\s*<");
        for (auto it = std::sregex_iterator(joined.begin(),
                                            joined.end(), kDecl);
             it != std::sregex_iterator(); ++it) {
            const std::size_t open =
                static_cast<std::size_t>(it->position()) +
                it->length() - 1;
            const std::size_t close = matchAngle(joined, open);
            if (close == std::string::npos)
                continue;
            std::smatch ident;
            const std::string after = joined.substr(close + 1, 80);
            static const std::regex kIdent(
                "^\\s*&?\\s*([A-Za-z_]\\w*)\\s*[;={(,)]");
            if (std::regex_search(after, ident, kIdent))
                names.insert(ident[1]);
        }
        for (const std::string &alias : aliases) {
            const std::regex aliasDecl(
                "\\b" + alias + "\\s*&?\\s+([A-Za-z_]\\w*)\\s*[;={(,)]");
            for (auto it = std::sregex_iterator(joined.begin(),
                                                joined.end(),
                                                aliasDecl);
                 it != std::sregex_iterator(); ++it)
                names.insert((*it)[1]);
        }
        return names;
    }

    /** Offset of the ')' matching the '(' at @p open; npos if none. */
    static std::size_t
    matchParen(const std::string &text, std::size_t open)
    {
        int depth = 0;
        for (std::size_t i = open; i < text.size(); ++i) {
            if (text[i] == '(')
                ++depth;
            else if (text[i] == ')' && --depth == 0)
                return i;
        }
        return std::string::npos;
    }

    /** Offset of the '>' matching the '<' at @p open; npos if none. */
    static std::size_t
    matchAngle(const std::string &text, std::size_t open)
    {
        int depth = 0;
        for (std::size_t i = open; i < text.size(); ++i) {
            if (text[i] == '<')
                ++depth;
            else if (text[i] == '>' && --depth == 0)
                return i;
        }
        return std::string::npos;
    }

    /** Offset of the range-for ':' inside @p inside; npos if none. */
    static std::size_t
    rangeColon(const std::string &inside)
    {
        for (std::size_t i = 0; i < inside.size(); ++i) {
            if (inside[i] != ':')
                continue;
            const bool prevColon = i > 0 && inside[i - 1] == ':';
            const bool nextColon =
                i + 1 < inside.size() && inside[i + 1] == ':';
            if (!prevColon && !nextColon)
                return i;
            if (nextColon)
                ++i; // skip the second ':' of a '::'
        }
        return std::string::npos;
    }
};

/**
 * narrow-cycle: cycle counts are unbounded 64-bit quantities (Cycle /
 * DramCycle in sim/types.hh). A naked 32-bit declaration whose name
 * says it holds cycles wraps after ~4e9 cycles — about one second of
 * simulated time at DDR3-2133 — corrupting timing arithmetic without
 * any diagnostic. Bounded ratios/durations may carry an inline
 * allow naming this rule, with the bound in the reason.
 */
class NarrowCycleRule : public SourceRule
{
  public:
    const RuleMeta &
    meta() const override
    {
        static const RuleMeta kMeta{
            "narrow-cycle", Severity::Error,
            "cycle quantities must use 64-bit Cycle/DramCycle types"};
        return kMeta;
    }

    void
    check(const SourceFile &file, std::vector<Finding> &out)
        const override
    {
        static const std::regex kPattern(
            "\\b(?:std\\s*::\\s*)?(?:u?int32_t|unsigned|int)\\s+"
            "(\\w*[Cc]ycle\\w*)");
        for (std::size_t li = 0; li < file.code.size(); ++li) {
            std::smatch match;
            if (std::regex_search(file.code[li], match, kPattern)) {
                out.push_back(
                    {meta().id, meta().severity, file.path,
                     static_cast<int>(li + 1),
                     "32-bit declaration of cycle quantity '" +
                         match[1].str() +
                         "' wraps after ~4e9 cycles; use "
                         "Cycle/DramCycle"});
            }
        }
    }
};

/**
 * clock-domain: CPU cycles (Cycle, cpuCycle*) and DRAM cycles
 * (DramCycle, dramCycle*) are both std::uint64_t, so the compiler
 * lets one pass for the other and a mix silently scales every
 * latency by the clock ratio. A file may name one domain only. The
 * few places where both clocks legitimately meet (System, which
 * advances both; the type definitions) carry a whole-file allow
 * naming this rule, with the reason.
 */
class ClockDomainRule : public SourceRule
{
  public:
    const RuleMeta &
    meta() const override
    {
        static const RuleMeta kMeta{
            "clock-domain", Severity::Error,
            "a file names CPU-cycle or DRAM-cycle quantities, not "
            "both"};
        return kMeta;
    }

    void
    check(const SourceFile &file, std::vector<Finding> &out)
        const override
    {
        static const std::regex kCpu("\\bCycle\\b|\\bcpuCycle\\w*");
        static const std::regex kDram(
            "\\bDramCycle\\b|\\bdramCycle\\w*");
        std::string cpu, dram;
        for (std::size_t li = 0; li < file.code.size(); ++li) {
            std::smatch match;
            if (cpu.empty() &&
                std::regex_search(file.code[li], match, kCpu))
                cpu = match.str();
            if (dram.empty() &&
                std::regex_search(file.code[li], match, kDram))
                dram = match.str();
            if (cpu.empty() || dram.empty())
                continue;
            out.push_back(
                {meta().id, meta().severity, file.path,
                 static_cast<int>(li + 1),
                 "CPU-domain " + quoted(cpu) + " and DRAM-domain " +
                     quoted(dram) +
                     " meet in one file; keep each file in one clock "
                     "domain, or allow-file this rule where both "
                     "clocks advance"});
            return;
        }
    }
};

/**
 * include-hygiene: quoted includes are project-relative from src/
 * (so every file names its dependencies unambiguously and the
 * include graph is greppable), headers carry CRITMEM_* guards, no
 * file-scope `using namespace` leaks from headers, and nonportable
 * <bits/...> internals stay out.
 */
class IncludeHygieneRule : public SourceRule
{
  public:
    const RuleMeta &
    meta() const override
    {
        static const RuleMeta kMeta{
            "include-hygiene", Severity::Error,
            "project-relative includes, header guards, no using-"
            "namespace in headers"};
        return kMeta;
    }

    void
    check(const SourceFile &file, std::vector<Finding> &out)
        const override
    {
        static const std::regex kInclude(
            "^\\s*#\\s*include\\s*([<\"])([^>\"]*)[>\"]");
        for (std::size_t li = 0; li < file.lines.size(); ++li) {
            // Use the code view to skip commented-out directives,
            // but parse the raw line (literals are blanked in code).
            if (file.code[li].find('#') == std::string::npos)
                continue;
            std::smatch match;
            if (!std::regex_search(file.lines[li], match, kInclude))
                continue;
            const bool quoted = match[1] == "\"";
            const std::string target = match[2];
            const int line = static_cast<int>(li + 1);
            if (quoted && target.find('/') == std::string::npos) {
                out.push_back({meta().id, meta().severity, file.path,
                               line,
                               "include \"" + target +
                                   "\" is not project-relative; "
                                   "spell the full path from src/ "
                                   "(e.g. \"exec/job.hh\")"});
            }
            if (quoted &&
                target.find("../") != std::string::npos) {
                out.push_back({meta().id, meta().severity, file.path,
                               line,
                               "include \"" + target +
                                   "\" uses a parent-relative path"});
            }
            if (!quoted && target.rfind("bits/", 0) == 0) {
                out.push_back({meta().id, meta().severity, file.path,
                               line,
                               "include <" + target +
                                   "> names a libstdc++ internal"});
            }
        }

        if (!file.isHeader())
            return;

        static const std::regex kGuard("#ifndef\\s+(CRITMEM_\\w+)");
        std::smatch guard;
        const std::string joined = file.joinedCode();
        if (!std::regex_search(joined, guard, kGuard) ||
            joined.find("#define " + guard[1].str()) ==
                std::string::npos) {
            out.push_back({meta().id, meta().severity, file.path, 1,
                           "header lacks a CRITMEM_* include guard "
                           "(#ifndef/#define pair)"});
        }
        static const std::regex kUsingNs(
            "(^|\\n)\\s*using\\s+namespace\\s");
        std::smatch uns;
        if (std::regex_search(joined, uns, kUsingNs)) {
            out.push_back(
                {meta().id, meta().severity, file.path,
                 file.lineOfOffset(static_cast<std::size_t>(
                     uns.position() + uns.length() - 1)),
                 "'using namespace' in a header leaks into every "
                 "includer"});
        }
    }
};

/**
 * durable-write: result artifacts must never be observable in a
 * half-written state. A raw std::ofstream / fopen(write-mode) leaves
 * a truncated file behind on crash or SIGKILL — the failure mode the
 * crash-safe campaign work eliminated. Writers go through AtomicFile
 * (temp + fsync + rename; sim/atomic_file.hh), or carry an inline
 * allow naming this rule, stating their own durability story
 * (e.g. the campaign journal's append-plus-fsync protocol).
 * Read-mode fopen ("r", "rb") is fine.
 */
class DurableWriteRule : public SourceRule
{
  public:
    const RuleMeta &
    meta() const override
    {
        static const RuleMeta kMeta{
            "durable-write", Severity::Error,
            "file writers must use AtomicFile or state a durability "
            "story"};
        return kMeta;
    }

    void
    check(const SourceFile &file, std::vector<Finding> &out)
        const override
    {
        // The helper itself is the one legitimate raw writer.
        if (file.path.rfind("src/sim/atomic_file", 0) == 0)
            return;
        static const std::regex kOfstream("\\bofstream\\b");
        static const std::regex kFopen("\\bfopen\\s*\\(");
        // The mode is a string literal, blanked in the code view:
        // sniff it from the raw line. It is the quoted string sitting
        // directly before a closing paren — matching the *first*
        // literal instead would misread fopen("/proc/...", "r"), and
        // anchoring on the call's own parens breaks on nested calls
        // like fopen(path.c_str(), "rb").
        static const std::regex kFopenMode("\"([^\"]*)\"\\s*\\)");
        for (std::size_t li = 0; li < file.code.size(); ++li) {
            std::smatch match;
            if (std::regex_search(file.code[li], match, kOfstream)) {
                out.push_back(
                    {meta().id, meta().severity, file.path,
                     static_cast<int>(li + 1),
                     quoted(match.str()) +
                         " writes without crash atomicity; a death "
                         "mid-write leaves a torn file. Use "
                         "AtomicFile (sim/atomic_file.hh) or add "
                         "lint:allow(durable-write) with the "
                         "durability story"});
                continue;
            }
            if (!std::regex_search(file.code[li], match, kFopen))
                continue;
            std::smatch mode;
            if (std::regex_search(file.lines[li], mode, kFopenMode)) {
                const std::string m = mode[1];
                if (!m.empty() && m[0] == 'r' &&
                    m.find('+') == std::string::npos)
                    continue; // read-only open
            }
            out.push_back(
                {meta().id, meta().severity, file.path,
                 static_cast<int>(li + 1),
                 "'fopen' in a write mode lacks crash atomicity; "
                 "use AtomicFile (sim/atomic_file.hh) or add "
                 "lint:allow(durable-write) with the durability "
                 "story"});
        }
    }
};

/**
 * hot-path-alloc: tick()-named functions run once per simulated
 * cycle — billions of times per campaign — so a heap allocation or a
 * std::function construction inside one is a per-cycle malloc the
 * profiler later finds at the top of the flame graph (the PR-7
 * hot-path overhaul hoisted exactly these into member scratch
 * buffers). Flags `new`, make_unique/make_shared, std::function
 * construction and local STL container declarations inside any
 * function whose name contains "tick". One-time or error-path
 * allocations may carry an inline allow naming this rule, with
 * the justification. The core, cache and DRAM layers (src/cpu,
 * src/mem, src/dram) are the per-cycle path as a whole: there any
 * std::function or std::unordered_map/unordered_set is a finding,
 * wherever it appears (typed tokens and sim/flat_map.hh instead).
 */
class HotPathAllocRule : public SourceRule
{
  public:
    const RuleMeta &
    meta() const override
    {
        static const RuleMeta kMeta{
            "hot-path-alloc", Severity::Error,
            "no per-cycle heap allocation inside tick() hot paths"};
        return kMeta;
    }

    void
    check(const SourceFile &file, std::vector<Finding> &out)
        const override
    {
        const std::string joined = file.joinedCode();
        // Function *definitions* whose name contains "tick": an
        // identifier, an argument list, optional qualifiers, then an
        // opening brace (declarations end in ';' and never match).
        static const std::regex kTickFn(
            "\\b([A-Za-z_]\\w*[Tt]ick\\w*|[Tt]ick\\w*)\\s*\\("
            "[^;{)]*\\)\\s*(?:const\\s*)?(?:noexcept\\s*)?"
            "(?:override\\s*)?\\{");
        for (auto it = std::sregex_iterator(joined.begin(),
                                            joined.end(), kTickFn);
             it != std::sregex_iterator(); ++it) {
            const std::size_t open =
                static_cast<std::size_t>(it->position()) +
                it->length() - 1;
            const std::size_t close = matchBrace(joined, open);
            if (close == std::string::npos)
                continue;
            scanBody(file, joined, (*it)[1], open, close, out);
        }
        checkHotLayer(file, out);
    }

  private:
    /** src/cpu, src/mem, src/dram: no type-erased call, no node map. */
    void
    checkHotLayer(const SourceFile &file, std::vector<Finding> &out) const
    {
        static const char *const kHotLayers[] = {"src/cpu/", "src/mem/",
                                                 "src/dram/"};
        if (std::none_of(std::begin(kHotLayers), std::end(kHotLayers),
                         [&](const char *dir) {
                             return file.path.rfind(dir, 0) == 0;
                         }))
            return;
        static const std::regex kBanned(
            "\\bstd\\s*::\\s*(function|unordered_map|unordered_set)\\b");
        for (std::size_t li = 0; li < file.code.size(); ++li) {
            for (auto it = std::sregex_iterator(file.code[li].begin(),
                                                file.code[li].end(),
                                                kBanned);
                 it != std::sregex_iterator(); ++it) {
                out.push_back(
                    {meta().id, meta().severity, file.path,
                     static_cast<int>(li + 1),
                     "'std::" + (*it)[1].str() + "' in the per-cycle "
                     "core/cache/DRAM layers: use a typed token or "
                     "event instead of a type-erased callback, and "
                     "FlatMap (sim/flat_map.hh) instead of a node "
                     "hash table"});
            }
        }
    }

    void
    scanBody(const SourceFile &file, const std::string &joined,
             const std::string &fn, std::size_t open,
             std::size_t close, std::vector<Finding> &out) const
    {
        const std::string body =
            joined.substr(open, close - open + 1);
        struct Pattern
        {
            const std::regex re;
            const char *what;
        };
        static const Pattern kPatterns[] = {
            {std::regex("\\bnew\\s+[A-Za-z_(]"),
             "operator new"},
            {std::regex("\\bmake_(?:unique|shared)\\s*<"),
             "make_unique/make_shared"},
            {std::regex("\\bstd\\s*::\\s*function\\s*<"),
             "std::function construction"},
            {std::regex("\\b(?:std\\s*::\\s*)?"
                        "(?:vector|deque|string|map|set|multimap|"
                        "multiset|unordered_map|unordered_set|list)"
                        "\\s*<[^;{}()]*>\\s+\\w+\\s*[;={(]"),
             "local container declaration"},
        };
        for (const Pattern &p : kPatterns) {
            for (auto it = std::sregex_iterator(body.begin(),
                                                body.end(), p.re);
                 it != std::sregex_iterator(); ++it) {
                out.push_back(
                    {meta().id, meta().severity, file.path,
                     file.lineOfOffset(
                         open +
                         static_cast<std::size_t>(it->position())),
                     std::string(p.what) + " inside per-cycle hot "
                     "path '" + fn + "': this runs every simulated "
                     "cycle; hoist into member scratch state or add "
                     "lint:allow(hot-path-alloc) with why it is not "
                     "per-cycle"});
            }
        }
    }

    /** Offset of the '}' matching the '{' at @p open; npos if none. */
    static std::size_t
    matchBrace(const std::string &text, std::size_t open)
    {
        int depth = 0;
        for (std::size_t i = open; i < text.size(); ++i) {
            if (text[i] == '{')
                ++depth;
            else if (text[i] == '}' && --depth == 0)
                return i;
        }
        return std::string::npos;
    }
};

/**
 * no-terminate: library code must never terminate the process. The
 * campaign layer's whole failure contract is that a broken job
 * becomes a classified record (crashed / oom / timeout / error) and
 * the run continues — one exit()/abort() buried in a scheduler or
 * sink turns a recoverable per-job failure into a dead campaign and
 * an empty result file. Calls to the exit family and abort anywhere
 * under src/, bench/ or examples/ are flagged; tools/ (CLI argument
 * handling, usage()) is exempt by path, and the two legitimate
 * terminators — panic()/fatal() in sim/log.hh and the post-fork
 * worker child in exec/worker.cc, which must _exit() instead of
 * returning into the supervisor's stack — carry inline allows naming
 * this rule with their justification.
 */
class NoTerminateRule : public SourceRule
{
  public:
    const RuleMeta &
    meta() const override
    {
        static const RuleMeta kMeta{
            "no-terminate", Severity::Error,
            "library code must not call the exit()/abort() family"};
        return kMeta;
    }

    void
    check(const SourceFile &file, std::vector<Finding> &out)
        const override
    {
        // Process termination is the CLI layer's prerogative.
        if (file.path.rfind("tools/", 0) == 0)
            return;
        // Word-boundary match on the termination family, optionally
        // std:: / :: qualified. The leading capture rejects member
        // calls (obj.exit(), p->abort()) and other-namespace
        // qualification (foo::exit matches neither branch: the bare
        // name is preceded by ':', the '::' prefix by a word char).
        static const std::regex kPattern(
            "(^|[^.\\w>:])((?:(?:std\\s*)?::\\s*)?"
            "(?:exit|_exit|_Exit|quick_exit|abort)\\s*\\()");
        // A *declaration* of a function that merely shares the name
        // (`void exit();` in some wrapper class) is preceded by its
        // return type: text ending in an identifier before the match
        // is not a call site.
        static const std::regex kDeclPrefix("[\\w\\]]\\s*$");
        for (std::size_t li = 0; li < file.code.size(); ++li) {
            for (auto it = std::sregex_iterator(file.code[li].begin(),
                                                file.code[li].end(),
                                                kPattern);
                 it != std::sregex_iterator(); ++it) {
                const std::string pre = file.code[li].substr(
                    0, static_cast<std::size_t>(it->position(2)));
                if (std::regex_search(pre, kDeclPrefix))
                    continue;
                out.push_back(
                    {meta().id, meta().severity, file.path,
                     static_cast<int>(li + 1),
                     quoted((*it)[2].str() + ")") +
                         " terminates the process from library "
                         "code; a failure here must surface as an "
                         "exception / classified job record, not "
                         "kill the campaign. Throw instead, move the "
                         "call to tools/, or add "
                         "lint:allow(no-terminate) with why this "
                         "path may terminate"});
                break;
            }
        }
    }
};

} // namespace

const std::vector<const SourceRule *> &
sourceRules()
{
    static const WallClockRule wallClock;
    static const UnseededRandomRule unseededRandom;
    static const UnorderedIterRule unorderedIter;
    static const NarrowCycleRule narrowCycle;
    static const ClockDomainRule clockDomain;
    static const IncludeHygieneRule includeHygiene;
    static const DurableWriteRule durableWrite;
    static const HotPathAllocRule hotPathAlloc;
    static const NoTerminateRule noTerminate;
    static const std::vector<const SourceRule *> kRules{
        &wallClock,    &unseededRandom, &unorderedIter,
        &narrowCycle,  &clockDomain,    &includeHygiene,
        &durableWrite, &hotPathAlloc,   &noTerminate};
    return kRules;
}

} // namespace critmem::analysis
