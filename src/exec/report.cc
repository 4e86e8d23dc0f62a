#include "exec/report.hh"

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <set>
#include <vector>


namespace critmem::exec
{

namespace
{

/** The record of job WORKLOAD/VARIANT when it succeeded, else null. */
const JobRecord *
okRecord(const MemorySink &memory, const std::string &workload,
         const std::string &variant)
{
    const JobRecord *rec = memory.find(workload + "/" + variant);
    return rec != nullptr && rec->ok() ? rec : nullptr;
}

/** Every variant's name, comma-separated, for usage errors. */
std::string
variantNames(const SweepSpec &spec)
{
    std::string names;
    for (const SweepVariant &variant : spec.variants)
        names += (names.empty() ? "" : ", ") + variant.name;
    return names;
}

bool
hasVariant(const SweepSpec &spec, const std::string &name)
{
    return std::any_of(spec.variants.begin(), spec.variants.end(),
                       [&](const SweepVariant &v) { return v.name == name; });
}

/** Every forEachScalar() name, comma-separated, for usage errors. */
std::string
scalarNames()
{
    std::string names;
    forEachScalar(RunResult{}, [&](const char *name, auto) {
        names += (names.empty() ? "" : ", ") + std::string(name);
    });
    return names;
}

/** stat:'s EXPR list, split on commas (empty items kept). */
std::vector<std::string>
splitExprs(const std::string &text)
{
    std::vector<std::string> exprs(1);
    for (const char c : text) {
        if (c == ',')
            exprs.emplace_back();
        else
            exprs.back() += c;
    }
    return exprs;
}

/** EXPR (NAME or NUM/DEN) on @p r; nullopt when a name is unknown. */
std::optional<double>
evalExpr(const std::string &expr, const RunResult &r)
{
    const std::size_t slash = expr.find('/');
    if (slash == std::string::npos)
        return findScalar(r, expr);
    const std::optional<double> num = findScalar(r, expr.substr(0, slash));
    const std::optional<double> den = findScalar(r, expr.substr(slash + 1));
    if (!num || !den)
        return std::nullopt;
    return *num / *den;
}

/** Workloads of the variant jobs, in submission order. */
std::vector<std::string>
workloadsOf(const MemorySink &memory)
{
    std::vector<std::string> order;
    std::set<std::string> seen;
    for (const JobRecord &rec : memory.records()) {
        if (rec.spec.tags.count("variant") != 0 &&
            seen.insert(rec.spec.workload).second)
            order.push_back(rec.spec.workload);
    }
    return order;
}

/**
 * One row per workload that @p cells fills (it returns false when a
 * job the row needs did not succeed), then the column Average row
 * and, with @p withMax, the column Max row. Each column is as wide as
 * its name, at least 12, with @p decimals digits after the point.
 */
template <typename Cells>
void
printTable(std::FILE *out, const SweepSpec &spec,
           const std::vector<std::string> &columns,
           const MemorySink &memory, Cells &&cells, int decimals,
           bool withMax)
{
    std::vector<int> widths;
    for (const std::string &col : columns)
        widths.push_back(std::max(12, static_cast<int>(col.size())));
    const auto printRow = [&](const std::string &label,
                              const std::vector<double> &values) {
        std::fprintf(out, "%-10s", label.c_str());
        for (std::size_t i = 0; i < values.size(); ++i)
            std::fprintf(out, " %*.*f", widths[i], decimals, values[i]);
        std::fprintf(out, "\n");
    };

    std::fprintf(out, "%-10s",
                 spec.mode == SweepSpec::Mode::Multiprog ? "bundle"
                                                         : "app");
    for (std::size_t i = 0; i < columns.size(); ++i)
        std::fprintf(out, " %*s", widths[i], columns[i].c_str());
    std::fprintf(out, "\n");

    std::vector<double> sum, max;
    std::size_t rows = 0;
    for (const std::string &workload : workloadsOf(memory)) {
        std::vector<double> values;
        if (!cells(workload, values))
            continue;
        printRow(workload, values);
        if (rows++ == 0) {
            sum = max = values;
            continue;
        }
        for (std::size_t i = 0; i < values.size(); ++i) {
            sum[i] += values[i];
            max[i] = std::max(max[i], values[i]);
        }
    }
    for (double &value : sum)
        value /= static_cast<double>(rows);
    printRow("Average", sum);
    if (withMax)
        printRow("Max", max);
}

/** One scheduler's metrics on one workload. */
struct ArenaCell
{
    std::string variant;
    fair::FairnessMetrics metrics;
};

void
printRanking(std::FILE *out, const std::vector<ArenaCell> &cells)
{
    std::fprintf(out, "  %4s %-18s %10s %10s %10s %10s\n", "rank",
                 "sched", "ws", "hs", "maxslow", "unfair");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const fair::FairnessMetrics &m = cells[i].metrics;
        std::fprintf(out, "  %4zu %-18s %10.4f %10.4f %10.4f %10.4f\n",
                     i + 1, cells[i].variant.c_str(), m.weightedSpeedup,
                     m.harmonicSpeedup, m.maxSlowdown, m.unfairness);
    }
}

/** Rank by weighted speedup (desc), then name — fully deterministic. */
void
sortCells(std::vector<ArenaCell> &cells)
{
    std::sort(cells.begin(), cells.end(),
              [](const ArenaCell &a, const ArenaCell &b) {
                  if (a.metrics.weightedSpeedup !=
                      b.metrics.weightedSpeedup) {
                      return a.metrics.weightedSpeedup >
                          b.metrics.weightedSpeedup;
                  }
                  return a.variant < b.variant;
              });
}

/**
 * The arena leaderboard: one ranking per workload, then the overall
 * table (mean metrics across workloads, ranked by mean weighted
 * speedup).
 */
void
printArena(std::FILE *out, const SweepSpec &spec,
           const MemorySink &memory)
{
    // Group valid bundle records by workload, in submission order so
    // the report bytes are independent of thread count.
    std::vector<std::string> workloadOrder;
    std::map<std::string, std::vector<ArenaCell>> byWorkload;
    for (const JobRecord &rec : memory.records()) {
        if (rec.spec.kind != RunKind::Bundle || !rec.fairness.valid)
            continue;
        const auto tag = rec.spec.tags.find("variant");
        if (tag == rec.spec.tags.end())
            continue;
        auto [it, fresh] = byWorkload.try_emplace(rec.spec.workload);
        if (fresh)
            workloadOrder.push_back(rec.spec.workload);
        it->second.push_back({tag->second, rec.fairness});
    }

    std::fprintf(out,
                 "# arena leaderboard (quota=%llu/core, %zu workloads)\n",
                 static_cast<unsigned long long>(spec.quota),
                 workloadOrder.size());
    for (const std::string &workload : workloadOrder) {
        std::vector<ArenaCell> &cells = byWorkload[workload];
        sortCells(cells);
        std::fprintf(out, "== %s ==\n", workload.c_str());
        printRanking(out, cells);
    }

    // Overall: mean metrics per scheduler across the workloads it
    // completed, ranked like the per-workload tables.
    std::map<std::string, std::pair<fair::FairnessMetrics, std::size_t>>
        totals;
    for (const std::string &workload : workloadOrder) {
        for (const ArenaCell &cell : byWorkload[workload]) {
            auto &[sum, count] = totals[cell.variant];
            sum.weightedSpeedup += cell.metrics.weightedSpeedup;
            sum.harmonicSpeedup += cell.metrics.harmonicSpeedup;
            sum.maxSlowdown += cell.metrics.maxSlowdown;
            sum.unfairness += cell.metrics.unfairness;
            ++count;
        }
    }
    std::vector<ArenaCell> overall;
    overall.reserve(totals.size());
    for (const auto &[variant, total] : totals) {
        ArenaCell cell{variant, total.first};
        const double n = static_cast<double>(total.second);
        cell.metrics.weightedSpeedup /= n;
        cell.metrics.harmonicSpeedup /= n;
        cell.metrics.maxSlowdown /= n;
        cell.metrics.unfairness /= n;
        overall.push_back(std::move(cell));
    }
    sortCells(overall);
    std::fprintf(out, "== overall (mean across workloads) ==\n");
    printRanking(out, overall);
}

void
printSpeedup(std::FILE *out, const std::string &base,
             const SweepSpec &spec, const MemorySink &memory)
{
    std::vector<std::string> columns;
    for (const SweepVariant &variant : spec.variants) {
        if (variant.name != base)
            columns.push_back(variant.name);
    }
    std::fprintf(out, "# speedup vs %s (quota=%llu/core)\n", base.c_str(),
                 static_cast<unsigned long long>(spec.quota));
    printTable(
        out, spec, columns, memory,
        [&](const std::string &workload, std::vector<double> &row) {
            const JobRecord *ref = okRecord(memory, workload, base);
            if (ref == nullptr)
                return false;
            for (const std::string &col : columns) {
                const JobRecord *rec = okRecord(memory, workload, col);
                if (rec == nullptr)
                    return false;
                row.push_back(static_cast<double>(ref->result.cycles) /
                              static_cast<double>(rec->result.cycles));
            }
            return true;
        },
        /*decimals=*/4, /*withMax=*/false);
}

void
printStats(std::FILE *out, const std::string &exprList,
           const SweepSpec &spec, const MemorySink &memory)
{
    const std::vector<std::string> exprs = splitExprs(exprList);
    std::vector<std::string> columns;
    for (const SweepVariant &variant : spec.variants) {
        for (const std::string &expr : exprs)
            columns.push_back(variant.name + ":" + expr);
    }
    std::fprintf(out, "# stat %s (quota=%llu/core)\n", exprList.c_str(),
                 static_cast<unsigned long long>(spec.quota));
    printTable(
        out, spec, columns, memory,
        [&](const std::string &workload, std::vector<double> &row) {
            for (const SweepVariant &variant : spec.variants) {
                const JobRecord *rec =
                    okRecord(memory, workload, variant.name);
                if (rec == nullptr)
                    return false;
                for (const std::string &expr : exprs)
                    row.push_back(*evalExpr(expr, rec->result));
            }
            return true;
        },
        /*decimals=*/6, /*withMax=*/true);
}

void
printFairness(std::FILE *out, const std::string &base,
              const SweepSpec &spec, const MemorySink &memory)
{
    std::vector<std::string> variants, columns;
    for (const SweepVariant &variant : spec.variants) {
        if (variant.name == base)
            continue;
        variants.push_back(variant.name);
        columns.push_back(variant.name + ":ws");
        columns.push_back(variant.name + ":maxslow");
    }
    std::fprintf(out,
                 "# fairness vs %s: weighted speedup (ws) and max "
                 "slowdown (maxslow) over %s's (quota=%llu/core)\n",
                 base.c_str(), base.c_str(),
                 static_cast<unsigned long long>(spec.quota));
    printTable(
        out, spec, columns, memory,
        [&](const std::string &workload, std::vector<double> &row) {
            const auto metrics = [&](const std::string &variant)
                -> const fair::FairnessMetrics * {
                const JobRecord *rec = okRecord(memory, workload, variant);
                return rec != nullptr && rec->fairness.valid
                    ? &rec->fairness
                    : nullptr;
            };
            const fair::FairnessMetrics *ref = metrics(base);
            if (ref == nullptr)
                return false;
            for (const std::string &variant : variants) {
                const fair::FairnessMetrics *m = metrics(variant);
                if (m == nullptr)
                    return false;
                row.push_back(m->weightedSpeedup / ref->weightedSpeedup);
                row.push_back(m->maxSlowdown / ref->maxSlowdown);
            }
            return true;
        },
        /*decimals=*/4, /*withMax=*/false);
}

void
printFailures(std::FILE *out, const MemorySink &memory)
{
    // The map sorts the summary cells, so two runs of the same
    // campaign print identical bytes.
    std::map<std::array<std::string, 3>, std::size_t> cells;
    std::size_t failures = 0;
    for (const JobRecord &rec : memory.records()) {
        if (rec.ok())
            continue;
        ++failures;
        const auto tag = rec.spec.tags.find("variant");
        ++cells[{toString(rec.status),
                 tag != rec.spec.tags.end() ? tag->second : "-",
                 rec.spec.workload}];
    }
    if (failures == 0) {
        std::fprintf(out, "# failures: none\n");
        return;
    }
    std::fprintf(out, "# failures: %zu of %zu job(s)\n", failures,
                 memory.records().size());
    std::fprintf(out, "%-10s %-14s %-16s %s\n", "status", "variant",
                 "workload", "count");
    for (const auto &cell : cells)
        std::fprintf(out, "%-10s %-14s %-16s %zu\n", cell.first[0].c_str(),
                     cell.first[1].c_str(), cell.first[2].c_str(),
                     cell.second);
    std::fprintf(out, "# repro\n");
    for (const JobRecord &rec : memory.records()) {
        if (!rec.ok())
            std::fprintf(out, "%s\n", reproCommand(rec.spec).c_str());
    }
}

} // namespace

std::string
reportError(const std::string &layout, const SweepSpec &spec)
{
    if (layout == "arena" || layout == "failures")
        return "";
    const std::string unknown = "unknown --report '" + layout + "': ";
    const std::size_t colon = layout.find(':');
    const std::string kind = layout.substr(0, colon);
    const std::string arg =
        colon == std::string::npos ? "" : layout.substr(colon + 1);
    if (colon != std::string::npos && kind == "stat") {
        for (const std::string &expr : splitExprs(arg)) {
            if (!evalExpr(expr, RunResult{}))
                return unknown + "'" + expr +
                    "' is not NAME or NUM/DEN with NAME one of " +
                    scalarNames();
        }
        return "";
    }
    if (colon != std::string::npos &&
        (kind == "speedup" || kind == "fairness")) {
        if (kind == "fairness" &&
            (spec.mode != SweepSpec::Mode::Multiprog || !spec.alone))
            return "--report '" + layout +
                "' needs a multiprog spec with alone = 1 or alone = "
                "VARIANT";
        if (!hasVariant(spec, arg))
            return unknown + "expected " + kind +
                ":VARIANT with VARIANT one of " + variantNames(spec);
        return "";
    }
    return unknown + "expected arena, failures, speedup:VARIANT, "
        "stat:EXPR[,EXPR...] or fairness:VARIANT";
}

void
printReport(std::FILE *out, const std::string &layout,
            const SweepSpec &spec, const MemorySink &memory)
{
    if (layout == "arena")
        printArena(out, spec, memory);
    else if (layout == "failures")
        printFailures(out, memory);
    else if (layout.rfind("speedup:", 0) == 0)
        printSpeedup(out, layout.substr(8), spec, memory);
    else if (layout.rfind("stat:", 0) == 0)
        printStats(out, layout.substr(5), spec, memory);
    else if (layout.rfind("fairness:", 0) == 0)
        printFairness(out, layout.substr(9), spec, memory);
}

} // namespace critmem::exec
