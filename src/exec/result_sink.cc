#include "exec/result_sink.hh"

#include <stdexcept>
#include <type_traits>

#include "sched/registry.hh"
#include "sim/stats.hh"

namespace critmem::exec
{

double
aggregateIpc(const JobRecord &rec)
{
    const RunResult &r = rec.result;
    switch (rec.spec.kind) {
      case RunKind::Parallel:
      case RunKind::Trace: // same stop-at-quota methodology
        return r.cycles == 0
            ? 0.0
            : static_cast<double>(rec.spec.quota) *
                static_cast<double>(rec.spec.cfg.numCores) /
                static_cast<double>(r.cycles);
      case RunKind::Bundle: {
        double sum = 0.0;
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(r.finishCycles.size()); ++i)
            sum += r.ipc(i, rec.spec.quota);
        return sum;
      }
      case RunKind::Alone:
        return r.finishCycles.empty() ? 0.0 : r.ipc(0, rec.spec.quota);
    }
    return 0.0;
}

std::optional<double>
findScalar(const RunResult &r, const std::string &name)
{
    std::optional<double> found;
    forEachScalar(r, [&](const char *key, auto value) {
        if (name == key)
            found = static_cast<double>(value);
    });
    return found;
}

namespace
{

void
jsonKey(std::ostream &os, bool &first, const char *key)
{
    os << (first ? "" : ",");
    first = false;
    stats::jsonEscape(os, key);
    os << ':';
}

void
jsonUints(std::ostream &os, const std::vector<std::uint64_t> &values)
{
    os << '[';
    for (std::size_t i = 0; i < values.size(); ++i)
        os << (i ? "," : "") << values[i];
    os << ']';
}

} // namespace

void
JsonlSink::consume(const JobRecord &rec)
{
    const JobSpec &spec = rec.spec;
    bool first = true;
    os_ << '{';
    jsonKey(os_, first, "name");
    stats::jsonEscape(os_, spec.name);
    jsonKey(os_, first, "index");
    os_ << rec.index;
    jsonKey(os_, first, "kind");
    os_ << '"' << toString(spec.kind) << '"';
    jsonKey(os_, first, "workload");
    stats::jsonEscape(os_, spec.workload);
    jsonKey(os_, first, "sched");
    os_ << '"' << cliName(spec.cfg.sched.algo) << '"';
    jsonKey(os_, first, "predictor");
    os_ << '"' << cliName(spec.cfg.crit.predictor) << '"';
    if (spec.cfg.crit.predictor != CritPredictor::None) {
        jsonKey(os_, first, "entries");
        os_ << spec.cfg.crit.tableEntries;
    }
    jsonKey(os_, first, "seed");
    os_ << spec.cfg.seed;
    jsonKey(os_, first, "quota");
    os_ << spec.quota;
    jsonKey(os_, first, "warmup");
    os_ << rec.warmupUsed;
    jsonKey(os_, first, "status");
    os_ << '"' << toString(rec.status) << '"';
    jsonKey(os_, first, "attempts");
    os_ << rec.attempts;

    if (rec.ok()) {
        const RunResult &r = rec.result;
        jsonKey(os_, first, "cycles");
        os_ << r.cycles;
        jsonKey(os_, first, "ipc");
        stats::jsonDouble(os_, aggregateIpc(rec));
        jsonKey(os_, first, "finishCycles");
        jsonUints(os_, r.finishCycles);
        jsonKey(os_, first, "committed");
        jsonUints(os_, r.committed);
        forEachScalar(r, [&](const char *key, auto value) {
            jsonKey(os_, first, key);
            if constexpr (std::is_same_v<decltype(value), double>)
                stats::jsonDouble(os_, value);
            else
                os_ << value;
        });
        if (rec.fairness.valid) {
            const fair::FairnessMetrics &m = rec.fairness;
            jsonKey(os_, first, "weightedSpeedup");
            stats::jsonDouble(os_, m.weightedSpeedup);
            jsonKey(os_, first, "harmonicSpeedup");
            stats::jsonDouble(os_, m.harmonicSpeedup);
            jsonKey(os_, first, "maxSlowdown");
            stats::jsonDouble(os_, m.maxSlowdown);
            jsonKey(os_, first, "unfairness");
            stats::jsonDouble(os_, m.unfairness);
            jsonKey(os_, first, "slowdown");
            os_ << '[';
            for (std::size_t i = 0; i < m.slowdown.size(); ++i) {
                os_ << (i ? "," : "");
                stats::jsonDouble(os_, m.slowdown[i]);
            }
            os_ << ']';
        }
    } else {
        jsonKey(os_, first, "error");
        stats::jsonEscape(os_, rec.error);
        jsonKey(os_, first, "repro");
        stats::jsonEscape(os_, reproCommand(spec));
    }

    if (!spec.tags.empty()) {
        jsonKey(os_, first, "tags");
        os_ << '{';
        bool tagFirst = true;
        for (const auto &[key, value] : spec.tags) {
            os_ << (tagFirst ? "" : ",");
            tagFirst = false;
            stats::jsonEscape(os_, key);
            os_ << ':';
            stats::jsonEscape(os_, value);
        }
        os_ << '}';
    }
    if (!rec.statsJson.empty()) {
        jsonKey(os_, first, "stats");
        os_ << rec.statsJson; // already a serialized JSON object
    }
    os_ << "}\n";
}

void
CsvSink::begin(std::size_t)
{
    os_ << "name,index,kind,workload,sched,predictor,entries,seed,"
           "quota,warmup,status,attempts,cycles,ipc,dynamicLoads,"
           "blockingLoads,robBlockedCycles,rowHits,rowMisses,"
           "dramReads,l2MissLatCrit,l2MissLatNonCrit,"
           "weightedSpeedup,harmonicSpeedup,maxSlowdown,unfairness,"
           "error\n";
}

namespace
{

void
csvField(std::ostream &os, const std::string &text)
{
    if (text.find_first_of(",\"\n") == std::string::npos) {
        os << text;
        return;
    }
    os << '"';
    for (const char c : text) {
        if (c == '"')
            os << '"';
        os << c;
    }
    os << '"';
}

} // namespace

void
CsvSink::consume(const JobRecord &rec)
{
    const JobSpec &spec = rec.spec;
    csvField(os_, spec.name);
    os_ << ',' << rec.index << ',' << toString(spec.kind) << ',';
    csvField(os_, spec.workload);
    os_ << ',' << cliName(spec.cfg.sched.algo) << ','
        << cliName(spec.cfg.crit.predictor) << ','
        << spec.cfg.crit.tableEntries << ',' << spec.cfg.seed << ','
        << spec.quota << ',' << rec.warmupUsed << ','
        << toString(rec.status) << ',' << rec.attempts << ',';
    if (rec.ok()) {
        const RunResult &r = rec.result;
        os_ << r.cycles << ',';
        stats::jsonDouble(os_, aggregateIpc(rec));
        os_ << ',' << r.dynamicLoads << ',' << r.blockingLoads << ','
            << r.robBlockedCycles << ',' << r.rowHits << ','
            << r.rowMisses << ',' << r.dramReads << ',';
        stats::jsonDouble(os_, r.l2MissLatCrit);
        os_ << ',';
        stats::jsonDouble(os_, r.l2MissLatNonCrit);
        os_ << ',';
        // Fairness columns stay empty when no baselines were around.
        if (rec.fairness.valid) {
            const fair::FairnessMetrics &m = rec.fairness;
            stats::jsonDouble(os_, m.weightedSpeedup);
            os_ << ',';
            stats::jsonDouble(os_, m.harmonicSpeedup);
            os_ << ',';
            stats::jsonDouble(os_, m.maxSlowdown);
            os_ << ',';
            stats::jsonDouble(os_, m.unfairness);
            os_ << ',';
        } else {
            os_ << ",,,,";
        }
    } else {
        os_ << ",,,,,,,,,,,,,,";
        csvField(os_, rec.error);
    }
    os_ << '\n';
}

const JobRecord *
MemorySink::find(const std::string &name) const
{
    for (const JobRecord &rec : records_) {
        if (rec.spec.name == name)
            return &rec;
    }
    return nullptr;
}

const RunResult &
MemorySink::result(const std::string &name) const
{
    const JobRecord *rec = find(name);
    if (!rec)
        throw std::runtime_error("no record for job '" + name + "'");
    if (!rec->ok()) {
        throw std::runtime_error("job '" + name + "' failed: " +
                                 rec->error);
    }
    return rec->result;
}

} // namespace critmem::exec
