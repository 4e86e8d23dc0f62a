#include "exec/campaign.hh"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "exec/result_sink.hh"
#include "sched/registry.hh"
#include "sim/atomic_file.hh"
#include "sim/fnv.hh"
#include "trace/workloads.hh"

namespace critmem::exec
{

namespace
{

constexpr const char *kManifestMagic = "critmem-campaign v1";
constexpr const char *kRecordMagic = "r1";
constexpr std::size_t kPayloadFields = 28;

/** \ tab newline CR are the only bytes that would break a record. */
std::string
escapeField(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '\t': out += "\\t"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          default:   out += c; break;
        }
    }
    return out;
}

std::string
unescapeField(const std::string &text, std::uint64_t offset)
{
    std::string out;
    out.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '\\') {
            out += text[i];
            continue;
        }
        if (i + 1 == text.size())
            throw CampaignError("journal record ends inside an "
                                "escape sequence", offset);
        switch (text[++i]) {
          case '\\': out += '\\'; break;
          case 't':  out += '\t'; break;
          case 'n':  out += '\n'; break;
          case 'r':  out += '\r'; break;
          default:
            throw CampaignError(
                std::string("journal record holds unknown escape "
                            "'\\") + text[i] + "'", offset);
        }
    }
    return out;
}

std::uint64_t
parseU64(const std::string &field, const char *what,
         std::uint64_t offset)
{
    if (field.empty())
        throw CampaignError(std::string("journal record has an "
                                        "empty ") + what + " field",
                            offset);
    errno = 0;
    char *end = nullptr;
    const std::uint64_t value =
        std::strtoull(field.c_str(), &end, 10);
    if (errno != 0 || end != field.c_str() + field.size())
        throw CampaignError(std::string("journal record has a "
                                        "malformed ") + what +
                            " field '" + field + "'", offset);
    return value;
}

std::string
joinU64s(const std::vector<std::uint64_t> &values)
{
    std::string out;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i != 0)
            out += ',';
        out += std::to_string(values[i]);
    }
    return out;
}

std::vector<std::uint64_t>
splitU64s(const std::string &field, const char *what,
          std::uint64_t offset)
{
    std::vector<std::uint64_t> out;
    if (field.empty())
        return out;
    std::size_t pos = 0;
    while (pos <= field.size()) {
        const std::size_t comma = field.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? field.size() : comma;
        out.push_back(
            parseU64(field.substr(pos, end - pos), what, offset));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

bool
parseHex64(const std::string &field, std::uint64_t &out)
{
    if (field.size() != 16)
        return false;
    out = 0;
    for (const char c : field) {
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else
            return false;
        out = (out << 4) | static_cast<std::uint64_t>(digit);
    }
    return true;
}

/** Doubles travel as bit-exact 16-digit hex of their IEEE-754 bits. */
double
parseDoubleBits(const std::string &field, const char *what,
                std::uint64_t offset)
{
    std::uint64_t bits = 0;
    if (!parseHex64(field, bits))
        throw CampaignError(std::string("journal record has a "
                                        "malformed ") + what +
                            " field '" + field + "'", offset);
    return std::bit_cast<double>(bits);
}

/**
 * Check one journal line's `r1 <checksum> ` framing and checksum.
 * Returns what is damaged (empty when intact); an intact line's
 * payload goes to @p payload.
 */
std::string
lineDamage(const std::string &line, std::string &payload)
{
    const std::size_t magicLen = std::strlen(kRecordMagic);
    const std::size_t headerLen = magicLen + 1 + 16 + 1;
    std::uint64_t want = 0;
    if (line.size() < headerLen ||
        line.compare(0, magicLen, kRecordMagic) != 0 ||
        line[magicLen] != ' ' || line[headerLen - 1] != ' ' ||
        !parseHex64(line.substr(magicLen + 1, 16), want)) {
        return "journal record does not start with '" +
            std::string(kRecordMagic) + " <checksum> '";
    }
    payload = line.substr(headerLen);
    const std::uint64_t have = fnv1a(payload);
    if (have != want) {
        return "journal record fails its checksum (expected " +
            hashHex(want) + ", computed " + hashHex(have) + ")";
    }
    return {};
}

std::string
readWholeFile(const std::string &path, const char *what)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw CampaignError(std::string("cannot open ") + what +
                            " '" + path + "'", 0);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Decode a checksum-verified payload; throws on any field error. */
JobRecord
decodePayload(const std::string &payload, std::uint64_t offset)
{
    std::vector<std::string> fields;
    std::size_t pos = 0;
    while (pos <= payload.size()) {
        const std::size_t tab = payload.find('\t', pos);
        const std::size_t end =
            tab == std::string::npos ? payload.size() : tab;
        fields.push_back(payload.substr(pos, end - pos));
        if (tab == std::string::npos)
            break;
        pos = tab + 1;
    }
    if (fields.size() != kPayloadFields)
        throw CampaignError(
            "journal record has " + std::to_string(fields.size()) +
            " fields, expected " + std::to_string(kPayloadFields),
            offset);

    JobRecord rec;
    std::size_t f = 0;
    rec.index = parseU64(fields[f++], "index", offset);
    rec.spec.name = unescapeField(fields[f++], offset);
    rec.spec.cfg.seed = parseU64(fields[f++], "seed", offset);
    if (!parseJobStatus(fields[f], rec.status))
        throw CampaignError("journal record has unknown status '" +
                            fields[f] + "'", offset);
    ++f;
    rec.attempts = static_cast<std::uint32_t>(
        parseU64(fields[f++], "attempts", offset));
    rec.warmupUsed = parseU64(fields[f++], "warmup", offset);

    RunResult &r = rec.result;
    r.cycles = parseU64(fields[f++], "cycles", offset);
    r.finishCycles = splitU64s(fields[f++], "finishCycles", offset);
    r.committed = splitU64s(fields[f++], "committed", offset);
    for (const auto &field : kResultCounters)
        r.*field.member = parseU64(fields[f++], "result", offset);
    for (const auto &field : kResultMeans)
        r.*field.member = parseDoubleBits(fields[f++], field.name, offset);
    rec.error = unescapeField(fields[f++], offset);
    rec.statsJson = unescapeField(fields[f++], offset);
    return rec;
}

} // namespace

CampaignError::CampaignError(const std::string &message,
                             std::uint64_t byteOffset)
    : std::runtime_error(message + " (byte offset " +
                         std::to_string(byteOffset) + ")"),
      byteOffset_(byteOffset)
{
}

std::string
hashHex(std::uint64_t value)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xf];
        value >>= 4;
    }
    return out;
}

namespace
{

void
hashCache(Fnv1a &fnv, const CacheConfig &c)
{
    fnv.u64(c.sizeBytes);
    fnv.u64(c.blockBytes);
    fnv.u64(c.ways);
    fnv.u64(c.latency);
    fnv.u64(c.mshrs);
    fnv.u64(c.ports);
}

} // namespace

std::uint64_t
configHash(const SystemConfig &cfg)
{
    Fnv1a fnv;
    fnv.u64(cfg.numCores);
    fnv.u64(cfg.seed);
    fnv.f64(cfg.prewarmDirtyFrac);
    fnv.u64(cfg.burstiness.has_value());
    fnv.f64(cfg.burstiness.value_or(0.0));

    const CoreConfig &core = cfg.core;
    fnv.u64(core.freqMHz);
    fnv.u64(core.fetchWidth);
    fnv.u64(core.issueWidth);
    fnv.u64(core.commitWidth);
    fnv.u64(core.robEntries);
    fnv.u64(core.intIqEntries);
    fnv.u64(core.fpIqEntries);
    fnv.u64(core.lqEntries);
    fnv.u64(core.sqEntries);
    fnv.u64(core.intAlus);
    fnv.u64(core.fpAlus);
    fnv.u64(core.loadPorts);
    fnv.u64(core.storePorts);
    fnv.u64(core.branchUnits);
    fnv.u64(core.intMuls);
    fnv.u64(core.fpMuls);
    fnv.u64(core.maxUnresolvedBranches);
    fnv.u64(core.mispredictPenalty);

    hashCache(fnv, cfg.il1);
    hashCache(fnv, cfg.dl1);
    hashCache(fnv, cfg.l2);

    const PrefetchConfig &pf = cfg.prefetch;
    fnv.u64(pf.enabled);
    fnv.u64(pf.streams);
    fnv.u64(pf.distance);
    fnv.u64(pf.degree);

    const DramConfig &dram = cfg.dram;
    fnv.u64(static_cast<std::uint64_t>(dram.speed));
    fnv.u64(dram.busMHz);
    fnv.u64(dram.channels);
    fnv.u64(dram.ranksPerChannel);
    fnv.u64(dram.banksPerRank);
    fnv.u64(dram.rowBytes);
    fnv.u64(dram.queueEntries);
    fnv.u64(dram.closedPage);
    fnv.u64(static_cast<std::uint64_t>(dram.mapKind));
    fnv.u64(dram.unifiedQueue);
    const DramTiming &t = dram.t;
    fnv.u64(t.tRCD); fnv.u64(t.tCL); fnv.u64(t.tWL); fnv.u64(t.tCCD);
    fnv.u64(t.tWTR); fnv.u64(t.tWR); fnv.u64(t.tRTP); fnv.u64(t.tRP);
    fnv.u64(t.tRRD); fnv.u64(t.tFAW); fnv.u64(t.tRTRS); fnv.u64(t.tRAS);
    fnv.u64(t.tRC); fnv.u64(t.tRFC); fnv.u64(t.tREFI);
    fnv.u64(t.burstLength);

    const SchedConfig &sched = cfg.sched;
    fnv.u64(static_cast<std::uint64_t>(sched.algo));
    fnv.u64(sched.morseMaxCommands);

    const CritConfig &crit = cfg.crit;
    fnv.u64(static_cast<std::uint64_t>(crit.predictor));
    fnv.u64(crit.tableEntries);
    fnv.u64(crit.resetInterval);
    fnv.u64(crit.clptThreshold);
    fnv.u64(crit.counterWidth);
    fnv.u64(crit.probShift);

    return fnv.hash;
}

std::uint64_t
campaignHash(const std::vector<JobSpec> &jobs)
{
    Fnv1a fnv;
    fnv.field(kManifestMagic);

    // Registry identity: renaming/adding a scheduler, app or bundle
    // invalidates old campaigns even when the job list looks alike.
    for (const SchedInfo &info : schedulerRegistry())
        fnv.field(info.cliName);
    for (const AppParams &app : parallelApps())
        fnv.field(app.name);
    for (const AppParams &app : singleApps())
        fnv.field(app.name);
    for (const Bundle &bundle : multiprogBundles())
        fnv.field(bundle.name);
    // Trace workload identity covers the file CONTENT (FNV-1a of the
    // raw bytes from the registration scan), so a campaign resumed
    // against an edited trace file is refused as a different
    // campaign even when the path and job list are unchanged. Only
    // the traces these jobs run count, in first-use order: the
    // registry is process-wide and may hold other specs' traces.
    std::vector<const TraceWorkload *> traces;
    for (const JobSpec &spec : jobs) {
        const TraceWorkload *wl = spec.kind == RunKind::Trace
            ? findTraceWorkload(spec.workload)
            : nullptr;
        if (wl && std::find(traces.begin(), traces.end(), wl) ==
                      traces.end())
            traces.push_back(wl);
    }
    for (const TraceWorkload *wl : traces) {
        fnv.field(wl->name);
        fnv.field(wl->path);
        fnv.u64(wl->contentHash);
        fnv.u64(wl->numCores);
        fnv.u64(wl->records);
    }

    fnv.u64(jobs.size());
    for (const JobSpec &spec : jobs) {
        fnv.field(spec.name);
        fnv.u64(spec.cfg.seed);
        fnv.field(toString(spec.kind));
        fnv.field(spec.workload);
        fnv.u64(configHash(spec.cfg));
        fnv.u64(static_cast<std::uint64_t>(spec.cfg.check.fault));
        fnv.u64(spec.cfg.check.faultPeriod);
        fnv.u64(spec.quota);
        fnv.u64(spec.warmup);
    }
    return fnv.hash;
}

const std::string *
Manifest::find(const std::string &key) const
{
    for (const auto &[k, v] : fields) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

void
Manifest::expectValue(const std::string &key,
                      const std::string &want) const
{
    const std::string *have = find(key);
    if (have == nullptr)
        throw CampaignError("campaign manifest is missing key '" +
                            key + "'", 0);
    if (*have != want) {
        const auto offset = keyOffset.find(key);
        throw CampaignError(
            "campaign manifest records " + key + " = '" + *have +
            "' but the resumed campaign expects '" + want +
            "'; refusing to mix results from different experiments",
            offset == keyOffset.end() ? 0 : offset->second);
    }
}

Manifest
loadManifest(const std::string &path)
{
    const std::string text = readWholeFile(path, "campaign manifest");
    Manifest manifest;
    std::size_t pos = 0;
    bool sawMagic = false;
    while (pos < text.size()) {
        const std::uint64_t lineStart = pos;
        const std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            throw CampaignError("campaign manifest line is missing "
                                "its newline", lineStart);
        const std::string line = text.substr(pos, nl - pos);
        pos = nl + 1;
        if (!sawMagic) {
            if (line != kManifestMagic)
                throw CampaignError(
                    "campaign manifest does not start with '" +
                    std::string(kManifestMagic) + "'", lineStart);
            sawMagic = true;
            continue;
        }
        if (line.empty())
            continue;
        const std::size_t sep = line.find(" = ");
        if (sep == std::string::npos || sep == 0)
            throw CampaignError("campaign manifest line is not "
                                "'key = value'", lineStart);
        const std::string key = line.substr(0, sep);
        if (manifest.find(key) != nullptr)
            throw CampaignError("campaign manifest repeats key '" +
                                key + "'", lineStart);
        manifest.fields.emplace_back(key, line.substr(sep + 3));
        manifest.keyOffset.emplace(key, lineStart);
    }
    if (!sawMagic)
        throw CampaignError("campaign manifest is empty", 0);
    return manifest;
}

void
writeManifest(
    const std::string &path,
    const std::vector<std::pair<std::string, std::string>> &fields)
{
    AtomicFile file(path);
    file.stream() << kManifestMagic << '\n';
    for (const auto &[key, value] : fields)
        file.stream() << key << " = " << value << '\n';
    file.commit();
}

std::string
encodeJournalRecord(const JobRecord &rec)
{
    const RunResult &r = rec.result;
    std::string payload;
    const auto add = [&payload](const std::string &field) {
        if (!payload.empty())
            payload += '\t';
        payload += field;
    };
    add(std::to_string(rec.index));
    add(escapeField(rec.spec.name));
    add(std::to_string(rec.spec.cfg.seed));
    add(toString(rec.status));
    add(std::to_string(rec.attempts));
    add(std::to_string(rec.warmupUsed));
    add(std::to_string(r.cycles));
    add(joinU64s(r.finishCycles));
    add(joinU64s(r.committed));
    for (const auto &field : kResultCounters)
        add(std::to_string(r.*field.member));
    for (const auto &field : kResultMeans)
        add(hashHex(std::bit_cast<std::uint64_t>(r.*field.member)));
    add(escapeField(rec.error));
    add(escapeField(rec.statsJson));

    return std::string(kRecordMagic) + ' ' +
        hashHex(fnv1a(payload)) + ' ' + payload + '\n';
}

JobRecord
decodeJournalRecord(const std::string &rawLine, std::uint64_t offset)
{
    std::string line = rawLine;
    if (!line.empty() && line.back() == '\n')
        line.pop_back();
    std::string payload;
    const std::string damage = lineDamage(line, payload);
    if (!damage.empty())
        throw CampaignError(damage, offset);
    return decodePayload(payload, offset);
}

JournalLoad
loadJournal(const std::string &path)
{
    const std::string text = readWholeFile(path, "campaign journal");
    JournalLoad load;
    std::vector<bool> seen;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::uint64_t lineStart = pos;
        const std::size_t nl = text.find('\n', pos);
        const bool hasNewline = nl != std::string::npos;
        const std::string line =
            text.substr(pos, (hasNewline ? nl : text.size()) - pos);
        pos = hasNewline ? nl + 1 : text.size();
        const bool finalLine = pos >= text.size();

        // Structural damage — short line, bad magic, checksum
        // mismatch, missing newline — is a torn tail when (and only
        // when) it is the last line of the file.
        std::string payload;
        const std::string damage = hasNewline
            ? lineDamage(line, payload)
            : "journal record is missing its newline";
        if (!damage.empty()) {
            if (finalLine) {
                load.tornTail = true;
                break;
            }
            throw CampaignError(damage, lineStart);
        }

        // Past the checksum the line is exactly what was written:
        // decode/consistency failures are real corruption (or a
        // foreign file) and throw even on the final line.
        JobRecord rec = decodePayload(payload, lineStart);
        if (rec.index >= seen.size())
            seen.resize(rec.index + 1, false);
        if (seen[rec.index])
            throw CampaignError("journal repeats job index " +
                                std::to_string(rec.index), lineStart);
        seen[rec.index] = true;
        load.records.push_back(std::move(rec));
        load.offsets.push_back(lineStart);
        load.validBytes = pos;
    }
    return load;
}

CampaignJournal::~CampaignJournal()
{
    // A destructor cannot surface failures; it does not need to. The
    // close result is deliberately ignored because record() already
    // fflush'd and fsync'd every line before returning — there is no
    // buffered data left for fclose to lose.
    if (file_ != nullptr)
        static_cast<void>(std::fclose(file_));
}

std::unique_ptr<CampaignJournal>
CampaignJournal::create(const std::string &path)
{
    std::unique_ptr<CampaignJournal> journal(new CampaignJournal);
    journal->path_ = path;
    // Deliberately not an AtomicFile: the journal is an append-only
    // log whose durability comes from the per-record fsync in
    // record(); the atomic temp+rename recipe cannot append.
    // lint:allow(durable-write): see above.
    journal->file_ = std::fopen(path.c_str(), "wb");
    if (journal->file_ == nullptr) {
        throw CampaignError("cannot create campaign journal '" +
                            path + "': " + std::strerror(errno), 0);
    }
    fsyncParentDir(path);
    return journal;
}

std::unique_ptr<CampaignJournal>
CampaignJournal::resume(const std::string &path)
{
    JournalLoad load = loadJournal(path);
    std::unique_ptr<CampaignJournal> journal(new CampaignJournal);
    journal->path_ = path;
    journal->loaded_ = std::move(load.records);
    journal->offsets_ = std::move(load.offsets);
    journal->tornTail_ = load.tornTail;
    if (load.tornTail) {
        // Cut the torn line off on disk so the file again ends at a
        // record boundary before we start appending after it.
        if (::truncate(path.c_str(),
                       static_cast<off_t>(load.validBytes)) != 0) {
            throw CampaignError(
                "cannot truncate torn campaign journal '" + path +
                "': " + std::strerror(errno), load.validBytes);
        }
        fsyncPath(path);
    }
    journal->offset_ = load.validBytes;
    // lint:allow(durable-write): append-only log, fsync'd per record.
    journal->file_ = std::fopen(path.c_str(), "ab");
    if (journal->file_ == nullptr) {
        throw CampaignError("cannot reopen campaign journal '" +
                            path + "': " + std::strerror(errno),
                            load.validBytes);
    }
    return journal;
}

void
CampaignJournal::attach(const std::vector<JobSpec> &jobs)
{
    byIndex_.assign(jobs.size(), nullptr);
    for (std::size_t i = 0; i < loaded_.size(); ++i) {
        JobRecord &rec = loaded_[i];
        const std::uint64_t offset = offsets_[i];
        if (rec.index >= jobs.size()) {
            throw CampaignError(
                "journal records job index " +
                std::to_string(rec.index) + " but the campaign "
                "expands to only " + std::to_string(jobs.size()) +
                " jobs", offset);
        }
        const JobSpec &spec = jobs[rec.index];
        if (spec.name != rec.spec.name ||
            spec.cfg.seed != rec.spec.cfg.seed) {
            throw CampaignError(
                "journal job " + std::to_string(rec.index) +
                " is '" + rec.spec.name + "' (seed " +
                std::to_string(rec.spec.cfg.seed) +
                ") but the campaign expands it as '" + spec.name +
                "' (seed " + std::to_string(spec.cfg.seed) + ")",
                offset);
        }
        // Re-attach the full spec (config, tags, ...): the journal
        // stores only the identity fields needed to verify it.
        rec.spec = spec;
        byIndex_[rec.index] = &rec;
    }
}

const JobRecord *
CampaignJournal::replay(std::size_t index) const
{
    return index < byIndex_.size() ? byIndex_[index] : nullptr;
}

void
CampaignJournal::record(const JobRecord &rec)
{
    const std::string line = encodeJournalRecord(rec);
    std::lock_guard<std::mutex> lock(mutex_);
    // Every I/O step is checked individually and surfaced as a
    // CampaignError carrying the append offset: a journal that can no
    // longer absorb records durably must stop the campaign, not
    // silently continue past an unrecorded result.
    const auto ioError = [this](const char *what) {
        throw CampaignError(
            std::string("cannot append to campaign journal '") +
            path_ + "': " + what + " failed: " +
            std::strerror(errno), offset_);
    };
    if (std::fwrite(line.data(), 1, line.size(), file_) != line.size())
        ioError("write");
    if (std::fflush(file_) != 0)
        ioError("flush");
    if (::fsync(fileno(file_)) != 0)
        ioError("fsync");
    offset_ += line.size();
}

std::string
manifestPath(const std::string &dir)
{
    return dir + "/manifest.txt";
}

std::string
journalPath(const std::string &dir)
{
    return dir + "/journal.txt";
}

} // namespace critmem::exec
