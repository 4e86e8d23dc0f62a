/**
 * @file
 * Crash-safe campaign state: the manifest + journal pair behind
 * critmem-sweep --campaign/--resume.
 *
 * A campaign directory holds two files:
 *
 *  - `manifest.txt` — what was asked for: the spec path, a hash of
 *    the fully expanded job list (campaignHash), and every
 *    command-line override that shaped the expansion. Written once,
 *    atomically, before the first job runs. On --resume the spec is
 *    re-expanded and the hash re-checked, so a resumed campaign can
 *    never silently mix results from two different experiment
 *    definitions.
 *
 *  - `journal.txt` — what has finished: one self-checksummed record
 *    per completed job, appended and fsync'd record-at-a-time by the
 *    JobRunner (via the CampaignLog interface). A record carries
 *    everything the result sinks serialize, so resumed campaigns
 *    replay completed jobs into the sinks byte-identically without
 *    re-running them.
 *
 * Durability contract: each journal line is `r1 <crc> <payload>`
 * where crc is the FNV-1a-64 of the payload. A crash (power loss,
 * SIGKILL) can only damage the final line; the loader detects
 * such a torn tail and truncates it, re-running that one
 * job. Damage anywhere else — a failed checksum mid-file, a
 * duplicate job index, an unparseable field — is never silently
 * skipped: it throws CampaignError carrying the byte offset of the
 * corruption, mirroring TraceError.
 */

#ifndef CRITMEM_EXEC_CAMPAIGN_HH
#define CRITMEM_EXEC_CAMPAIGN_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exec/job_runner.hh"

namespace critmem::exec
{

/**
 * A malformed campaign manifest or journal. Carries the byte offset
 * of the offending record/field so tooling can point at the
 * corruption (the analogue of TraceError for campaign state).
 */
class CampaignError : public std::runtime_error
{
  public:
    CampaignError(const std::string &message, std::uint64_t byteOffset);

    /** Offset into the file of the line that failed validation. */
    std::uint64_t byteOffset() const { return byteOffset_; }

  private:
    std::uint64_t byteOffset_;
};

/** 16-digit lower-case hex of a 64-bit hash (the on-disk spelling). */
std::string hashHex(std::uint64_t value);

/**
 * FNV-1a-64 over every simulation-affecting SystemConfig field: two
 * configurations with equal hashes produce identical runs. The
 * checker settings are not folded in; campaignHash adds the injected
 * fault itself.
 */
std::uint64_t configHash(const SystemConfig &cfg);

/**
 * Identity hash of a fully expanded campaign: folds every field of
 * every job that the result files depend on (name, seed, kind,
 * workload, quota, warmup, the whole simulation config via
 * configHash, and the injected fault) plus the registry
 * contents (scheduler/app/bundle name lists) and the identity of each
 * trace workload the jobs carry (JobSpec::trace, in first-use
 * order), so a code or spec change that would alter the job list
 * changes the hash. A pure function of @p jobs.
 */
std::uint64_t campaignHash(const std::vector<JobSpec> &jobs);

/**
 * The campaign manifest: ordered key/value pairs under a
 * `critmem-campaign v1` magic line. Keys remember their byte offset
 * so verification failures can point into the file.
 */
struct Manifest
{
    std::vector<std::pair<std::string, std::string>> fields;
    std::map<std::string, std::uint64_t> keyOffset;

    /** Value of @p key; nullptr when absent. */
    const std::string *find(const std::string &key) const;

    /**
     * Throw CampaignError (at the key's line) unless the manifest
     * holds @p key with exactly @p want — the resume-safety check.
     */
    void expectValue(const std::string &key,
                     const std::string &want) const;
};

/** Parse @p path; throws CampaignError on any malformation. */
Manifest loadManifest(const std::string &path);

/** Atomically (temp + fsync + rename) write a manifest to @p path. */
void writeManifest(
    const std::string &path,
    const std::vector<std::pair<std::string, std::string>> &fields);

/** Serialize one completed job as a journal line (incl. newline). */
std::string encodeJournalRecord(const JobRecord &rec);

/**
 * Decode one journal line (`r1 <checksum> <payload>`, trailing
 * newline optional) back into a JobRecord. The isolated-worker pipe
 * protocol (exec/worker.hh) reuses the journal encoding as its wire
 * format — the checksum turns a record torn by a worker crash into a
 * detected failure instead of silent corruption. Throws CampaignError
 * carrying @p offset on any structural or field damage.
 */
JobRecord decodeJournalRecord(const std::string &line,
                              std::uint64_t offset = 0);

/** Result of loading a journal file. */
struct JournalLoad
{
    std::vector<JobRecord> records;
    /** Byte offset where each record's line starts (parallel). */
    std::vector<std::uint64_t> offsets;
    /** File prefix covered by intact records. */
    std::uint64_t validBytes = 0;
    /** A torn final line was detected (and excluded). */
    bool tornTail = false;
};

/**
 * Load a journal. Exactly one kind of damage is tolerated — a torn
 * *final* line, the signature of a crash mid-append — and reported
 * via JournalLoad::tornTail. Everything else throws CampaignError
 * with the byte offset of the bad line.
 */
JournalLoad loadJournal(const std::string &path);

/**
 * The append-side of the journal: the CampaignLog implementation the
 * JobRunner writes through. Thread-safe; every record() call appends
 * one line, flushes and fsyncs before returning, so a record handed
 * to the sinks is always durable.
 */
class CampaignJournal : public CampaignLog
{
  public:
    /** Start an empty journal at @p path (truncates). */
    static std::unique_ptr<CampaignJournal>
    create(const std::string &path);

    /**
     * Load @p path (truncating a torn tail in place, on disk) and
     * open it for appending. Call attach() before use as a replay
     * source.
     */
    static std::unique_ptr<CampaignJournal>
    resume(const std::string &path);

    ~CampaignJournal() override;

    CampaignJournal(const CampaignJournal &) = delete;
    CampaignJournal &operator=(const CampaignJournal &) = delete;

    /**
     * Bind loaded records to the re-expanded job list: each record's
     * index must name a job with the same name and seed, else
     * CampaignError (at the record's byte offset) — the journal
     * belongs to a different campaign than the manifest admitted.
     */
    void attach(const std::vector<JobSpec> &jobs);

    const JobRecord *replay(std::size_t index) const override;
    void record(const JobRecord &rec) override;

    /** Records recovered from an existing journal by resume(). */
    std::size_t loadedCount() const { return loaded_.size(); }

    /** resume() found and truncated a torn final line. */
    bool tornTailTruncated() const { return tornTail_; }

    /**
     * Byte offset the next record will be appended at (== the bytes
     * of intact records currently on disk). A failed append throws
     * CampaignError carrying this offset, so forensics can point at
     * exactly where the journal stopped being writable.
     */
    std::uint64_t appendOffset() const { return offset_; }

  private:
    CampaignJournal() = default;

    std::FILE *file_ = nullptr;
    std::string path_;
    std::mutex mutex_;
    std::vector<JobRecord> loaded_;
    std::vector<std::uint64_t> offsets_;
    std::vector<const JobRecord *> byIndex_;
    bool tornTail_ = false;
    std::uint64_t offset_ = 0;
};

/** manifest.txt / journal.txt paths inside a campaign directory. */
std::string manifestPath(const std::string &dir);
std::string journalPath(const std::string &dir);

} // namespace critmem::exec

#endif // CRITMEM_EXEC_CAMPAIGN_HH
