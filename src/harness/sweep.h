#pragma once

/**
 * @file
 * Concurrent sweep runner: the bench binaries describe their experiment
 * as a declarative grid of {scene, architecture, config, bounce} jobs and
 * this runner executes them on a work-stealing thread pool, preparing
 * each scene (geometry, BVH, ray capture) exactly once per
 * (SceneId, ExperimentScale) and sharing it read-only across all jobs.
 *
 * Simulations are independent, so sweep-level parallelism never changes
 * any SimStats — results are written by job index and each simulation is
 * bit-identical to a sequential run (see DESIGN.md, "Parallel execution
 * model").
 */

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness/harness.h"
#include "obs/json.h"

namespace drs::harness {

/**
 * Build-once, share-everywhere scene store. Thread-safe: concurrent
 * first requests for the same key build the scene exactly once (the
 * first requester builds, the rest block on a shared future).
 */
class PreparedSceneCache
{
  public:
    /**
     * Scene + tracer + capture for @p id at @p scale, building it on the
     * first request. The reference stays valid for the cache's lifetime.
     */
    const PreparedScene &get(scene::SceneId id, const ExperimentScale &scale);

    /** Requests served from an existing (or in-flight) entry. */
    std::size_t hits() const;
    /** Requests that had to build the scene. */
    std::size_t misses() const;

  private:
    struct Entry
    {
        scene::SceneId id;
        ExperimentScale scale;
        std::shared_future<std::shared_ptr<const PreparedScene>> future;
    };

    mutable std::mutex mutex_;
    std::vector<Entry> entries_;
    std::size_t hits_ = 0;
    std::size_t misses_ = 0;
};

/** One cell of a sweep grid: a single simulated ray batch. */
struct SweepJob
{
    scene::SceneId scene = scene::SceneId::Conference;
    Arch arch = Arch::Aila;
    RunConfig config{};
    /** 1-based bounce of the scene's capture to trace. */
    int bounce = 1;
    /** Cap on rays taken from the bounce; 0 = the whole bounce. */
    std::size_t maxRays = 0;
};

/** Outcome of one SweepJob, in add order. */
struct SweepResult
{
    simt::SimStats stats;
    /** False when the capture has no rays for the requested bounce. */
    bool ran = false;
    /** Wall-clock seconds of this simulation (excludes scene prep). */
    double seconds = 0.0;
    /**
     * True when the job exhausted its retry budget and was quarantined.
     * Quarantined jobs are never dropped: they stay in the result vector
     * (ran = false) and bench reports list them in a "quarantined"
     * summary with their last error.
     */
    bool failed = false;
    /** Last failure message (empty when the job succeeded first try). */
    std::string error;
    /** Simulation attempts made (0 when replayed from a journal). */
    int attempts = 0;
    /** Derived per-attempt fault seed of the final attempt (0 = none). */
    std::uint64_t faultSeed = 0;
    /** True when this result was replayed from a --resume journal. */
    bool fromJournal = false;
    /**
     * Profiler output (cycle attribution + sampled timeline), present
     * only when the job's config enabled sampling (RunConfig::sample)
     * and the job actually ran. Null for journal replays: the journal
     * stores lossless SimStats, not profiler sections. Shared because
     * results are copied around by value.
     */
    std::shared_ptr<const RunObservations> observations;
};

/**
 * Robust-execution policy of a sweep: fault injection, per-job deadlines,
 * bounded retry with quarantine, and the append-only completed-job
 * journal that makes an interrupted sweep resumable. All defaults keep
 * the sweep byte-for-byte compatible with the pre-fault-layer behaviour.
 */
struct SweepOptions
{
    /**
     * Master fault configuration (seed 0 = off). Each job attempt runs
     * with a private seed derived as mixSeed(master seed, job index,
     * attempt), so the fault sequence is a pure function of the sweep
     * seed and position — independent of --jobs, scheduling, or which
     * attempt of another job is in flight.
     */
    fault::FaultConfig fault{};
    /**
     * Watchdog budget per job in cycles. 0 = automatic: off for clean
     * runs (bit-identity with older binaries), fault::kDefaultWatchdogCycles
     * as soon as fault injection is enabled (faults can livelock a
     * simulator, and a hung job would stall the whole sweep).
     */
    std::uint64_t watchdogCycles = 0;
    /** Per-job wall-clock deadline in seconds; <= 0 = none. */
    double jobTimeoutSeconds = 0.0;
    /** Attempts per job before quarantine (>= 1). */
    int maxAttempts = 3;
    /**
     * Base of the exponential retry backoff (seconds). The actual delay
     * before attempt N+1 is backoffSeconds * 2^(N-1) scaled by a
     * deterministic jitter factor in [0.5, 1.0] seeded from (fault
     * seed, job index, attempt) — retries of concurrent jobs spread out
     * instead of stampeding in lockstep, and the same sweep always
     * waits the same amount.
     */
    double backoffSeconds = 0.05;
    /**
     * Cap on a job's total wall-clock across all attempts and backoff
     * sleeps (seconds); <= 0 = none. Enforced through the cancel-token
     * deadline plumbing: the deadline spans the whole retry loop, a
     * pending backoff that would overrun it quarantines the job
     * immediately instead of sleeping, and the in-flight attempt is
     * aborted via DeadlineExceeded. DRS_RETRY_DEADLINE.
     */
    double retryDeadlineSeconds = 0.0;
    /**
     * Sweep-wide cooperative stop flag (may be null). Chained as the
     * parent of every per-attempt token, so one requestCancel() — e.g.
     * from a signal handler — aborts the running simulations and fails
     * the remaining jobs instead of starting them. Cancelled jobs are
     * reported failed, never retried.
     */
    const exec::CancelToken *cancel = nullptr;
    /**
     * Append-only JSONL journal of completed jobs (lossless SimStats via
     * statsJsonFull). Empty = no journal. A fresh run truncates the
     * file; --resume replays it instead.
     */
    std::string journalPath;
    /**
     * Replay matching journal entries instead of re-running their jobs;
     * only the jobs the journal does not cover (including a corrupt
     * tail, which is tolerated) are executed. The merged results are
     * identical to an uninterrupted run.
     */
    bool resume = false;
    /**
     * Crash-injection for the resume tests (DRS_CRASH_AFTER): terminate
     * the process with _Exit(70) after this many journal appends. 0 =
     * off. Requires a journalPath.
     */
    int crashAfter = 0;
    /**
     * Completion callback: invoked after every finished job with (jobs
     * done so far, jobs total). Called from worker threads under the
     * runner's bookkeeping; keep it cheap (the --progress ticker just
     * repaints one stderr line). Pure observer — never affects results.
     * Fleet workers never fire it: they only call runJob().
     */
    std::function<void(std::size_t done, std::size_t total)> progress;

    /**
     * Populate from the environment: DRS_FAULT_SEED (see
     * fault::FaultConfig::fromEnvironment), DRS_WATCHDOG (cycles),
     * DRS_JOB_TIMEOUT (seconds), DRS_RETRY_DEADLINE (seconds),
     * DRS_CRASH_AFTER (journal appends).
     */
    static SweepOptions fromEnvironment();
};

/**
 * Durable append-only JSONL writer backing the sweep journal. Every
 * append writes the full line and fsync()s the file descriptor before
 * returning, so a record the caller saw succeed is on disk — a SIGKILL
 * (or DRS_CRASH_AFTER _Exit) one instruction later cannot lose it to a
 * libc or page-cache buffer. Not thread-safe; callers serialize (the
 * JobLedger holds its journal mutex across append()).
 */
class SweepJournal
{
  public:
    SweepJournal() = default;
    ~SweepJournal();
    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /**
     * Open @p path for appending; @p truncate discards existing content
     * (a fresh run), otherwise appends (a --resume continuation).
     * @return false with a reason in @p error on failure.
     */
    bool open(const std::string &path, bool truncate,
              std::string *error = nullptr);

    bool isOpen() const { return fd_ >= 0; }

    /** Append one record as a single line, flushed + fsync'd. */
    bool append(const obs::Json &entry, std::string *error = nullptr);

    /** Records appended through this writer (not lines in the file). */
    int appends() const { return appends_; }

    void close();

  private:
    int fd_ = -1;
    int appends_ = 0;
};

/**
 * One sweep outcome as a journal/protocol record: {"job", "key",
 * "ran", "failed", "attempts", "fault_seed", "seconds", "stats"
 * (lossless, when ran), "error" (when failed)}. The fleet result
 * protocol reuses this shape verbatim, so a worker's result frame and a
 * journal line are interchangeable.
 */
obs::Json sweepResultToJson(std::size_t index, const std::string &key,
                            const SweepResult &result);

/**
 * Parse one sweepResultToJson record. @return empty string on success
 * (with @p index, @p key and @p result filled, result.fromJournal
 * left untouched), else a human-readable reason.
 */
std::string sweepResultFromJson(const obs::Json &entry, std::uint64_t *index,
                                std::string *key, SweepResult *result);

/**
 * Replay a JSONL journal at @p path into @p results (sized like
 * @p jobs): entries whose index/key match the job at that index are
 * marked done; a malformed line (torn tail of a crash) stops the replay
 * and everything after it re-runs. JobLedger replays through it for
 * SweepRunner::run and the fleet coordinator alike, so a journal written
 * by either is resumable by both.
 *
 * @return per-job done flags (1 = replayed from the journal)
 */
std::vector<char> replaySweepJournal(const std::string &path,
                                     const std::vector<SweepJob> &jobs,
                                     std::vector<SweepResult> &results);

/**
 * Seeded exponential backoff: @p base_seconds * 2^@p doublings scaled by
 * a jitter factor in [0.5, 1.0) drawn from (@p seed ^ @p salt, @p index,
 * @p draw). Concurrent waits spread out, yet the same grid always waits
 * the same amount. The sweep's retries and the fleet's re-dispatches
 * pass distinct salts, so their streams never align.
 */
double jitteredBackoff(double base_seconds, int doublings, std::uint64_t seed,
                       std::uint64_t salt, std::size_t index, int draw);

/**
 * Terminal-outcome ledger of one run over a job grid, shared by
 * SweepRunner::run and the fleet coordinator. It holds the results in
 * grid order, starts a --resume run from the journal's replayed records
 * (a fresh run truncates the journal instead), appends every record()ed
 * outcome exactly once as a fsync'd sweepResultToJson line, and
 * terminates the process with _Exit(70) after SweepOptions::crashAfter
 * appends. Jobs closed through fail() (cancelled, or never run) are not
 * journaled, so a later --resume runs them.
 *
 * record() and fail() may run concurrently for distinct jobs.
 */
class JobLedger
{
  public:
    /**
     * @param subsystem event-log subsystem of the caller ("sweep",
     *        "fleet"); journal and crash-injection events log under it
     */
    JobLedger(const std::vector<SweepJob> &jobs, const SweepOptions &options,
              const char *subsystem);

    /** True once job @p index is replayed, recorded or failed. */
    bool settled(std::size_t index) const { return settled_[index] != 0; }

    const SweepResult &result(std::size_t i) const { return results_[i]; }

    /** Settle job @p index with @p result and journal it. */
    void record(std::size_t index, SweepResult result);

    /** Settle job @p index as failed with @p error, not journaled. */
    void fail(std::size_t index, std::string error, int attempts = 0);

    /** Jobs settled from the --resume journal. */
    std::size_t replayed() const { return replayed_; }
    /** Settled jobs whose outcome is a failure. */
    std::size_t failed() const;

    /** Close the journal writer (a forked child must not inherit it). */
    void closeJournal();

    /** Close the journal and hand out the results in grid order. */
    std::vector<SweepResult> finish();

  private:
    const std::vector<SweepJob> &jobs_;
    const char *subsystem_;
    int crashAfter_;
    std::vector<SweepResult> results_;
    std::vector<char> settled_;
    std::size_t replayed_ = 0;
    std::mutex journalMutex_;
    SweepJournal journal_;
};

/**
 * Declarative experiment sweep over a shared scene cache.
 *
 * Usage: add() every cell of the grid, then run() once; results come
 * back indexed exactly like the add() calls. With jobs > 1 the cells
 * execute concurrently on a work-stealing pool; with jobs <= 1 they run
 * inline, in order.
 */
class SweepRunner
{
  public:
    /**
     * @param scale experiment scale shared by every job (scene cache key)
     * @param jobs worker threads for the sweep; <= 1 = sequential
     * @param options robustness policy (faults, retry, journal, resume)
     */
    explicit SweepRunner(const ExperimentScale &scale, int jobs = 1,
                         const SweepOptions &options = {});

    /** Queue one job. @return its index into run()'s result vector. */
    std::size_t add(const SweepJob &job);

    /**
     * Queue one job per bounce of @p scene's capture: bounces 1 to
     * @p max_bounces (0 = the scale's maxDepth). Bounces the capture
     * does not contain come back with ran = false.
     *
     * @return result indices, one per bounce, in bounce order
     */
    std::vector<std::size_t> addCapture(scene::SceneId scene, Arch arch,
                                        const RunConfig &config,
                                        int max_bounces = 0,
                                        std::size_t max_rays = 0);

    /**
     * Execute every queued job and return their results in add order.
     * Prints a one-line summary (job count, workers, wall-clock, scene
     * cache hits/misses) to stdout. Clears the queue; the scene cache
     * persists across run() calls.
     */
    std::vector<SweepResult> run();

    /** The shared scene store (also usable directly, e.g. for stats). */
    const PreparedScene &prepared(scene::SceneId id)
    {
        return cache_.get(id, scale_);
    }

    const ExperimentScale &scale() const { return scale_; }
    int jobCount() const { return jobs_count_; }
    std::size_t pendingJobs() const { return pending_.size(); }

    /** Scene cache observability (each scene must build exactly once). */
    std::size_t cacheHits() const { return cache_.hits(); }
    std::size_t cacheMisses() const { return cache_.misses(); }

    const SweepOptions &options() const { return options_; }

    /**
     * Execute one job under the full robustness policy (fault seeds,
     * watchdog, timeout, retry + jitter backoff, retry deadline) without
     * touching the queue or the journal. @p index is the job's identity
     * in its grid: per-attempt fault seeds derive from it, so a fleet
     * worker executing job 7 of a sharded grid produces bit-identical
     * results to the single-process sweep running job 7 itself.
     */
    SweepResult runJob(const SweepJob &job, std::size_t index);

    /** Take (and clear) the queued jobs, e.g. to shard them elsewhere. */
    std::vector<SweepJob> takePending();

    /**
     * Journal/identity key of @p job ("scene/arch/b<bounce>/r<maxRays>"):
     * a --resume run only replays an entry when its key still matches
     * the job at the same index, so a journal from a different sweep is
     * rejected instead of silently merged.
     */
    static std::string jobKey(const SweepJob &job);

  private:
    SweepResult runOne(const SweepJob &job);

    ExperimentScale scale_;
    int jobs_count_;
    SweepOptions options_;
    PreparedSceneCache cache_;
    std::vector<SweepJob> pending_;
};

/**
 * Assemble per-bounce sweep results (as returned for an addCapture call)
 * into the CaptureResult shape runCapture produces: absent bounces are
 * skipped, overall merges the rest, cycles accumulate across bounces.
 */
CaptureResult collectCapture(const std::vector<SweepResult> &results,
                             const std::vector<std::size_t> &indices);

} // namespace drs::harness
