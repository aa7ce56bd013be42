#include "harness/sweep.h"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>

#include "exec/cancel.h"
#include "exec/thread_pool.h"
#include "harness/report.h"
#include "obs/env.h"
#include "obs/json.h"
#include "obs/log.h"

namespace drs::harness {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** Salt separating the backoff-jitter stream from the fault streams. */
constexpr std::uint64_t kBackoffJitterSalt = 0x6a69747465720000ULL;

} // namespace

// ------------------------------------------------- Durable journal I/O

SweepJournal::~SweepJournal() { close(); }

bool
SweepJournal::open(const std::string &path, bool truncate, std::string *error)
{
    close();
    int flags = O_WRONLY | O_CREAT | O_APPEND;
    if (truncate)
        flags |= O_TRUNC;
    fd_ = ::open(path.c_str(), flags, 0644);
    if (fd_ < 0) {
        if (error)
            *error = "cannot open journal '" + path +
                     "': " + std::strerror(errno);
        return false;
    }
    return true;
}

bool
SweepJournal::append(const obs::Json &entry, std::string *error)
{
    if (fd_ < 0) {
        if (error)
            *error = "journal is not open";
        return false;
    }
    const std::string line = entry.dump() + "\n";
    std::size_t written = 0;
    while (written < line.size()) {
        const ssize_t n =
            ::write(fd_, line.data() + written, line.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (error)
                *error = std::string("journal write failed: ") +
                         std::strerror(errno);
            return false;
        }
        written += static_cast<std::size_t>(n);
    }
    // The durability contract: the record is on disk before append()
    // returns, so a SIGKILL after this point cannot lose it.
    if (::fsync(fd_) != 0) {
        if (error)
            *error = std::string("journal fsync failed: ") +
                     std::strerror(errno);
        return false;
    }
    ++appends_;
    return true;
}

void
SweepJournal::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

// ------------------------------------------- Result <-> JSON records

obs::Json
sweepResultToJson(std::size_t index, const std::string &key,
                  const SweepResult &result)
{
    obs::Json entry = obs::Json::object();
    entry["job"] = static_cast<std::uint64_t>(index);
    entry["key"] = key;
    entry["ran"] = result.ran;
    entry["failed"] = result.failed;
    entry["attempts"] = static_cast<std::int64_t>(result.attempts);
    entry["fault_seed"] = result.faultSeed;
    entry["seconds"] = result.seconds;
    if (result.ran)
        entry["stats"] = statsJsonFull(result.stats);
    if (!result.error.empty())
        entry["error"] = result.error;
    return entry;
}

std::string
sweepResultFromJson(const obs::Json &entry, std::uint64_t *index,
                    std::string *key, SweepResult *result)
{
    if (!entry.isObject())
        return "record is not an object";
    const obs::Json *job_field = entry.find("job");
    const obs::Json *key_field = entry.find("key");
    if (job_field == nullptr || !job_field->isNumber() ||
        key_field == nullptr || !key_field->isString())
        return "record lacks job/key";
    *index = job_field->asUint();
    *key = key_field->asString();

    SweepResult parsed;
    const obs::Json *ran = entry.find("ran");
    const obs::Json *failed = entry.find("failed");
    parsed.ran = ran != nullptr && ran->isBool() && ran->asBool();
    parsed.failed = failed != nullptr && failed->isBool() && failed->asBool();
    if (const obs::Json *attempts = entry.find("attempts");
        attempts != nullptr && attempts->isNumber())
        parsed.attempts = static_cast<int>(attempts->asUint());
    if (const obs::Json *seed = entry.find("fault_seed");
        seed != nullptr && seed->isNumber())
        parsed.faultSeed = seed->asUint();
    if (const obs::Json *seconds = entry.find("seconds");
        seconds != nullptr && seconds->isNumber())
        parsed.seconds = seconds->asDouble();
    if (const obs::Json *err = entry.find("error");
        err != nullptr && err->isString())
        parsed.error = err->asString();
    if (parsed.ran) {
        const obs::Json *stats = entry.find("stats");
        if (stats == nullptr)
            return "record has ran=true but no stats";
        try {
            parsed.stats = statsFromJson(*stats);
        } catch (const std::exception &e) {
            return std::string("record stats malformed: ") + e.what();
        }
    }
    *result = std::move(parsed);
    return "";
}

std::vector<char>
replaySweepJournal(const std::string &path,
                   const std::vector<SweepJob> &jobs,
                   std::vector<SweepResult> &results)
{
    std::vector<char> done(jobs.size(), 0);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        obs::Json data = obs::Json::object();
        data["path"] = obs::Json(path);
        obs::logEvent(obs::LogLevel::Warn, "sweep", "resume_no_journal",
                      std::move(data));
        return done;
    }

    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        std::string error;
        const std::optional<obs::Json> parsed = obs::Json::parse(line, &error);
        std::uint64_t index = 0;
        std::string key;
        SweepResult result;
        if (parsed)
            error = sweepResultFromJson(*parsed, &index, &key, &result);
        if (!parsed || !error.empty()) {
            // A crash mid-append leaves a truncated last line; tolerate
            // it (and anything after it) by re-running those jobs.
            obs::Json data = obs::Json::object();
            data["line"] = obs::Json(
                static_cast<unsigned long long>(line_no));
            data["error"] = obs::Json(error);
            obs::logEvent(obs::LogLevel::Warn, "sweep",
                          "resume_truncated", std::move(data));
            break;
        }
        if (index >= jobs.size() || key != SweepRunner::jobKey(jobs[index])) {
            obs::Json data = obs::Json::object();
            data["line"] = obs::Json(
                static_cast<unsigned long long>(line_no));
            data["job"] = obs::Json(static_cast<unsigned long long>(index));
            data["key"] = obs::Json(key);
            obs::logEvent(obs::LogLevel::Warn, "sweep",
                          "resume_mismatch", std::move(data));
            continue;
        }
        result.fromJournal = true;
        results[index] = std::move(result);
        done[index] = 1;
    }
    return done;
}

double
jitteredBackoff(double base_seconds, int doublings, std::uint64_t seed,
                std::uint64_t salt, std::size_t index, int draw)
{
    const std::uint64_t mixed =
        fault::mixSeed(seed ^ salt, static_cast<std::uint64_t>(index),
                       static_cast<std::uint64_t>(draw));
    // Top 53 bits -> uniform double in [0, 1).
    const double unit = static_cast<double>(mixed >> 11) * 0x1.0p-53;
    return base_seconds * std::ldexp(1.0, doublings) * (0.5 + 0.5 * unit);
}

// ------------------------------------------------------------ Job ledger

JobLedger::JobLedger(const std::vector<SweepJob> &jobs,
                     const SweepOptions &options, const char *subsystem)
    : jobs_(jobs),
      subsystem_(subsystem),
      crashAfter_(options.crashAfter),
      results_(jobs.size()),
      settled_(jobs.size(), 0)
{
    if (options.journalPath.empty())
        return;
    if (options.resume) {
        settled_ = replaySweepJournal(options.journalPath, jobs, results_);
        for (const char done : settled_)
            replayed_ += done ? 1u : 0u;
    }
    // Fresh run: truncate any stale journal so a later --resume cannot
    // merge entries from a different invocation. Resumed runs append
    // after the replayed records.
    std::string error;
    if (!journal_.open(options.journalPath, !options.resume, &error)) {
        obs::Json data = obs::Json::object();
        data["error"] = obs::Json(error);
        obs::logEvent(obs::LogLevel::Warn, subsystem_, "journal_open_failed",
                      std::move(data));
    }
}

void
JobLedger::record(std::size_t index, SweepResult result)
{
    results_[index] = std::move(result);
    settled_[index] = 1;
    if (!journal_.isOpen())
        return;
    const obs::Json entry = sweepResultToJson(
        index, SweepRunner::jobKey(jobs_[index]), results_[index]);

    std::lock_guard<std::mutex> lock(journalMutex_);
    std::string error;
    if (!journal_.append(entry, &error)) {
        obs::Json data = obs::Json::object();
        data["error"] = obs::Json(error);
        obs::logEvent(obs::LogLevel::Error, subsystem_,
                      "journal_append_failed", std::move(data));
        return;
    }
    if (crashAfter_ > 0 && journal_.appends() >= crashAfter_) {
        // Crash injection for the resume tests: die without unwinding,
        // exactly like a kill -9 after the append hit the disk (fleet
        // workers die with the coordinator via PR_SET_PDEATHSIG).
        obs::Json data = obs::Json::object();
        data["appends"] = obs::Json(journal_.appends());
        data["crash_after"] = obs::Json(crashAfter_);
        obs::logEvent(obs::LogLevel::Warn, subsystem_, "crash_injection",
                      std::move(data));
        std::fprintf(stderr, "[%s] DRS_CRASH_AFTER: exiting after %d "
                             "journal append%s\n",
                     subsystem_, journal_.appends(),
                     journal_.appends() == 1 ? "" : "s");
        std::fflush(stderr);
        std::_Exit(70);
    }
}

void
JobLedger::fail(std::size_t index, std::string error, int attempts)
{
    // Unsettled results are still default-constructed (ran = false).
    SweepResult &result = results_[index];
    result.failed = true;
    result.error = std::move(error);
    result.attempts = attempts;
    settled_[index] = 1;
}

std::size_t
JobLedger::failed() const
{
    std::size_t count = 0;
    for (const SweepResult &result : results_)
        count += result.failed ? 1u : 0u;
    return count;
}

void
JobLedger::closeJournal()
{
    std::lock_guard<std::mutex> lock(journalMutex_);
    journal_.close();
}

std::vector<SweepResult>
JobLedger::finish()
{
    closeJournal();
    return std::move(results_);
}

SweepOptions
SweepOptions::fromEnvironment()
{
    SweepOptions options;
    options.fault = fault::FaultConfig::fromEnvironment();
    options.watchdogCycles = fault::watchdogCyclesFromEnvironment();
    obs::envReal("DRS_JOB_TIMEOUT", &options.jobTimeoutSeconds,
                 obs::kPositive);
    obs::envReal("DRS_RETRY_DEADLINE", &options.retryDeadlineSeconds,
                 obs::kPositive);
    obs::envInt("DRS_CRASH_AFTER", &options.crashAfter, 1);
    return options;
}

const PreparedScene &
PreparedSceneCache::get(scene::SceneId id, const ExperimentScale &scale)
{
    std::shared_future<std::shared_ptr<const PreparedScene>> future;
    std::shared_ptr<std::promise<std::shared_ptr<const PreparedScene>>>
        promise;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const Entry &entry : entries_) {
            if (entry.id == id && entry.scale == scale) {
                ++hits_;
                future = entry.future;
                break;
            }
        }
        if (!future.valid()) {
            ++misses_;
            promise = std::make_shared<
                std::promise<std::shared_ptr<const PreparedScene>>>();
            future = promise->get_future().share();
            entries_.push_back({id, scale, future});
        }
    }
    if (promise) {
        // Build outside the lock so other scenes can be looked up (and
        // built) concurrently; later requesters block on the future.
        try {
            promise->set_value(std::make_shared<const PreparedScene>(
                prepareScene(id, scale)));
        } catch (...) {
            promise->set_exception(std::current_exception());
        }
    }
    return *future.get();
}

std::size_t
PreparedSceneCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::size_t
PreparedSceneCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

SweepRunner::SweepRunner(const ExperimentScale &scale, int jobs,
                         const SweepOptions &options)
    : scale_(scale),
      jobs_count_(jobs < 1 ? 1 : jobs),
      options_(options)
{
    if (options_.maxAttempts < 1)
        options_.maxAttempts = 1;
}

std::string
SweepRunner::jobKey(const SweepJob &job)
{
    return scene::sceneName(job.scene) + "/" + archName(job.arch) + "/b" +
           std::to_string(job.bounce) + "/r" + std::to_string(job.maxRays);
}

std::size_t
SweepRunner::add(const SweepJob &job)
{
    pending_.push_back(job);
    return pending_.size() - 1;
}

std::vector<SweepJob>
SweepRunner::takePending()
{
    std::vector<SweepJob> jobs;
    jobs.swap(pending_);
    return jobs;
}

std::vector<std::size_t>
SweepRunner::addCapture(scene::SceneId scene, Arch arch,
                        const RunConfig &config, int max_bounces,
                        std::size_t max_rays)
{
    const int bounces = max_bounces > 0 ? max_bounces : scale_.maxDepth;
    std::vector<std::size_t> indices;
    indices.reserve(static_cast<std::size_t>(bounces));
    for (int bounce = 1; bounce <= bounces; ++bounce) {
        SweepJob job;
        job.scene = scene;
        job.arch = arch;
        job.config = config;
        job.bounce = bounce;
        job.maxRays = max_rays;
        indices.push_back(add(job));
    }
    return indices;
}

SweepResult
SweepRunner::runOne(const SweepJob &job)
{
    const PreparedScene &prepared = cache_.get(job.scene, scale_);

    SweepResult result;
    const render::BounceRays *found = nullptr;
    for (const auto &bounce : prepared.trace.bounces) {
        if (bounce.bounce == job.bounce) {
            found = &bounce;
            break;
        }
    }
    if (!found || found->rays.empty())
        return result;

    std::span<const geom::Ray> rays(found->rays);
    if (job.maxRays && rays.size() > job.maxRays)
        rays = rays.first(job.maxRays);

    // The sweep owns the profiler side channel: jobs run concurrently,
    // so a caller-provided observationsOut would be clobbered. Tracing
    // also deposits observations (the ring recorded/dropped counters
    // surface in bench reports).
    RunConfig config = job.config;
    std::shared_ptr<RunObservations> observations;
    if (config.sample.enabled || config.trace.enabled) {
        observations = std::make_shared<RunObservations>();
        config.observationsOut = observations.get();
    } else {
        config.observationsOut = nullptr;
    }

    const auto start = std::chrono::steady_clock::now();
    result.stats = runBatch(job.arch, *prepared.tracer, rays, config);
    result.seconds = secondsSince(start);
    result.ran = true;
    result.observations = std::move(observations);
    return result;
}

SweepResult
SweepRunner::runJob(const SweepJob &job, std::size_t index)
{
    SweepResult result;
    // The retry deadline spans the whole loop: every attempt and every
    // backoff sleep draws from the same wall-clock budget.
    const bool has_retry_deadline = options_.retryDeadlineSeconds > 0;
    const Clock::time_point retry_deadline =
        has_retry_deadline
            ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     options_.retryDeadlineSeconds))
            : Clock::time_point::max();

    for (int attempt = 1; attempt <= options_.maxAttempts; ++attempt) {
        SweepJob tried = job;
        std::uint64_t attempt_seed = 0;
        if (options_.fault.enabled()) {
            tried.config.fault = options_.fault;
            // Pure function of (sweep seed, job index, attempt): the
            // fault stream does not depend on --jobs or scheduling.
            attempt_seed = fault::mixSeed(options_.fault.seed,
                                          static_cast<std::uint64_t>(index),
                                          static_cast<std::uint64_t>(attempt));
            tried.config.fault.seed = attempt_seed;
            // Injected faults can livelock a simulator; never let a hung
            // job stall the whole sweep.
            if (tried.config.watchdogCycles == 0)
                tried.config.watchdogCycles = fault::kDefaultWatchdogCycles;
        }
        if (options_.watchdogCycles != 0)
            tried.config.watchdogCycles = options_.watchdogCycles;

        exec::CancelToken token;
        token.setParent(tried.config.cancel != nullptr ? tried.config.cancel
                                                       : options_.cancel);
        // The attempt's deadline is the tighter of the per-attempt
        // timeout and the whole-job retry deadline.
        Clock::time_point deadline = retry_deadline;
        if (options_.jobTimeoutSeconds > 0)
            deadline = std::min(
                deadline,
                Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       options_.jobTimeoutSeconds)));
        if (deadline != Clock::time_point::max())
            token.setDeadline(deadline);
        if (token.hasDeadline() || token.parent() != nullptr)
            tried.config.cancel = &token;

        try {
            result = runOne(tried);
            result.attempts = attempt;
            result.faultSeed = attempt_seed;
            return result;
        } catch (const std::exception &e) {
            result = SweepResult{};
            result.failed = true;
            result.error = e.what();
            result.attempts = attempt;
            result.faultSeed = attempt_seed;
            // A sweep-wide cancel (signal fan-out): report the job
            // failed and stop immediately — retrying a cancelled job
            // would fight the shutdown.
            if (dynamic_cast<const exec::Cancelled *>(&e) != nullptr)
                return result;
            if (const auto *timeout =
                    dynamic_cast<const fault::WatchdogTimeout *>(&e)) {
                // The diagnostic dump rides in the event payload: one
                // structured record instead of a multi-line stderr
                // interleave (the stderr sink renders it truncated).
                obs::Json data = obs::Json::object();
                data["job"] =
                    obs::Json(static_cast<unsigned long long>(index));
                data["key"] = obs::Json(jobKey(job));
                data["cycle"] = obs::Json(static_cast<unsigned long long>(
                    timeout->cycle()));
                data["budget_cycles"] =
                    obs::Json(static_cast<unsigned long long>(
                        timeout->budgetCycles()));
                data["dump"] = obs::Json(timeout->dump());
                obs::logEvent(obs::LogLevel::Error, "watchdog", "timeout",
                              std::move(data));
            }
            {
                obs::Json data = obs::Json::object();
                data["job"] =
                    obs::Json(static_cast<unsigned long long>(index));
                data["key"] = obs::Json(jobKey(job));
                data["attempt"] = obs::Json(attempt);
                data["max_attempts"] = obs::Json(options_.maxAttempts);
                data["error"] = obs::Json(std::string(e.what()));
                obs::logEvent(obs::LogLevel::Warn, "sweep",
                              "attempt_failed", std::move(data));
            }
            if (options_.cancel != nullptr && options_.cancel->cancelled())
                return result;
            if (attempt < options_.maxAttempts &&
                options_.backoffSeconds > 0) {
                // Deterministic jitter desynchronizes concurrent
                // retries; same sweep, same waits (see SweepOptions).
                const double delay = jitteredBackoff(
                    options_.backoffSeconds, attempt - 1, options_.fault.seed,
                    kBackoffJitterSalt, index, attempt);
                const auto wake =
                    Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(delay));
                if (wake >= retry_deadline) {
                    // Sleeping would overrun the retry budget:
                    // quarantine now instead of wasting the wall-clock.
                    result.error += " (retry deadline of " +
                                    std::to_string(
                                        options_.retryDeadlineSeconds) +
                                    " s exhausted)";
                    return result;
                }
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(delay));
            }
        }
    }
    // Retry budget exhausted: quarantine. The result stays in the
    // vector (failed = true) so reports list it instead of dropping it.
    return result;
}

std::vector<SweepResult>
SweepRunner::run()
{
    std::vector<SweepJob> jobs;
    jobs.swap(pending_);
    JobLedger ledger(jobs, options_, "sweep");

    std::vector<std::size_t> todo;
    todo.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        if (!ledger.settled(i))
            todo.push_back(i);

    const auto start = std::chrono::steady_clock::now();
    // Progress accounting: replayed jobs count as done up front, and
    // each completion bumps the shared counter before the callback.
    std::atomic<std::size_t> completed{ledger.replayed()};
    if (options_.progress && !jobs.empty())
        options_.progress(completed.load(), jobs.size());
    auto execute = [this, &jobs, &ledger, &completed](std::size_t i) {
        if (options_.cancel != nullptr && options_.cancel->cancelled()) {
            // Cancelled sweep: fail the job instead of starting it so
            // the result vector stays complete (reported, not dropped).
            ledger.fail(i, "sweep cancelled");
            return;
        }
        ledger.record(i, runJob(jobs[i], i));
        if (options_.progress)
            options_.progress(completed.fetch_add(1) + 1, jobs.size());
    };
    if (jobs_count_ <= 1 || todo.size() <= 1) {
        for (const std::size_t i : todo)
            execute(i);
    } else {
        exec::ThreadPool pool(jobs_count_);
        exec::TaskGroup group(pool);
        for (const std::size_t i : todo)
            group.run([&execute, i] { execute(i); });
        group.wait();
    }

    std::printf("[sweep] %zu sims on %d worker%s in %.2f s "
                "(scene cache: %zu hit%s, %zu miss%s)",
                todo.size(), jobs_count_, jobs_count_ == 1 ? "" : "s",
                secondsSince(start), cache_.hits(),
                cache_.hits() == 1 ? "" : "s", cache_.misses(),
                cache_.misses() == 1 ? "" : "es");
    if (ledger.replayed() > 0)
        std::printf(", %zu replayed from journal", ledger.replayed());
    if (ledger.failed() > 0)
        std::printf(", %zu QUARANTINED", ledger.failed());
    std::printf("\n");
    std::fflush(stdout);
    return ledger.finish();
}

CaptureResult
collectCapture(const std::vector<SweepResult> &results,
               const std::vector<std::size_t> &indices)
{
    CaptureResult capture;
    std::uint64_t cycles = 0;
    for (const std::size_t index : indices) {
        const SweepResult &result = results.at(index);
        if (!result.ran)
            continue;
        capture.overall.merge(result.stats);
        cycles += result.stats.cycles;
        capture.perBounce.push_back(result.stats);
    }
    // As in runCapture: bounces run back-to-back, so overall cycles
    // accumulate instead of taking the max.
    capture.overall.cycles = cycles;
    return capture;
}

} // namespace drs::harness
