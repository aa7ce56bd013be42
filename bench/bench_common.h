#pragma once

/**
 * @file
 * Shared plumbing for the paper-reproduction bench binaries: experiment
 * scale from the environment, command-line options for the parallel
 * sweep runner, and wall-clock timing. Every bench prints the rows or
 * series of one paper table or figure (see DESIGN.md section 4),
 * describing its experiment as a SweepRunner grid so independent
 * simulations execute concurrently and scenes are prepared once.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>

#include "exec/thread_pool.h"
#include "fleet/fleet.h"
#include "harness/harness.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "obs/env.h"
#include "obs/report.h"
#include "stats/table.h"

namespace drs::bench {

/** Command-line options shared by every bench binary. */
struct Options
{
    /** Concurrent simulations (--jobs N / DRS_JOBS). */
    int jobs = 1;
    /** Worker threads inside each simulation (--smx-threads N). */
    int smxThreads = 1;
    /** Structured report destination (--json PATH); empty = no report. */
    std::string jsonPath;
    /** Completed-job journal for crash recovery (--journal PATH). */
    std::string journalPath;
    /** Replay the journal instead of re-running finished jobs. */
    bool resume = false;
    /**
     * Worker processes for the sweep (--fleet N / DRS_FLEET); 0 = run
     * in-process. With a fleet the jobs are sharded across fork()ed
     * workers with crash isolation and supervision (src/fleet), and the
     * merged results are bit-identical to the in-process sweep.
     */
    int fleetWorkers = 0;
    /**
     * Live progress ticker on stderr (--progress / DRS_PROGRESS=1):
     * one repainted status line with jobs done/total and an ETA; fleet
     * runs add live worker states and the degraded-job count. Pure
     * observer — results and reports are identical either way.
     */
    bool progress = false;
};

/**
 * Parse the shared bench flags: --jobs N (default: DRS_JOBS or the
 * hardware concurrency), --fleet N (default: DRS_FLEET or 0 = no
 * fleet), --smx-threads N (default: DRS_SMX_THREADS or 1), --json
 * PATH, --journal PATH, --resume and --progress (default:
 * DRS_PROGRESS). Unknown arguments warn on stderr and are ignored,
 * keeping the binaries scriptable.
 */
inline Options
parseOptions(int argc, char **argv)
{
    // --jobs, --fleet and --smx-threads share DRS_JOBS's range.
    auto count = [](const char *flag, const char *text, int fallback) {
        const auto value = obs::parseInt(text, 1, exec::kMaxJobs);
        if (!value)
            obs::warnIgnored(flag, text, obs::wantInt(1, exec::kMaxJobs));
        return value ? static_cast<int>(*value) : fallback;
    };

    Options options;
    options.jobs = exec::defaultConcurrency();
    obs::envInt("DRS_SMX_THREADS", &options.smxThreads, 1, exec::kMaxJobs);
    obs::envInt("DRS_FLEET", &options.fleetWorkers, 1, exec::kMaxJobs);
    obs::envFlag("DRS_PROGRESS", &options.progress);

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value_of = [&](const char *flag) -> const char * {
            const std::size_t len = std::strlen(flag);
            if (arg.compare(0, len, flag) == 0 && arg.size() > len &&
                arg[len] == '=')
                return argv[i] + len + 1;
            if (arg == flag && i + 1 < argc)
                return argv[++i];
            return nullptr;
        };
        if (const char *v = value_of("--jobs"))
            options.jobs = count("--jobs", v, options.jobs);
        else if (const char *v = value_of("--fleet"))
            options.fleetWorkers = count("--fleet", v, options.fleetWorkers);
        else if (const char *v = value_of("--smx-threads"))
            options.smxThreads = count("--smx-threads", v, options.smxThreads);
        else if (const char *v = value_of("--json")) {
            // Same strict contract as the environment knobs: an empty
            // path warns and is ignored rather than silently producing
            // no report.
            if (*v == '\0')
                obs::warnIgnored("--json", v, "a path");
            else
                options.jsonPath = v;
        } else if (const char *v = value_of("--journal")) {
            if (*v == '\0')
                obs::warnIgnored("--journal", v, "a path");
            else
                options.journalPath = v;
        } else if (arg == "--resume")
            options.resume = true;
        else if (arg == "--progress")
            options.progress = true;
        else
            std::fprintf(stderr, "warning: ignoring unknown argument %s\n",
                         arg.c_str());
    }
    return options;
}

/** Wall-clock stopwatch for whole-bench timing. */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    double seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** Scale banner so every output records its configuration. */
inline void
printBanner(const std::string &title, const harness::ExperimentScale &scale,
            const Options &options)
{
    std::cout << "==== " << title << " ====\n";
    std::cout << "scenes at scale " << scale.sceneScale << ", "
              << scale.raysPerBounce << " rays/bounce (paper: 2M), "
              << scale.numSmx << " SMX, film " << scale.width << "x"
              << scale.height << "x" << scale.samplesPerPixel << "spp\n"
              << "override via DRS_RAYS / DRS_SCALE / DRS_SMX / DRS_WIDTH / "
                 "DRS_HEIGHT / DRS_SPP\n"
              << "running " << options.jobs << " concurrent simulation"
              << (options.jobs == 1 ? "" : "s") << " (--jobs N / DRS_JOBS)";
    if (options.fleetWorkers > 0)
        std::cout << " across a fleet of " << options.fleetWorkers
                  << " worker processes (--fleet N / DRS_FLEET)";
    if (options.smxThreads > 1)
        std::cout << ", " << options.smxThreads << " SMX threads each";
    std::cout << "\n\n";
    std::cout.flush();
}

/** Default run configuration derived from scale + options. */
inline harness::RunConfig
makeRunConfig(const harness::ExperimentScale &scale, const Options &options)
{
    harness::RunConfig config;
    config.gpu.numSmx = scale.numSmx;
    config.smxThreads = options.smxThreads;
    config.trace = obs::TraceConfig::fromEnvironment();
    config.sample = obs::SampleConfig::fromEnvironment();
    return config;
}

/**
 * Live progress ticker (--progress / DRS_PROGRESS=1): one stderr
 * status line, repainted in place (\r), with jobs done/total and an
 * ETA. In-process sweeps feed it per-completion (ETA from the mean
 * completion rate); fleet runs feed it the coordinator's FleetProgress
 * (EWMA-based ETA plus live worker states and the degraded count).
 * Pure observer: it reads progress, never influences it, and paints
 * only to stderr so piped stdout tables stay clean.
 */
class ProgressTicker
{
  public:
    /** In-process sweep callback (called from worker threads). */
    void onSweep(std::size_t done, std::size_t total)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        double eta = -1.0;
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - start_).count();
        if (done > 0 && done < total)
            eta = elapsed / static_cast<double>(done) *
                  static_cast<double>(total - done);
        char text[192];
        std::snprintf(text, sizeof text, "[progress] %zu/%zu jobs (%.0f%%)%s",
                      done, total,
                      total ? 100.0 * static_cast<double>(done) /
                                  static_cast<double>(total)
                            : 100.0,
                      etaText(done >= total ? 0.0 : eta).c_str());
        paint(text, done >= total);
    }

    /** Fleet coordinator callback (called from the supervision loop). */
    void onFleet(const fleet::FleetProgress &progress)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        char text[256];
        char degraded[48] = "";
        if (progress.degraded > 0)
            std::snprintf(degraded, sizeof degraded, ", %d degraded",
                          progress.degraded);
        std::snprintf(text, sizeof text,
                      "[progress] %zu/%zu jobs (%zu in flight), "
                      "%d/%d workers running%s%s",
                      progress.jobsDone, progress.jobsTotal,
                      progress.jobsInflight, progress.workersRunning,
                      progress.workersAlive, degraded,
                      etaText(progress.etaSeconds).c_str());
        paint(text, progress.jobsDone >= progress.jobsTotal);
    }

  private:
    using Clock = std::chrono::steady_clock;

    static std::string etaText(double seconds)
    {
        if (seconds < 0.0)
            return "";
        char buffer[48];
        if (seconds >= 90.0)
            std::snprintf(buffer, sizeof buffer, ", eta %.1f min",
                          seconds / 60.0);
        else
            std::snprintf(buffer, sizeof buffer, ", eta %.0f s", seconds);
        return buffer;
    }

    /** Repaint the line; pad over the previous one, newline when done. */
    void paint(const char *text, bool final)
    {
        if (finished_)
            return;
        const auto now = Clock::now();
        if (!final && painted_ &&
            std::chrono::duration<double>(now - lastPaint_).count() < 0.1)
            return;
        lastPaint_ = now;
        painted_ = true;
        std::string line(text);
        const std::size_t width = std::max(line.size(), lastWidth_);
        lastWidth_ = line.size();
        line.resize(width, ' ');
        std::fprintf(stderr, "\r%s%s", line.c_str(), final ? "\n" : "");
        std::fflush(stderr);
        if (final)
            finished_ = true;
    }

    std::mutex mutex_;
    Clock::time_point start_ = Clock::now();
    Clock::time_point lastPaint_{};
    std::size_t lastWidth_ = 0;
    bool painted_ = false;
    bool finished_ = false;
};

/**
 * Robust-execution policy for the bench's sweep: environment knobs
 * (DRS_FAULT_SEED, DRS_WATCHDOG, DRS_JOB_TIMEOUT, DRS_CRASH_AFTER) plus
 * the --journal/--resume/--progress flags. With none of them set this
 * is the all-defaults policy and the sweep behaves exactly as before.
 */
inline harness::SweepOptions
makeSweepOptions(const Options &options)
{
    harness::SweepOptions sweep = harness::SweepOptions::fromEnvironment();
    sweep.journalPath = options.journalPath;
    sweep.resume = options.resume;
    if (sweep.resume && sweep.journalPath.empty()) {
        std::fprintf(stderr,
                     "warning: --resume without --journal PATH does "
                     "nothing\n");
        sweep.resume = false;
    }
    if (options.progress) {
        // The ticker outlives this scope through the callback's copy.
        // Fleet workers never fire it (they only call runJob), so only
        // the in-process sweep ever paints through it.
        auto ticker = std::make_shared<ProgressTicker>();
        sweep.progress = [ticker](std::size_t done, std::size_t total) {
            ticker->onSweep(done, total);
        };
    }
    return sweep;
}

/**
 * Structured bench report (--json PATH): the document is always built —
 * the cost is negligible next to the simulations — but only validated
 * and written when a path was given. Rows are open-ended JSON objects;
 * addStats prefills one with the well-known metric fields of a run.
 */
class JsonReport
{
  public:
    JsonReport(const std::string &bench_name,
               const harness::ExperimentScale &scale, const Options &options)
        : report_(bench_name), path_(options.jsonPath)
    {
        report_.scale() = harness::scaleJson(scale);
        report_.options()["jobs"] = options.jobs;
        report_.options()["smx_threads"] = options.smxThreads;
        report_.options()["fleet"] = options.fleetWorkers;
    }

    /** One empty result row, to fill in place. */
    obs::Json &addRow() { return report_.addResult(); }

    /** One result row prefilled from a simulation's statistics. */
    obs::Json &addStats(const std::string &scene, const std::string &arch,
                        const simt::SimStats &stats, double clock_ghz)
    {
        obs::Json &row = report_.addResult();
        row = harness::statsJson(stats, clock_ghz);
        row["scene"] = scene;
        row["arch"] = arch;
        return row;
    }

    /**
     * One result row prefilled from a sweep result. Same metric fields
     * as the SimStats overload plus, when the run sampled (DRS_SAMPLE),
     * the "attribution" and "timeline" profiler sections (schema v3+),
     * and, when it traced (DRS_TRACE), the schema-v4 "trace" ring
     * counters.
     */
    obs::Json &addStats(const std::string &scene, const std::string &arch,
                        const harness::SweepResult &result, double clock_ghz)
    {
        obs::Json &row = addStats(scene, arch, result.stats, clock_ghz);
        if (result.observations)
            harness::addObservationsJson(row, *result.observations,
                                         result.stats);
        return row;
    }

    /** Bench-specific aggregate object. */
    obs::Json &summary() { return report_.summary(); }

    /**
     * Record a sweep's robustness outcome: flips the top-level
     * "degraded" flag when any job was quarantined and files a
     * summary.sweep section with per-job attempts / fault seeds (only
     * for jobs that needed retries or ran with faults enabled) plus the
     * quarantined jobs with their last error. Quarantined jobs are
     * reported, never dropped. Call once per SweepRunner::run().
     */
    void noteSweep(const std::vector<harness::SweepResult> &results)
    {
        std::size_t replayed = 0;
        bool degraded = false;
        obs::Json quarantined = obs::Json::array();
        obs::Json jobs = obs::Json::array();
        for (std::size_t i = 0; i < results.size(); ++i) {
            const harness::SweepResult &result = results[i];
            replayed += result.fromJournal ? 1u : 0u;
            if (result.attempts > 1 || result.faultSeed != 0 ||
                result.failed) {
                obs::Json &job = jobs.push(obs::Json::object());
                job["job"] = static_cast<std::uint64_t>(i);
                job["attempts"] = static_cast<std::int64_t>(result.attempts);
                job["fault_seed"] = result.faultSeed;
            }
            if (!result.failed)
                continue;
            degraded = true;
            obs::Json &entry = quarantined.push(obs::Json::object());
            entry["job"] = static_cast<std::uint64_t>(i);
            entry["attempts"] = static_cast<std::int64_t>(result.attempts);
            entry["fault_seed"] = result.faultSeed;
            entry["error"] = result.error;
        }
        report_.setDegraded(degraded);
        if (jobs.size() == 0 && replayed == 0 && !degraded)
            return;
        obs::Json &sweep = report_.summary()["sweep"];
        sweep = obs::Json::object();
        sweep["total_jobs"] = static_cast<std::uint64_t>(results.size());
        sweep["replayed_from_journal"] =
            static_cast<std::uint64_t>(replayed);
        sweep["jobs"] = std::move(jobs);
        sweep["quarantined"] = std::move(quarantined);
    }

    /**
     * Record a fleet run's supervision counters as summary.fleet and
     * flip the top-level "degraded" flag when the fleet shrank to the
     * point of dropping jobs (or was cancelled). Call after noteSweep —
     * noteSweep recomputes "degraded" from the per-job outcomes, and
     * this adds the fleet-level causes on top.
     */
    void noteFleet(const fleet::FleetSummary &summary)
    {
        report_.summary()["fleet"] = fleet::fleetSummaryJson(summary);
        if (summary.degradedJobs > 0 || summary.cancelled)
            report_.setDegraded(true);
    }

    /** Validate and write the report; call once, at the end. */
    void write(const WallTimer &timer)
    {
        if (path_.empty())
            return;
        report_.setWallSeconds(timer.seconds());
        const std::string problem =
            obs::validateBenchReport(report_.document());
        if (!problem.empty())
            std::fprintf(stderr, "warning: bench report fails its schema: %s\n",
                         problem.c_str());
        std::string error;
        if (!report_.writeFile(path_, &error))
            std::fprintf(stderr, "warning: bench report not written: %s\n",
                         error.c_str());
        else
            std::printf("json report: %s\n", path_.c_str());
    }

  private:
    obs::BenchReport report_;
    std::string path_;
};

/**
 * Execute a bench's queued sweep, honouring --fleet: with
 * options.fleetWorkers > 0 the queued jobs are taken off the runner and
 * sharded across a supervised fleet of worker processes
 * (FleetOptions::fromEnvironment with --fleet overriding the worker
 * count); otherwise this is exactly runner.run(). Either way the
 * results come back in grid order with identical SimStats — the fleet's
 * bit-identity contract — and the sweep/fleet robustness summaries are
 * recorded on @p report when one is given.
 */
inline std::vector<harness::SweepResult>
runSweep(harness::SweepRunner &runner, const Options &options,
         JsonReport *report = nullptr)
{
    if (options.fleetWorkers <= 0) {
        std::vector<harness::SweepResult> results = runner.run();
        if (report)
            report->noteSweep(results);
        return results;
    }
    fleet::FleetOptions fleetOptions = fleet::FleetOptions::fromEnvironment();
    fleetOptions.workers = options.fleetWorkers;
    std::shared_ptr<ProgressTicker> ticker;
    if (options.progress) {
        ticker = std::make_shared<ProgressTicker>();
        fleetOptions.onProgress = [ticker](const fleet::FleetProgress &p) {
            ticker->onFleet(p);
        };
    }
    fleet::FleetCoordinator coordinator(runner.scale(), runner.options(),
                                        fleetOptions);
    std::vector<harness::SweepResult> results =
        coordinator.run(runner.takePending());
    if (report) {
        report->noteSweep(results);
        report->noteFleet(coordinator.summary());
    }
    return results;
}

/** Print the closing wall-clock line of a bench. */
inline void
printElapsed(const WallTimer &timer)
{
    std::printf("total wall-clock: %.2f s\n", timer.seconds());
    std::fflush(stdout);
}

/** Bounces simulated by the sweep benches (B1..B4, like Figure 8). */
inline constexpr int kSweepBounces = 4;

} // namespace drs::bench
