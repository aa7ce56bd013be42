#include "fleet/fleet.h"

#include "exec/cancel.h"
#include "fleet/protocol.h"
#include "obs/env.h"
#include "obs/log.h"
#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace drs::fleet {

namespace {

using Clock = std::chrono::steady_clock;
using harness::SweepJob;
using harness::SweepResult;

/** Salt for the re-dispatch backoff jitter draw (distinct from the
 * retry jitter inside SweepRunner and from the chaos rolls). */
constexpr std::uint64_t kRedispatchJitterSalt = 0x666c65656a697400ULL;

Clock::duration
secondsToDuration(double seconds)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

// --------------------------------------------------------------------
// Signal plumbing. The coordinator's handlers only set a flag that the
// supervision loop polls; the worker's handlers trip a process-wide
// CancelToken that every in-flight simulation attempt is chained under
// (SweepOptions::cancel), so a SIGTERM aborts the current job at its
// next cancellation poll instead of waiting out the simulation.
// --------------------------------------------------------------------

volatile std::sig_atomic_t g_stopRequested = 0;

void
coordinatorStopHandler(int)
{
    g_stopRequested = 1;
}

exec::CancelToken g_workerCancel;

void
workerStopHandler(int)
{
    g_workerCancel.requestCancel();
}

// --------------------------------------------------------------------
// Worker process
// --------------------------------------------------------------------

/**
 * Body of one worker process; never returns. The worker inherits the
 * full jobs vector through fork(), so a claim only names a grid index —
 * and runs it with SweepRunner::runJob(job, index), which is the whole
 * bit-identity argument: the worker derives exactly the fault seeds the
 * single-process sweep would.
 */
[[noreturn]] void
workerMain(int readFd, int writeFd, int workerId, int generation,
           const harness::ExperimentScale &scale,
           harness::SweepOptions sweep, const ChaosConfig &chaos,
           const std::vector<SweepJob> &jobs, double heartbeatSeconds)
{
#ifdef __linux__
    // Die with the coordinator, even when it is SIGKILLed (or chaos
    // _Exit()s it): no orphaned simulators, ever.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() == 1)
        ::_exit(0); // coordinator died between fork and prctl
#endif
    struct sigaction stop {};
    stop.sa_handler = workerStopHandler;
    ::sigemptyset(&stop.sa_mask);
    stop.sa_flags = 0; // no SA_RESTART: blocked reads return EINTR
    ::sigaction(SIGTERM, &stop, nullptr);
    ::sigaction(SIGINT, &stop, nullptr);
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    ::sigemptyset(&ignore.sa_mask);
    ::sigaction(SIGPIPE, &ignore, nullptr);

    // The worker only calls runJob, which never journals or reports
    // progress (the coordinator alone does); every robustness knob
    // (faults, watchdog, timeouts, retry) applies exactly as configured.
    sweep.cancel = &g_workerCancel;
    harness::SweepRunner runner(scale, 1, sweep);

    std::mutex writeMutex; // heartbeat thread vs. result writes
    std::atomic<long long> beatJob{-1};
    std::atomic<bool> wedged{false};
    std::atomic<std::uint64_t> beatLagMicros{0}; // worst loop overrun

    {
        obs::Json hello = obs::Json::object();
        hello["worker"] = obs::Json(workerId);
        hello["generation"] = obs::Json(generation);
        hello["pid"] = obs::Json(static_cast<long long>(::getpid()));
        std::lock_guard<std::mutex> lock(writeMutex);
        if (!writeFrame(writeFd, MsgType::Hello, hello.dump()))
            ::_exit(0);
    }

    // Beat from the first instant, independent of scene builds and
    // simulation: heartbeat silence means "wedged", never "busy". The
    // loop also measures its own overrun past the nominal period — a
    // proxy for scheduler starvation on an overloaded host — which the
    // Telemetry frames report as heartbeat_lag_us.
    std::thread([writeFd, heartbeatSeconds, &writeMutex, &beatJob, &wedged,
                 &beatLagMicros] {
        const double periodSeconds =
            heartbeatSeconds > 0 ? heartbeatSeconds : 0.25;
        const auto period = secondsToDuration(periodSeconds);
        auto lastWake = Clock::now();
        for (;;) {
            if (wedged.load(std::memory_order_acquire))
                return; // chaos hang: go silent so the deadline trips
            {
                obs::Json beat = obs::Json::object();
                beat["job"] =
                    obs::Json(beatJob.load(std::memory_order_acquire));
                std::lock_guard<std::mutex> lock(writeMutex);
                if (!writeFrame(writeFd, MsgType::Heartbeat, beat.dump()))
                    return;
            }
            std::this_thread::sleep_for(period);
            const auto now = Clock::now();
            const double lag =
                std::chrono::duration<double>(now - lastWake).count() -
                periodSeconds;
            lastWake = now;
            if (lag > 0) {
                const auto lagMicros =
                    static_cast<std::uint64_t>(lag * 1e6);
                std::uint64_t prev =
                    beatLagMicros.load(std::memory_order_relaxed);
                while (lagMicros > prev &&
                       !beatLagMicros.compare_exchange_weak(
                           prev, lagMicros, std::memory_order_relaxed)) {
                }
            }
        }
    }).detach();

    FrameParser parser;
    char buffer[4096];
    for (;;) {
        if (g_workerCancel.cancelled())
            ::_exit(0);
        const ssize_t n = ::read(readFd, buffer, sizeof buffer);
        if (n < 0) {
            if (errno == EINTR)
                continue; // SIGTERM lands here; loop re-checks the token
            ::_exit(0);
        }
        if (n == 0)
            ::_exit(0); // coordinator closed its end
        parser.feed(buffer, static_cast<std::size_t>(n));
        while (auto frame = parser.next()) {
            if (frame->type == MsgType::Shutdown)
                ::_exit(0);
            if (frame->type != MsgType::Claim)
                continue;
            std::string parseError;
            const auto claim = obs::Json::parse(frame->payload, &parseError);
            const obs::Json *jobField = claim ? claim->find("job") : nullptr;
            const obs::Json *dispatchField =
                claim ? claim->find("dispatch") : nullptr;
            if (!jobField || !dispatchField)
                ::_exit(64);
            const std::size_t index =
                static_cast<std::size_t>(jobField->asUint());
            const int dispatch = static_cast<int>(dispatchField->asUint());
            if (index >= jobs.size())
                ::_exit(64);

            {
                obs::Json data = obs::Json::object();
                data["worker"] = obs::Json(workerId);
                data["job"] =
                    obs::Json(static_cast<unsigned long long>(index));
                data["dispatch"] = obs::Json(dispatch);
                obs::logEvent(obs::LogLevel::Debug, "fleet", "claim",
                              std::move(data));
            }

            const ChaosPlan plan = chaosPlanFor(chaos, index, dispatch);
            if (plan.hang) {
                obs::Json data = obs::Json::object();
                data["worker"] = obs::Json(workerId);
                data["job"] =
                    obs::Json(static_cast<unsigned long long>(index));
                obs::logEvent(obs::LogLevel::Warn, "chaos", "hang",
                              std::move(data));
                wedged.store(true, std::memory_order_release);
                for (;;)
                    ::pause();
            }
            if (plan.kill) {
                obs::Json data = obs::Json::object();
                data["worker"] = obs::Json(workerId);
                data["job"] =
                    obs::Json(static_cast<unsigned long long>(index));
                data["delay_us"] =
                    obs::Json(static_cast<unsigned long long>(
                        plan.delayMicros));
                obs::logEvent(obs::LogLevel::Warn, "chaos", "kill",
                              std::move(data));
                if (plan.delayMicros == 0) {
                    ::kill(::getpid(), SIGKILL);
                } else {
                    // Delayed kill on a detached thread: it lands at an
                    // arbitrary simulated cycle of the job below (or
                    // right in the middle of the result write).
                    const std::uint32_t delay = plan.delayMicros;
                    std::thread([delay] {
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(delay));
                        ::kill(::getpid(), SIGKILL);
                    }).detach();
                }
            }

            beatJob.store(static_cast<long long>(index),
                          std::memory_order_release);
            // Per-claim trace shard: every (worker, job) pair writes its
            // own file, so a worker's later jobs never overwrite earlier
            // shards and tools/drs_tracecat can stitch them all. Pure
            // observer — the path never feeds back into the simulation.
            SweepJob job = jobs[index];
            if (job.config.trace.enabled && !job.config.trace.path.empty())
                job.config.trace.path += ".w" + std::to_string(workerId) +
                                         ".j" + std::to_string(index);
            SweepResult result;
            try {
                result = runner.runJob(job, index);
            } catch (const std::exception &e) {
                // runJob handles its own failures; this is a backstop
                // (e.g. bad_alloc while preparing the scene).
                result.failed = true;
                result.error = e.what();
            }
            beatJob.store(-1, std::memory_order_release);
            if (g_workerCancel.cancelled())
                ::_exit(0); // never report a cancellation as an outcome
            const obs::Json record = harness::sweepResultToJson(
                index, harness::SweepRunner::jobKey(jobs[index]), result);
            {
                std::lock_guard<std::mutex> lock(writeMutex);
                if (!writeFrame(writeFd, MsgType::Result, record.dump()))
                    ::_exit(0);
            }
            // Resource digest for the job just reported. getrusage gives
            // cumulative per-process values; the coordinator keeps each
            // worker's latest sample (see handleTelemetry). Sent after
            // the Result on purpose: losing the digest to a kill must
            // never lose the result.
            struct rusage usage
            {
            };
            ::getrusage(RUSAGE_SELF, &usage);
            obs::Json digest = obs::Json::object();
            digest["worker"] = obs::Json(workerId);
            digest["job"] = obs::Json(static_cast<unsigned long long>(index));
            digest["seconds"] = obs::Json(result.seconds);
            digest["cycles"] = obs::Json(
                static_cast<unsigned long long>(result.stats.cycles));
            digest["rays"] = obs::Json(
                static_cast<unsigned long long>(result.stats.raysTraced));
            digest["peak_rss_kb"] = obs::Json(
                static_cast<unsigned long long>(usage.ru_maxrss));
            digest["user_cpu_s"] =
                obs::Json(static_cast<double>(usage.ru_utime.tv_sec) +
                          static_cast<double>(usage.ru_utime.tv_usec) * 1e-6);
            digest["sys_cpu_s"] =
                obs::Json(static_cast<double>(usage.ru_stime.tv_sec) +
                          static_cast<double>(usage.ru_stime.tv_usec) * 1e-6);
            digest["heartbeat_lag_us"] =
                obs::Json(static_cast<unsigned long long>(
                    beatLagMicros.load(std::memory_order_relaxed)));
            {
                std::lock_guard<std::mutex> lock(writeMutex);
                if (!writeFrame(writeFd, MsgType::Telemetry, digest.dump()))
                    ::_exit(0);
            }
        }
        if (parser.corrupt())
            ::_exit(64);
    }
}

// --------------------------------------------------------------------
// Coordinator
// --------------------------------------------------------------------

/**
 * Dispatch state of one job. A job the ledger has not settled is either
 * pending (waiting for a worker; readyAt gates re-dispatch) or inflight.
 */
struct JobSlot
{
    bool inflight = false; ///< claimed by a live worker
    int dispatches = 0; ///< claims sent (1-based dispatch counter)
    int deaths = 0;     ///< workers that died holding this job
    Clock::time_point readyAt{}; ///< earliest next dispatch
};

struct WorkerState
{
    pid_t pid = -1;
    int toFd = -1;   ///< coordinator -> worker (claims, shutdown)
    int fromFd = -1; ///< worker -> coordinator (hello, beats, results)
    int id = 0;
    int generation = 0; ///< 0 = initial crew, N = Nth replacement
    FrameParser parser;
    bool alive = false;
    bool ready = false;  ///< Hello received
    long long job = -1;  ///< inflight grid index, -1 = idle
    Clock::time_point lastBeat{};
    /** Latest cumulative CPU sample from a Telemetry frame. */
    double userCpuSeconds = 0.0;
    double sysCpuSeconds = 0.0;
    /** Trace-relative dispatch time of the open claim (microseconds). */
    std::uint64_t claimTsMicros = 0;
    int claimDispatch = 0; ///< dispatch counter of the open claim; 0 = none
};

/** All mutable state of one FleetCoordinator::run, single-threaded. */
struct FleetRun
{
    const harness::ExperimentScale &scale;
    const harness::SweepOptions &sweep;
    const FleetOptions &options;
    FleetSummary &summary;
    const std::vector<SweepJob> &jobs;

    /** Results, --resume replay and the journal (coordinator-only). */
    harness::JobLedger ledger;
    std::vector<JobSlot> slots;
    std::vector<WorkerState> workers;
    int nextWorkerId = 0;
    int generationCounter = 0;
    bool readyHookFired = false;
    bool spawnBroken = false;

    // Cross-process trace stitching: job-lifecycle spans and supervision
    // instants on the coordinator's own timeline (pid 0, tid = worker
    // id), written to "<tracePath>.coord" after the run.
    struct CoordSpan
    {
        std::string name;
        int tid = 0;
        std::uint64_t ts = 0;
        std::uint64_t dur = 1;
    };
    struct CoordInstant
    {
        std::string name;
        int tid = 0;
        std::uint64_t ts = 0;
    };
    std::vector<CoordSpan> traceSpans;
    std::vector<CoordInstant> traceInstants;
    const std::uint64_t traceEpochMicros = obs::logNowMicros();

    // Live progress: EWMA over inter-completion wall deltas drives the
    // ETA; emits are throttled except on completions/terminal events.
    Clock::time_point runStart = Clock::now();
    Clock::time_point lastProgressEmit{};
    Clock::time_point lastCompletion{};
    double ewmaJobInterval = -1.0;

    FleetRun(const harness::ExperimentScale &scale_,
             const harness::SweepOptions &sweep_,
             const FleetOptions &options_, FleetSummary &summary_,
             const std::vector<SweepJob> &jobs_)
        : scale(scale_), sweep(sweep_), options(options_), summary(summary_),
          jobs(jobs_), ledger(jobs_, sweep_, "fleet"), slots(jobs_.size())
    {
    }

    bool tracing() const { return !options.tracePath.empty(); }

    std::uint64_t traceNow() const
    {
        return obs::logNowMicros() - traceEpochMicros;
    }

    void traceInstant(std::string name, int tid)
    {
        if (tracing())
            traceInstants.push_back({std::move(name), tid, traceNow()});
    }

    /** Close the span of @p worker's open claim (job done or lost). */
    void closeJobSpan(WorkerState &worker, const char *suffix)
    {
        if (worker.claimDispatch == 0)
            return;
        if (tracing() && worker.job >= 0) {
            CoordSpan span;
            span.name = "job " + std::to_string(worker.job) + " d" +
                        std::to_string(worker.claimDispatch) + suffix;
            span.tid = worker.id;
            span.ts = worker.claimTsMicros;
            span.dur = std::max<std::uint64_t>(
                1, traceNow() - worker.claimTsMicros);
            traceSpans.push_back(std::move(span));
        }
        worker.claimDispatch = 0;
        worker.claimTsMicros = 0;
    }

    void noteCompletion()
    {
        const auto now = Clock::now();
        const double delta = std::chrono::duration<double>(
                                 now - (lastCompletion.time_since_epoch()
                                                .count() != 0
                                            ? lastCompletion
                                            : runStart))
                                 .count();
        ewmaJobInterval = ewmaJobInterval < 0
                              ? delta
                              : 0.7 * ewmaJobInterval + 0.3 * delta;
        lastCompletion = now;
        emitProgress(true);
    }

    void emitProgress(bool force)
    {
        if (!options.onProgress)
            return;
        const auto now = Clock::now();
        if (!force && lastProgressEmit.time_since_epoch().count() != 0 &&
            now - lastProgressEmit < std::chrono::milliseconds(200))
            return;
        lastProgressEmit = now;
        FleetProgress progress;
        progress.jobsTotal = jobs.size();
        for (std::size_t j = 0; j < slots.size(); ++j) {
            if (ledger.settled(j)) {
                ++progress.jobsDone;
                progress.jobsFailed += ledger.result(j).failed ? 1u : 0u;
            } else if (slots[j].inflight) {
                ++progress.jobsInflight;
            }
        }
        progress.workersAlive = aliveCount();
        for (const WorkerState &worker : workers)
            progress.workersRunning +=
                (worker.alive && worker.job >= 0) ? 1 : 0;
        progress.workerDeaths = summary.workerDeaths;
        progress.degraded = summary.degradedJobs;
        progress.elapsedSeconds =
            std::chrono::duration<double>(now - runStart).count();
        const std::size_t remaining =
            progress.jobsTotal - progress.jobsDone;
        if (ewmaJobInterval >= 0 && remaining > 0)
            progress.etaSeconds =
                ewmaJobInterval * static_cast<double>(remaining);
        else if (remaining == 0)
            progress.etaSeconds = 0.0;
        options.onProgress(progress);
    }

    int aliveCount() const
    {
        int n = 0;
        for (const WorkerState &w : workers)
            n += w.alive ? 1 : 0;
        return n;
    }

    std::size_t remainingJobs() const
    {
        std::size_t n = 0;
        for (std::size_t j = 0; j < jobs.size(); ++j)
            n += ledger.settled(j) ? 0 : 1;
        return n;
    }

    bool allTerminal() const { return remainingJobs() == 0; }

    bool stopRequested() const
    {
        return g_stopRequested != 0 ||
               (sweep.cancel != nullptr && sweep.cancel->cancelled());
    }

    bool fleetExhausted() const
    {
        return aliveCount() == 0 &&
               (spawnBroken || summary.respawned >= options.maxRespawns);
    }

    bool spawnWorker(bool replacement)
    {
        int toPipe[2];
        int fromPipe[2];
        if (::pipe(toPipe) != 0) {
            spawnFailed("pipe", std::strerror(errno));
            return false;
        }
        if (::pipe(fromPipe) != 0) {
            spawnFailed("pipe", std::strerror(errno));
            ::close(toPipe[0]);
            ::close(toPipe[1]);
            return false;
        }
        const int id = nextWorkerId++;
        const int generation = replacement ? ++generationCounter : 0;
        const pid_t pid = ::fork();
        if (pid < 0) {
            spawnFailed("fork", std::strerror(errno));
            ::close(toPipe[0]);
            ::close(toPipe[1]);
            ::close(fromPipe[0]);
            ::close(fromPipe[1]);
            return false;
        }
        if (pid == 0) {
            // Child: keep only our two pipe ends. Holding another
            // worker's fds would mask its EOF; holding the journal fd
            // would let a child write where only the coordinator may.
            ::close(toPipe[1]);
            ::close(fromPipe[0]);
            ledger.closeJournal();
            for (WorkerState &other : workers)
                if (other.alive) {
                    ::close(other.toFd);
                    ::close(other.fromFd);
                }
            workerMain(toPipe[0], fromPipe[1], id, generation, scale, sweep,
                       options.chaos, jobs, options.heartbeatSeconds);
        }
        ::close(toPipe[0]);
        ::close(fromPipe[1]);
        WorkerState worker;
        worker.pid = pid;
        worker.toFd = toPipe[1];
        worker.fromFd = fromPipe[0];
        worker.id = id;
        worker.generation = generation;
        worker.alive = true;
        worker.lastBeat = Clock::now();
        workers.push_back(std::move(worker));
        ++summary.spawned;
        {
            obs::Json data = obs::Json::object();
            data["worker"] = obs::Json(id);
            data["pid"] = obs::Json(static_cast<long long>(pid));
            data["generation"] = obs::Json(generation);
            obs::logEvent(obs::LogLevel::Info, "fleet", "spawn",
                          std::move(data));
        }
        if (replacement) {
            ++summary.respawned;
            obs::Json data = obs::Json::object();
            data["worker"] = obs::Json(id);
            data["pid"] = obs::Json(static_cast<long long>(pid));
            data["generation"] = obs::Json(generation);
            data["respawns_used"] = obs::Json(summary.respawned);
            data["respawn_budget"] = obs::Json(options.maxRespawns);
            obs::logEvent(obs::LogLevel::Warn, "fleet", "respawn",
                          std::move(data));
            traceInstant("respawn w" + std::to_string(id), id);
        }
        return true;
    }

    void spawnFailed(const char *stage, const char *error)
    {
        obs::Json data = obs::Json::object();
        data["stage"] = obs::Json(stage);
        data["error"] = obs::Json(error);
        obs::logEvent(obs::LogLevel::Error, "fleet", "spawn_failed",
                      std::move(data));
    }

    void maybeFireReadyHook()
    {
        if (readyHookFired || !options.onFleetReady)
            return;
        int ready = 0;
        for (const WorkerState &w : workers)
            ready += (w.alive && w.ready) ? 1 : 0;
        if (ready < options.workers)
            return;
        readyHookFired = true;
        options.onFleetReady();
    }

    void handleResult(WorkerState &worker, const std::string &payload)
    {
        std::string parseError;
        const auto parsed = obs::Json::parse(payload, &parseError);
        std::uint64_t index = 0;
        std::string key;
        SweepResult result;
        std::string reason = parsed ? harness::sweepResultFromJson(
                                          *parsed, &index, &key, &result)
                                    : ("bad JSON: " + parseError);
        if (reason.empty() && index >= jobs.size())
            reason = "job index out of range";
        if (reason.empty() &&
            key != harness::SweepRunner::jobKey(jobs[index]))
            reason = "job key mismatch";
        if (!reason.empty()) {
            obs::Json data = obs::Json::object();
            data["worker"] = obs::Json(worker.id);
            data["reason"] = obs::Json(reason);
            obs::logEvent(obs::LogLevel::Warn, "fleet", "bad_result",
                          std::move(data));
            ::kill(worker.pid, SIGKILL);
            return;
        }
        if (worker.job == static_cast<long long>(index)) {
            closeJobSpan(worker, "");
            worker.job = -1; // idle again
        }
        if (ledger.settled(index))
            return; // late duplicate: journal keeps exactly one record
        slots[index].inflight = false;
        {
            obs::Json data = obs::Json::object();
            data["job"] = obs::Json(static_cast<unsigned long long>(index));
            data["worker"] = obs::Json(worker.id);
            data["failed"] = obs::Json(result.failed);
            obs::logEvent(obs::LogLevel::Debug, "fleet", "job_done",
                          std::move(data));
        }
        ledger.record(index, std::move(result));
        noteCompletion();
    }

    /**
     * Fold one worker resource digest into the run's telemetry. CPU
     * seconds are cumulative per process, so only the worker's latest
     * sample is kept (summed across workers when the run finishes);
     * everything else is per-job and accumulates directly. Malformed
     * digests are logged and dropped — telemetry is advisory and must
     * never kill a worker that just delivered a good Result.
     */
    void handleTelemetry(WorkerState &worker, const std::string &payload)
    {
        std::string parseError;
        const auto parsed = obs::Json::parse(payload, &parseError);
        if (!parsed || !parsed->isObject()) {
            obs::Json data = obs::Json::object();
            data["worker"] = obs::Json(worker.id);
            data["error"] = obs::Json(parseError);
            obs::logEvent(obs::LogLevel::Warn, "fleet", "bad_telemetry",
                          std::move(data));
            return;
        }
        const auto asUint = [&](const char *key) -> std::uint64_t {
            const obs::Json *field = parsed->find(key);
            return field ? field->asUint() : 0;
        };
        const auto asDouble = [&](const char *key) -> double {
            const obs::Json *field = parsed->find(key);
            return field ? field->asDouble() : 0.0;
        };
        FleetTelemetry &telemetry = summary.telemetry;
        ++telemetry.frames;
        ++telemetry.jobsReported;
        telemetry.cycles += asUint("cycles");
        telemetry.raysTraced += asUint("rays");
        telemetry.jobSeconds += asDouble("seconds");
        telemetry.peakRssKb =
            std::max(telemetry.peakRssKb, asUint("peak_rss_kb"));
        telemetry.maxHeartbeatLagMicros = std::max(
            telemetry.maxHeartbeatLagMicros, asUint("heartbeat_lag_us"));
        worker.userCpuSeconds = asDouble("user_cpu_s");
        worker.sysCpuSeconds = asDouble("sys_cpu_s");
    }

    /** Sum per-worker CPU samples into the telemetry (end of run). */
    void finalizeTelemetry()
    {
        for (const WorkerState &worker : workers) {
            summary.telemetry.userCpuSeconds += worker.userCpuSeconds;
            summary.telemetry.sysCpuSeconds += worker.sysCpuSeconds;
        }
    }

    void processFrames(WorkerState &worker)
    {
        while (auto frame = worker.parser.next()) {
            switch (frame->type) {
            case MsgType::Hello:
                worker.ready = true;
                worker.lastBeat = Clock::now();
                maybeFireReadyHook();
                break;
            case MsgType::Heartbeat:
                worker.lastBeat = Clock::now();
                break;
            case MsgType::Result:
                handleResult(worker, frame->payload);
                break;
            case MsgType::Telemetry:
                handleTelemetry(worker, frame->payload);
                break;
            default:
                break; // Claim/Shutdown never flow worker -> coordinator
            }
        }
        if (worker.parser.corrupt() && worker.alive) {
            obs::Json data = obs::Json::object();
            data["worker"] = obs::Json(worker.id);
            data["reason"] = obs::Json(worker.parser.corruptReason());
            obs::logEvent(obs::LogLevel::Warn, "fleet", "stream_corrupt",
                          std::move(data));
            ::kill(worker.pid, SIGKILL);
        }
    }

    /**
     * Read everything a dead worker left in its pipe and process the
     * complete frames: a result sent moments before the kill still
     * counts, and because this runs before the re-dispatch decision a
     * completed job is never dispatched twice (no double-reports).
     * Safe to loop: the writer end is closed, so read() cannot block.
     */
    void drainWorker(WorkerState &worker)
    {
        char buffer[4096];
        for (;;) {
            const ssize_t n = ::read(worker.fromFd, buffer, sizeof buffer);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                break;
            }
            if (n == 0)
                break;
            worker.parser.feed(buffer, static_cast<std::size_t>(n));
        }
        processFrames(worker);
    }

    void handleDeath(WorkerState &worker, int status, bool expected)
    {
        drainWorker(worker);
        ::close(worker.toFd);
        ::close(worker.fromFd);
        worker.toFd = worker.fromFd = -1;
        worker.alive = false;
        closeJobSpan(worker, " (lost)");
        const long long job = worker.job;
        worker.job = -1;
        if (expected)
            return;
        ++summary.workerDeaths;
        {
            obs::Json data = obs::Json::object();
            data["worker"] = obs::Json(worker.id);
            data["pid"] = obs::Json(static_cast<long long>(worker.pid));
            if (WIFSIGNALED(status))
                data["signal"] = obs::Json(WTERMSIG(status));
            else
                data["status"] = obs::Json(
                    WIFEXITED(status) ? WEXITSTATUS(status) : -1);
            if (job >= 0)
                data["job"] =
                    obs::Json(static_cast<unsigned long long>(job));
            obs::logEvent(obs::LogLevel::Warn, "fleet", "worker_death",
                          std::move(data));
        }
        traceInstant("worker_death w" + std::to_string(worker.id),
                     worker.id);
        if (job < 0)
            return;
        JobSlot &slot = slots[static_cast<std::size_t>(job)];
        if (!slot.inflight)
            return; // its result was drained above — nothing to redo
        slot.inflight = false;
        ++slot.deaths;
        if (slot.deaths >= options.quarantineDeaths) {
            quarantine(static_cast<std::size_t>(job), slot);
            return;
        }
        // Seeded exponential backoff with jitter before the next try:
        // deterministic per sweep, but concurrent casualties spread out.
        const double delay = harness::jitteredBackoff(
            options.backoffSeconds, slot.deaths - 1, sweep.fault.seed,
            kRedispatchJitterSalt, static_cast<std::size_t>(job),
            slot.dispatches);
        slot.readyAt = Clock::now() + secondsToDuration(delay);
        ++summary.redispatched;
        {
            obs::Json data = obs::Json::object();
            data["job"] = obs::Json(static_cast<unsigned long long>(job));
            data["deaths"] = obs::Json(slot.deaths);
            data["delay_s"] = obs::Json(delay);
            obs::logEvent(obs::LogLevel::Info, "fleet", "redispatch",
                          std::move(data));
        }
        traceInstant("redispatch job" + std::to_string(job), worker.id);
    }

    void quarantine(std::size_t index, const JobSlot &slot)
    {
        SweepResult result;
        result.failed = true;
        result.attempts = slot.dispatches;
        result.error = "quarantined: job killed " +
                       std::to_string(slot.deaths) + " workers in " +
                       std::to_string(slot.dispatches) + " dispatches";
        ++summary.quarantined;
        {
            obs::Json data = obs::Json::object();
            data["job"] = obs::Json(static_cast<unsigned long long>(index));
            data["key"] =
                obs::Json(harness::SweepRunner::jobKey(jobs[index]));
            data["error"] = obs::Json(result.error);
            obs::logEvent(obs::LogLevel::Warn, "fleet", "quarantine",
                          std::move(data));
        }
        traceInstant("quarantine job" + std::to_string(index), 0);
        ledger.record(index, std::move(result));
        noteCompletion();
    }

    void reapWorkers(bool expected)
    {
        for (WorkerState &worker : workers) {
            if (!worker.alive)
                continue;
            int status = 0;
            const pid_t pid = ::waitpid(worker.pid, &status, WNOHANG);
            if (pid == worker.pid)
                handleDeath(worker, status, expected);
        }
    }

    void checkHeartbeats()
    {
        if (options.heartbeatTimeoutSeconds <= 0)
            return;
        const auto now = Clock::now();
        const auto deadline = secondsToDuration(options.heartbeatTimeoutSeconds);
        for (WorkerState &worker : workers) {
            if (!worker.alive || now - worker.lastBeat < deadline)
                continue;
            {
                obs::Json data = obs::Json::object();
                data["worker"] = obs::Json(worker.id);
                data["pid"] = obs::Json(static_cast<long long>(worker.pid));
                data["silent_s"] = obs::Json(
                    std::chrono::duration<double>(now - worker.lastBeat)
                        .count());
                data["deadline_s"] =
                    obs::Json(options.heartbeatTimeoutSeconds);
                obs::logEvent(obs::LogLevel::Warn, "fleet",
                              "heartbeat_kill", std::move(data));
            }
            traceInstant("heartbeat_kill w" + std::to_string(worker.id),
                         worker.id);
            ++summary.heartbeatKills;
            ::kill(worker.pid, SIGKILL);
            worker.lastBeat = now; // one kill per deadline, then the reap
        }
    }

    void dispatchJobs()
    {
        const auto now = Clock::now();
        for (WorkerState &worker : workers) {
            if (!worker.alive || !worker.ready || worker.job >= 0)
                continue;
            std::size_t pick = jobs.size();
            for (std::size_t j = 0; j < slots.size(); ++j)
                if (!slots[j].inflight && !ledger.settled(j) &&
                    slots[j].readyAt <= now) {
                    pick = j;
                    break;
                }
            if (pick == jobs.size())
                return; // nothing ready yet (backoff or all claimed)
            JobSlot &slot = slots[pick];
            ++slot.dispatches;
            obs::Json claim = obs::Json::object();
            claim["job"] = obs::Json(static_cast<unsigned long long>(pick));
            claim["dispatch"] = obs::Json(slot.dispatches);
            if (!writeFrame(worker.toFd, MsgType::Claim, claim.dump())) {
                // Pipe gone: the worker is dying. Undo and let the reap
                // re-dispatch cleanly.
                --slot.dispatches;
                ::kill(worker.pid, SIGKILL);
                continue;
            }
            slot.inflight = true;
            worker.job = static_cast<long long>(pick);
            worker.lastBeat = now;
            worker.claimTsMicros = traceNow();
            worker.claimDispatch = slot.dispatches;
            obs::Json data = obs::Json::object();
            data["job"] = obs::Json(static_cast<unsigned long long>(pick));
            data["dispatch"] = obs::Json(slot.dispatches);
            data["worker"] = obs::Json(worker.id);
            obs::logEvent(obs::LogLevel::Debug, "fleet", "dispatch",
                          std::move(data));
        }
    }

    void maybeRespawn()
    {
        while (!spawnBroken && aliveCount() < options.workers &&
               summary.respawned < options.maxRespawns &&
               remainingJobs() > static_cast<std::size_t>(aliveCount())) {
            if (!spawnWorker(true)) {
                spawnBroken = true;
                break;
            }
        }
    }

    void pollWorkers(int timeoutMs)
    {
        std::vector<struct pollfd> fds;
        std::vector<std::size_t> index;
        for (std::size_t i = 0; i < workers.size(); ++i) {
            if (!workers[i].alive)
                continue;
            struct pollfd p;
            p.fd = workers[i].fromFd;
            p.events = POLLIN;
            p.revents = 0;
            fds.push_back(p);
            index.push_back(i);
        }
        if (fds.empty()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(timeoutMs));
            return;
        }
        const int n = ::poll(fds.data(), fds.size(), timeoutMs);
        if (n <= 0)
            return; // timeout or EINTR (stop flag checked by the loop)
        for (std::size_t k = 0; k < fds.size(); ++k) {
            if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            WorkerState &worker = workers[index[k]];
            char buffer[8192];
            const ssize_t got =
                ::read(worker.fromFd, buffer, sizeof buffer);
            if (got > 0) {
                worker.parser.feed(buffer, static_cast<std::size_t>(got));
                processFrames(worker);
            }
            // got <= 0: EOF or error — the worker died; waitpid sees it.
        }
    }

    /**
     * Stop every worker and reap every pid. Three rungs: a Shutdown
     * frame (drain and exit), SIGTERM on @p force (cancel token aborts
     * the in-flight attempt), and after the grace period SIGKILL plus a
     * blocking waitpid — the coordinator never returns with a child
     * still breathing.
     */
    void shutdownAll(bool force)
    {
        {
            obs::Json data = obs::Json::object();
            data["force"] = obs::Json(force);
            data["alive"] = obs::Json(aliveCount());
            obs::logEvent(obs::LogLevel::Info, "fleet", "shutdown",
                          std::move(data));
        }
        for (WorkerState &worker : workers) {
            if (!worker.alive)
                continue;
            writeFrame(worker.toFd, MsgType::Shutdown, "{}");
            if (force)
                ::kill(worker.pid, SIGTERM);
        }
        const auto deadline =
            Clock::now() + secondsToDuration(options.shutdownGraceSeconds);
        while (aliveCount() > 0 && Clock::now() < deadline) {
            reapWorkers(true);
            if (aliveCount() == 0)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        for (WorkerState &worker : workers) {
            if (!worker.alive)
                continue;
            obs::Json data = obs::Json::object();
            data["worker"] = obs::Json(worker.id);
            obs::logEvent(obs::LogLevel::Warn, "fleet", "shutdown_ignored",
                          std::move(data));
            ::kill(worker.pid, SIGKILL);
        }
        for (WorkerState &worker : workers) {
            if (!worker.alive)
                continue;
            int status = 0;
            while (::waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
            }
            handleDeath(worker, status, /*expected=*/true);
        }
    }

    void cancelFleet()
    {
        summary.cancelled = true;
        {
            obs::Json data = obs::Json::object();
            data["remaining"] = obs::Json(
                static_cast<unsigned long long>(remainingJobs()));
            data["workers"] = obs::Json(aliveCount());
            obs::logEvent(obs::LogLevel::Warn, "fleet", "cancelled",
                          std::move(data));
        }
        shutdownAll(/*force=*/true);
        // Not journaled: a resumed run should execute these jobs.
        for (std::size_t j = 0; j < slots.size(); ++j)
            if (!ledger.settled(j))
                ledger.fail(j, "fleet cancelled");
        emitProgress(true);
    }

    void degradeRemaining()
    {
        // Not journaled: the jobs never ran; --resume retries them.
        for (std::size_t j = 0; j < slots.size(); ++j) {
            if (ledger.settled(j))
                continue;
            ledger.fail(j,
                        "degraded: fleet exhausted (respawn budget spent) "
                        "before this job could run",
                        slots[j].dispatches);
            ++summary.degradedJobs;
        }
        {
            obs::Json data = obs::Json::object();
            data["jobs"] = obs::Json(summary.degradedJobs);
            data["spawned"] = obs::Json(summary.spawned);
            data["respawn_budget"] = obs::Json(options.maxRespawns);
            obs::logEvent(obs::LogLevel::Warn, "fleet", "degraded",
                          std::move(data));
        }
        emitProgress(true);
    }

    /**
     * Write the coordinator's job-lifecycle spans and supervision
     * instants as a standalone Chrome trace document (pid 0, one thread
     * per worker id). tools/drs_tracecat merges it with the workers'
     * per-claim shards into the stitched fleet trace.
     */
    void writeCoordinatorTrace(const std::string &path)
    {
        obs::Json events = obs::Json::array();
        {
            obs::Json meta = obs::Json::object();
            meta["ph"] = obs::Json("M");
            meta["pid"] = obs::Json(0);
            meta["name"] = obs::Json("process_name");
            obs::Json args = obs::Json::object();
            args["name"] = obs::Json("fleet coordinator");
            meta["args"] = std::move(args);
            events.push(std::move(meta));
        }
        std::vector<int> tids;
        for (const CoordSpan &span : traceSpans)
            tids.push_back(span.tid);
        for (const CoordInstant &instant : traceInstants)
            tids.push_back(instant.tid);
        std::sort(tids.begin(), tids.end());
        tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
        for (int tid : tids) {
            obs::Json meta = obs::Json::object();
            meta["ph"] = obs::Json("M");
            meta["pid"] = obs::Json(0);
            meta["tid"] = obs::Json(tid);
            meta["name"] = obs::Json("thread_name");
            obs::Json args = obs::Json::object();
            args["name"] = obs::Json("worker " + std::to_string(tid));
            meta["args"] = std::move(args);
            events.push(std::move(meta));
        }
        for (const CoordSpan &span : traceSpans) {
            obs::Json event = obs::Json::object();
            event["ph"] = obs::Json("X");
            event["cat"] = obs::Json("fleet");
            event["pid"] = obs::Json(0);
            event["tid"] = obs::Json(span.tid);
            event["ts"] = obs::Json(
                static_cast<unsigned long long>(span.ts));
            event["dur"] = obs::Json(
                static_cast<unsigned long long>(span.dur));
            event["name"] = obs::Json(span.name);
            events.push(std::move(event));
        }
        for (const CoordInstant &instant : traceInstants) {
            obs::Json event = obs::Json::object();
            event["ph"] = obs::Json("i");
            event["s"] = obs::Json("p");
            event["cat"] = obs::Json("fleet");
            event["pid"] = obs::Json(0);
            event["tid"] = obs::Json(instant.tid);
            event["ts"] = obs::Json(
                static_cast<unsigned long long>(instant.ts));
            event["name"] = obs::Json(instant.name);
            events.push(std::move(event));
        }
        obs::Json document = obs::Json::object();
        document["traceEvents"] = std::move(events);
        obs::Json other = obs::Json::object();
        other["dropped_events"] = obs::Json(0);
        document["otherData"] = std::move(other);
        std::ofstream out(path, std::ios::trunc);
        out << document.dump(2) << "\n";
        if (!out) {
            obs::Json data = obs::Json::object();
            data["path"] = obs::Json(path);
            obs::logEvent(obs::LogLevel::Error, "fleet",
                          "trace_write_failed", std::move(data));
        }
    }
};

} // namespace

FleetOptions
FleetOptions::fromEnvironment()
{
    FleetOptions options;
    obs::envReal("DRS_FLEET_HEARTBEAT", &options.heartbeatSeconds, 0.0);
    obs::envReal("DRS_FLEET_HEARTBEAT_TIMEOUT",
                 &options.heartbeatTimeoutSeconds, 0.0);
    obs::envInt("DRS_FLEET_RESPAWNS", &options.maxRespawns, 0, 1'000'000);
    obs::envInt("DRS_FLEET_QUARANTINE", &options.quarantineDeaths, 1,
                1'000'000);
    obs::envReal("DRS_FLEET_BACKOFF", &options.backoffSeconds, 0.0);
    const obs::TraceConfig trace = obs::TraceConfig::fromEnvironment();
    if (trace.enabled)
        options.tracePath = trace.path;
    options.chaos = ChaosConfig::fromEnvironment();
    return options;
}

obs::Json
fleetSummaryJson(const FleetSummary &summary)
{
    obs::Json out = obs::Json::object();
    out["workers"] = obs::Json(summary.workers);
    out["spawned"] = obs::Json(summary.spawned);
    out["respawned"] = obs::Json(summary.respawned);
    out["worker_deaths"] = obs::Json(summary.workerDeaths);
    out["heartbeat_kills"] = obs::Json(summary.heartbeatKills);
    out["redispatched"] = obs::Json(summary.redispatched);
    out["quarantined"] = obs::Json(summary.quarantined);
    out["degraded_jobs"] = obs::Json(summary.degradedJobs);
    out["cancelled"] = obs::Json(summary.cancelled);
    obs::Json telemetry = obs::Json::object();
    telemetry["frames"] = obs::Json(
        static_cast<unsigned long long>(summary.telemetry.frames));
    telemetry["jobs_reported"] = obs::Json(
        static_cast<unsigned long long>(summary.telemetry.jobsReported));
    telemetry["cycles"] = obs::Json(
        static_cast<unsigned long long>(summary.telemetry.cycles));
    telemetry["rays_traced"] = obs::Json(
        static_cast<unsigned long long>(summary.telemetry.raysTraced));
    telemetry["job_seconds"] = obs::Json(summary.telemetry.jobSeconds);
    telemetry["user_cpu_seconds"] =
        obs::Json(summary.telemetry.userCpuSeconds);
    telemetry["sys_cpu_seconds"] =
        obs::Json(summary.telemetry.sysCpuSeconds);
    telemetry["peak_rss_kb"] = obs::Json(
        static_cast<unsigned long long>(summary.telemetry.peakRssKb));
    telemetry["max_heartbeat_lag_us"] =
        obs::Json(static_cast<unsigned long long>(
            summary.telemetry.maxHeartbeatLagMicros));
    out["telemetry"] = std::move(telemetry);
    return out;
}

FleetCoordinator::FleetCoordinator(const harness::ExperimentScale &scale,
                                   const harness::SweepOptions &sweep,
                                   const FleetOptions &options)
    : scale_(scale), sweep_(sweep), options_(options)
{
    options_.workers = std::max(options_.workers, 1);
    options_.quarantineDeaths = std::max(options_.quarantineDeaths, 1);
    options_.maxRespawns = std::max(options_.maxRespawns, 0);
    if (options_.heartbeatSeconds <= 0)
        options_.heartbeatSeconds = 0.25;
}

std::vector<harness::SweepResult>
FleetCoordinator::run(std::vector<harness::SweepJob> jobs)
{
    summary_ = FleetSummary{};
    summary_.workers = options_.workers;
    if (jobs.empty())
        return {};

    const auto start = Clock::now();
    FleetRun run(scale_, sweep_, options_, summary_, jobs);

    if (!run.allTerminal()) {
        // Coordinator signal dispositions for the duration of the run:
        // SIGTERM/SIGINT become a cooperative stop (fanned out to the
        // workers), SIGPIPE must not kill us mid-write to a dead child.
        g_stopRequested = 0;
        struct sigaction stop {};
        stop.sa_handler = coordinatorStopHandler;
        ::sigemptyset(&stop.sa_mask);
        stop.sa_flags = 0; // no SA_RESTART: poll() returns EINTR
        struct sigaction ignore {};
        ignore.sa_handler = SIG_IGN;
        ::sigemptyset(&ignore.sa_mask);
        struct sigaction oldTerm {}, oldInt {}, oldPipe {};
        ::sigaction(SIGTERM, &stop, &oldTerm);
        ::sigaction(SIGINT, &stop, &oldInt);
        ::sigaction(SIGPIPE, &ignore, &oldPipe);

        for (int i = 0; i < options_.workers && !run.spawnBroken; ++i)
            if (!run.spawnWorker(false))
                run.spawnBroken = true;

        while (!run.allTerminal()) {
            if (run.stopRequested()) {
                run.cancelFleet();
                break;
            }
            if (run.fleetExhausted()) {
                run.degradeRemaining();
                break;
            }
            run.pollWorkers(50);
            run.reapWorkers(false);
            run.checkHeartbeats();
            run.maybeRespawn();
            run.dispatchJobs();
            run.emitProgress(false);
        }
        if (!summary_.cancelled)
            run.shutdownAll(false);
        run.emitProgress(true);

        ::sigaction(SIGTERM, &oldTerm, nullptr);
        ::sigaction(SIGINT, &oldInt, nullptr);
        ::sigaction(SIGPIPE, &oldPipe, nullptr);
    }

    run.finalizeTelemetry();
    if (!options_.tracePath.empty())
        run.writeCoordinatorTrace(options_.tracePath + ".coord");

    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    std::printf("[fleet] %zu jobs (%zu replayed) across %d workers "
                "(%d spawned, %d respawned) in %.2fs  deaths=%d "
                "hb_kills=%d redispatched=%d quarantined=%d degraded=%d%s\n",
                jobs.size(), run.ledger.replayed(), options_.workers,
                summary_.spawned, summary_.respawned, wall,
                summary_.workerDeaths,
                summary_.heartbeatKills, summary_.redispatched,
                summary_.quarantined, summary_.degradedJobs,
                summary_.cancelled ? "  [cancelled]" : "");
    return run.ledger.finish();
}

} // namespace drs::fleet
