/**
 * @file
 * Host-time benchmark of the DRS simulator, timed layer by layer from
 * outside the libraries.
 *
 * One run executes one workload repeatedly for a time budget and prints
 * the end-to-end metrics (medians over the repetitions), the modelled-GPU
 * block and, with --trace 1, the per-layer metrics derived from spans
 * recorded around every layer call. Outputs are checked on every run;
 * the last stdout line is one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * Usage:
 *   hostbench --workload sim_inregime|capture_bound|lineup_fleet
 *             --seed N --seconds S --trace 0|1 [--out DIR]
 *
 * See README.md next to this file for the workloads, the metrics and the
 * layer -> metric map.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet.h"
#include "harness/arch_plugin.h"
#include "harness/harness.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "obs/json.h"
#include "obs/report.h"

namespace {

using namespace drs;
using harness::Arch;
using scene::SceneId;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** User + system CPU seconds of this process and its reaped children. */
double
cpuSeconds()
{
    auto seconds = [](int who) {
        rusage usage{};
        ::getrusage(who, &usage);
        return usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6 +
               usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6;
    };
    return seconds(RUSAGE_SELF) + seconds(RUSAGE_CHILDREN);
}

/** Peak RSS (MiB) of this process plus its largest reaped child. */
double
peakRssMb()
{
    rusage self{};
    rusage children{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    return (self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Nearest-rank percentile @p q in [0, 1] of @p values. */
double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/**
 * The highest whole percentile that leaves at least ten samples above
 * it, never below the median.
 */
double
tailQuantile(std::size_t samples)
{
    const double q = 1.0 - 10.0 / static_cast<double>(std::max<std::size_t>(samples, 1));
    return std::max(0.5, std::floor(q * 100.0) / 100.0);
}

// ---------------------------------------------------------------------
// Spans

/** One timed layer call: name, [start, end] and the causing span. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
};

/**
 * In-memory span log. Disabled logs record nothing, so an untraced run
 * pays only for the clock reads it needs for the end-to-end metrics.
 * Thread-safe: scene preparation records from several threads.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    int add(std::string name, double start, double end, int parent)
    {
        if (!enabled_)
            return -1;
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({std::move(name), start, end, parent});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Open a span now; close() sets its end. */
    int open(std::string name, int parent)
    {
        const double t = now();
        return add(std::move(name), t, t, parent);
    }

    void close(int id)
    {
        if (id < 0)
            return;
        const double t = now();
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_[id].end = t;
    }

    /** Set the bounds of span @p id (phases measured after the fact). */
    void set(int id, double start, double end)
    {
        if (id < 0)
            return;
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_[id].start = start;
        spans_[id].end = end;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration minus the part of it covered by the span's children. */
    std::vector<double> selfTimes() const
    {
        std::vector<std::vector<std::pair<double, double>>> children(
            spans_.size());
        for (const Span &s : spans_)
            if (s.parent >= 0)
                children[s.parent].push_back({s.start, s.end});
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            auto &kids = children[i];
            std::sort(kids.begin(), kids.end());
            double covered = 0.0;
            double reach = spans_[i].start;
            for (auto [a, b] : kids) {
                a = std::max(a, reach);
                b = std::min(b, spans_[i].end);
                if (b > a) {
                    covered += b - a;
                    reach = b;
                }
            }
            self[i] = (spans_[i].end - spans_[i].start) - covered;
        }
        return self;
    }

    /** Index of the root span that @p id descends from. */
    int rootOf(int id) const
    {
        while (spans_[id].parent >= 0)
            id = spans_[id].parent;
        return id;
    }

    /** Chrome trace_event JSON ("X" events, microseconds). */
    bool write(const std::string &path) const
    {
        obs::Json events = obs::Json::array();
        const double origin = spans_.empty() ? 0.0 : spans_.front().start;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            obs::Json &e = events.push(obs::Json::object());
            e["name"] = s.name;
            e["ph"] = "X";
            e["pid"] = 1;
            e["tid"] = rootOf(static_cast<int>(i));
            e["ts"] = (s.start - origin) * 1e6;
            e["dur"] = (s.end - s.start) * 1e6;
            obs::Json &args = e["args"];
            args["id"] = static_cast<long long>(i);
            args["parent"] = s.parent;
        }
        obs::Json doc = obs::Json::object();
        doc["traceEvents"] = std::move(events);
        std::ofstream out(path);
        out << doc.dump() << "\n";
        return static_cast<bool>(out);
    }

  private:
    bool enabled_;
    std::mutex mutex_;
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Workloads

enum class Mode
{
    /** makeScene + PathTracer + capture + runBatch, called directly. */
    Direct,
    /** SweepRunner::prepared for set-up, SweepRunner::run to simulate. */
    Sweep,
    /** FleetCoordinator::run over fork()ed workers, journal on. */
    Fleet,
};

struct Workload
{
    std::string name;
    Mode mode = Mode::Sweep;
    harness::ExperimentScale scale;
    std::vector<Arch> archs;
    int bounces = 1;
    /** Reference (RunConfig::check = 1) re-runs per invocation. */
    int referenceSamples = 1;
};

/** The repository's `nproc` cap on sweep threads and fleet workers. */
int
workerCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw == 0 ? 1u : hw, 1u, 4u));
}

Workload
makeWorkload(const std::string &name)
{
    Workload w;
    w.name = name;
    harness::ExperimentScale &s = w.scale;
    s.maxDepth = 8;
    if (name == "sim_inregime") {
        // 15k rays per SMX: above the 1952-slot ray-state table, so the
        // DRS shuffling mechanism runs on every batch.
        w.mode = Mode::Sweep;
        s.raysPerBounce = 30000;
        s.numSmx = 2;
        s.sceneScale = 0.05f;
        s.width = 320;
        s.height = 240;
        s.samplesPerPixel = 1;
        w.archs = {Arch::Aila, Arch::Dmk, Arch::Tbc, Arch::Drs};
        w.bounces = 2;
        w.referenceSamples = 2;
    } else if (name == "capture_bound") {
        // The default 640x480x2 film: capture dominates; the simulation
        // is one Aila bounce-1 slice per scene.
        w.mode = Mode::Direct;
        s.raysPerBounce = 98304;
        s.numSmx = 2;
        s.sceneScale = 0.25f;
        s.width = 640;
        s.height = 480;
        s.samplesPerPixel = 2;
        w.archs = {Arch::Aila};
        w.bounces = 1;
        w.referenceSamples = 1;
    } else if (name == "lineup_fleet") {
        // BENCH_baseline shape: 1024 rays per SMX, the drain-tail regime.
        w.mode = Mode::Fleet;
        s.raysPerBounce = 2048;
        s.numSmx = 2;
        s.sceneScale = 0.05f;
        s.width = 160;
        s.height = 120;
        s.samplesPerPixel = 1;
        w.archs = harness::ArchRegistry::instance().archs();
        w.bounces = 4;
        w.referenceSamples = 8;
    } else {
        throw std::invalid_argument("unknown workload '" + name +
                                    "' (sim_inregime, capture_bound, "
                                    "lineup_fleet)");
    }
    return w;
}

/** RenderConfig matching what harness::prepareScene builds. */
render::RenderConfig
renderConfig(const harness::ExperimentScale &scale, std::uint64_t seed)
{
    render::RenderConfig config;
    config.width = scale.width;
    config.height = scale.height;
    config.samplesPerPixel = scale.samplesPerPixel;
    config.maxDepth = scale.maxDepth;
    config.seed = seed;
    return config;
}

/** Seed harness::prepareScene uses (RenderConfig's default). */
constexpr std::uint64_t kPrepareSceneSeed = render::RenderConfig{}.seed;

harness::RunConfig
runConfig(const harness::ExperimentScale &scale)
{
    harness::RunConfig config;
    config.gpu.numSmx = scale.numSmx;
    config.check = 0; // timed runs never follow DRS_CHECK
    return config;
}

/** A scene prepared through the three layer calls. */
struct DirectScene
{
    std::unique_ptr<scene::Scene> scene;
    std::unique_ptr<render::PathTracer> tracer;
    render::RayTrace trace;
};

DirectScene
prepareDirect(SceneId id, const harness::ExperimentScale &scale,
              std::uint64_t seed, SpanLog &log, int parent)
{
    DirectScene out;
    const double t0 = now();
    out.scene = std::make_unique<scene::Scene>(
        scene::makeScene(id, scale.sceneScale));
    const double t1 = now();
    out.tracer = std::make_unique<render::PathTracer>(
        *out.scene, renderConfig(scale, seed));
    const double t2 = now();
    out.trace = out.tracer->capture(scale.raysPerBounce);
    const double t3 = now();
    log.add("scene", t0, t1, parent);
    log.add("bvh", t1, t2, parent);
    log.add("render", t2, t3, parent);
    return out;
}

/** One simulated batch of an iteration, in grid order. */
struct JobOutcome
{
    SceneId scene{};
    Arch arch;
    int bounce = 1;
    bool ran = false;
    bool failed = false;
    int attempts = 1;
    double seconds = 0.0;
    std::string error;
    simt::SimStats stats;
};

std::string
jobName(const JobOutcome &job)
{
    return scene::sceneName(job.scene) + "/" + job.arch.name() + "/b" +
           std::to_string(job.bounce);
}

/** Batch size of @p bounce (1-based) in @p trace; 0 when absent. */
std::size_t
bounceSize(const render::RayTrace &trace, int bounce)
{
    return bounce <= static_cast<int>(trace.bounces.size())
               ? trace.bounces[bounce - 1].size()
               : 0;
}

std::size_t
sceneIndex(SceneId id)
{
    const auto &ids = scene::allSceneIds();
    return static_cast<std::size_t>(std::find(ids.begin(), ids.end(), id) -
                                    ids.begin());
}

/** One printed metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Summed span self time per layer name. */
using LayerTimes = std::map<std::string, double>;

/** Timings and outputs of one repetition of a workload. */
struct Iteration
{
    bool traced = false;
    int root = -1;
    double wall = 0.0;
    double setup = 0.0;
    double sim = 0.0;
    double report = 0.0;
    double cpu = 0.0;
    /**
     * Outcomes in grid order. Only the first iteration keeps full
     * SimStats; later ones keep raysTraced plus the comparison with the
     * first, so memory does not grow with the iteration count.
     */
    std::vector<JobOutcome> jobs;
    std::vector<char> sameAsFirst;
    /** Batch size each job must trace (0 = its bounce is absent). */
    std::vector<std::size_t> expectedRays;
    std::vector<double> journalAppendSeconds;
    double reportWriteSeconds = 0.0;
    std::uintmax_t reportBytes = 0;
    std::size_t sceneBuilds = 0;
    /** Wall of the concurrent job dispatch (SweepRunner::run / fleet). */
    double dispatchWall = 0.0;
    /** Self time of the SweepRunner::run span (traced sweeps only). */
    double sweepSelf = 0.0;
    double sweepPrepare = 0.0;
    fleet::FleetSummary fleet{};
};

class Bench
{
  public:
    Bench(Workload workload, std::uint64_t seed, std::string outDir,
          bool traced)
        : w_(std::move(workload)), seed_(seed), out_(std::move(outDir)),
          log_(traced), workers_(workerCount())
    {
    }

    /** Run the workload for @p seconds, check it and print the results. */
    void run(double seconds);

  private:
    Iteration iterate(bool traced);
    void record(Iteration it);
    void runDirect(Iteration &it, SpanLog &log, int setupSpan, int simSpan);
    void runSweep(Iteration &it, SpanLog &log, int setupSpan, int simSpan);
    void runFleet(Iteration &it, SpanLog &log, int setupSpan, int simSpan);
    void writeReport(Iteration &it, SpanLog &log, int reportSpan);
    std::vector<harness::SweepJob> grid() const;
    void fail(const std::string &why);
    void checkIterations();
    void checkReferences();
    std::vector<Metric> layerMetrics(double overhead) const;

    std::string path(const char *suffix) const
    {
        return out_ + "/" + w_.name + suffix;
    }

    Workload w_;
    std::uint64_t seed_;
    std::string out_;
    SpanLog log_;
    SpanLog quiet_{false};
    int workers_;
    std::vector<Iteration> iterations_;
    /** Full outcomes of the latest iteration, for the reference checks. */
    std::vector<JobOutcome> last_;

    /** Direct mode: the last iteration's scenes, kept for the checks. */
    std::vector<DirectScene> direct_;
    /** Sweep mode: the last iteration's runner, kept for the checks. */
    std::unique_ptr<harness::SweepRunner> runner_;
    /** Scene statistics of the reference (check) preparation. */
    std::size_t triangles_ = 0;
    std::size_t nodes_ = 0;
    std::size_t paths_ = 0;
    std::size_t raysKept_ = 0;

    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::vector<std::string> problems_;
};

std::vector<harness::SweepJob>
Bench::grid() const
{
    std::vector<harness::SweepJob> jobs;
    for (SceneId id : scene::allSceneIds())
        for (const Arch &arch : w_.archs)
            for (int b = 1; b <= w_.bounces; ++b) {
                harness::SweepJob job;
                job.scene = id;
                job.arch = arch;
                job.bounce = b;
                job.config = runConfig(w_.scale);
                jobs.push_back(job);
            }
    return jobs;
}

JobOutcome
outcome(const harness::SweepJob &job, const harness::SweepResult &result)
{
    JobOutcome out;
    out.scene = job.scene;
    out.arch = job.arch;
    out.bounce = job.bounce;
    out.ran = result.ran;
    out.failed = result.failed;
    out.attempts = result.attempts;
    out.seconds = result.seconds;
    out.error = result.error;
    out.stats = result.stats;
    return out;
}

Iteration
Bench::iterate(bool traced)
{
    SpanLog &log = traced ? log_ : quiet_;
    Iteration it;
    it.traced = traced;
    const double cpu0 = cpuSeconds();
    const double t0 = now();
    it.root = log.open("iteration", -1);
    const int setup = log.open("setup", it.root);
    const int sim = log.open("sim", it.root);
    switch (w_.mode) {
    case Mode::Direct:
        runDirect(it, log, setup, sim);
        break;
    case Mode::Sweep:
        runSweep(it, log, setup, sim);
        break;
    case Mode::Fleet:
        runFleet(it, log, setup, sim);
        break;
    }
    const double t1 = now();
    const int report = log.open("report", it.root);
    writeReport(it, log, report);
    log.close(report);
    const double t2 = now();
    log.close(it.root);
    it.report = t2 - t1;
    it.wall = t2 - t0;
    it.cpu = cpuSeconds() - cpu0;
    return it;
}

void
Bench::record(Iteration it)
{
    last_ = it.jobs;
    if (!iterations_.empty()) {
        const std::vector<JobOutcome> &first = iterations_.front().jobs;
        it.sameAsFirst.resize(it.jobs.size());
        for (std::size_t i = 0; i < it.jobs.size(); ++i) {
            JobOutcome &job = it.jobs[i];
            it.sameAsFirst[i] =
                i < first.size() && job.stats == first[i].stats;
            const std::uint64_t rays = job.stats.raysTraced;
            job.stats = simt::SimStats{};
            job.stats.raysTraced = rays;
        }
    }
    iterations_.push_back(std::move(it));
}

/**
 * Run fn(0 .. count-1) on @p threads threads, item i on thread
 * i % threads; the first exception a thread throws is rethrown here
 * after every thread has joined.
 */
template <typename Fn>
void
parallelFor(std::size_t count, int threads, Fn fn)
{
    std::vector<std::exception_ptr> errors(threads);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            try {
                for (std::size_t i = t; i < count; i += threads)
                    fn(i);
            } catch (...) {
                errors[t] = std::current_exception();
            }
        });
    for (std::thread &thread : pool)
        thread.join();
    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
}

/**
 * Set-up through the three layer calls (makeScene, the PathTracer
 * constructor, capture) with the workload seed, one scene per worker
 * thread as a sweep's pool would prepare them; then one Aila bounce-1
 * runBatch per scene on the same threads.
 */
void
Bench::runDirect(Iteration &it, SpanLog &log, int setupSpan, int simSpan)
{
    const auto &ids = scene::allSceneIds();
    const double t0 = now();
    direct_.clear();
    direct_.resize(ids.size());
    parallelFor(ids.size(), workers_, [&](std::size_t i) {
        direct_[i] = prepareDirect(ids[i], w_.scale, seed_, log, setupSpan);
    });
    const double t1 = now();
    log.set(setupSpan, t0, t1);
    const Arch arch = w_.archs.front();
    it.jobs.resize(ids.size());
    parallelFor(ids.size(), workers_, [&](std::size_t i) {
        JobOutcome &job = it.jobs[i];
        job.scene = ids[i];
        job.arch = arch;
        const auto &bounces = direct_[i].trace.bounces;
        if (bounces.empty())
            return;
        const double a = now();
        try {
            job.stats = harness::runBatch(arch, *direct_[i].tracer,
                                          bounces[0].rays, runConfig(w_.scale));
            job.ran = true;
        } catch (const std::exception &e) {
            job.failed = true;
            job.error = e.what();
        }
        const double b = now();
        job.seconds = b - a;
        log.add("sim." + arch.name(), a, b, simSpan);
    });
    const double t2 = now();
    log.set(simSpan, t1, t2);
    for (const DirectScene &scene : direct_)
        it.expectedRays.push_back(bounceSize(scene.trace, 1));
    it.setup = t1 - t0;
    it.sim = t2 - t1;
    it.dispatchWall = it.sim;
    it.sceneBuilds = direct_.size();
}

/**
 * Set-up prepares every scene through SweepRunner::prepared, one thread
 * per worker, so the sweep starts on a warm cache; SweepRunner::run then
 * simulates the grid on the runner's pool.
 */
void
Bench::runSweep(Iteration &it, SpanLog &log, int setupSpan, int simSpan)
{
    const double t0 = now();
    runner_.reset();
    runner_ = std::make_unique<harness::SweepRunner>(w_.scale, workers_,
                                                     harness::SweepOptions{});
    {
        const auto &ids = scene::allSceneIds();
        std::vector<double> seconds(ids.size());
        parallelFor(ids.size(), workers_, [&](std::size_t i) {
            const double a = now();
            runner_->prepared(ids[i]);
            const double b = now();
            seconds[i] = b - a;
            log.add("sweep.prepare", a, b, setupSpan);
        });
        for (const double s : seconds)
            it.sweepPrepare += s;
    }
    const double t1 = now();
    log.set(setupSpan, t0, t1);

    const std::vector<harness::SweepJob> jobs = grid();
    // Traced iterations stamp each job's end from the per-SMX stats hook
    // (called right after the job's simulation); with the job's own
    // SweepResult::seconds that rebuilds its span.
    std::vector<double> jobEnd(jobs.size(), 0.0);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        harness::SweepJob job = jobs[i];
        if (log.enabled())
            job.config.perSmxStats = [&jobEnd, i](int,
                                                  const simt::SimStats &) {
                jobEnd[i] = now();
            };
        runner_->add(job);
    }
    std::fflush(stdout);
    const int sweepSpan = log.open("sweep", simSpan);
    const double r0 = now();
    const std::vector<harness::SweepResult> results = runner_->run();
    const double r1 = now();
    log.close(sweepSpan);
    log.set(simSpan, t1, r1);
    it.setup = t1 - t0;
    it.sim = r1 - t1;
    it.dispatchWall = r1 - r0;
    it.sceneBuilds = runner_->cacheMisses();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        it.jobs.push_back(outcome(jobs[i], results[i]));
        it.expectedRays.push_back(bounceSize(
            runner_->prepared(jobs[i].scene).trace, jobs[i].bounce));
        if (jobEnd[i] > 0.0)
            log.add("sim." + jobs[i].arch.name(),
                    jobEnd[i] - results[i].seconds, jobEnd[i], sweepSpan);
    }
    if (log.enabled())
        it.sweepSelf = log.selfTimes()[sweepSpan];
}

/**
 * FleetCoordinator::run over the whole grid with the journal on.
 * Set-up is fleet spawn until every worker has sent Hello; each worker
 * then prepares its scenes lazily inside its first job per scene.
 */
void
Bench::runFleet(Iteration &it, SpanLog &log, int setupSpan, int simSpan)
{
    harness::SweepOptions sweep;
    sweep.journalPath = path(".fleet-journal.jsonl");
    fleet::FleetOptions options;
    options.workers = workers_;
    double ready = 0.0;
    options.onFleetReady = [&ready] { ready = now(); };
    fleet::FleetCoordinator coordinator(w_.scale, sweep, options);
    const std::vector<harness::SweepJob> jobs = grid();
    std::fflush(stdout); // workers must not inherit buffered output
    const int fleetSpan = log.open("fleet", it.root);
    const double t0 = now();
    const std::vector<harness::SweepResult> results = coordinator.run(jobs);
    const double t1 = now();
    log.close(fleetSpan);
    if (ready == 0.0)
        ready = t1; // the crew never completed: all of it was set-up
    log.add("fleet.spawn", t0, ready, fleetSpan);
    log.set(setupSpan, t0, ready);
    log.set(simSpan, ready, t1);
    it.setup = ready - t0;
    it.sim = t1 - ready;
    it.dispatchWall = it.sim;
    it.fleet = coordinator.summary();
    for (std::size_t i = 0; i < jobs.size(); ++i)
        it.jobs.push_back(outcome(jobs[i], results[i]));
}

/**
 * The report phase: one fsync'd SweepJournal record per job (the record
 * shape and writer the sweep and fleet journals use) and the JSON bench
 * report.
 */
void
Bench::writeReport(Iteration &it, SpanLog &log, int reportSpan)
{
    harness::SweepJournal journal;
    std::string error;
    if (!journal.open(path(".results.jsonl"), true, &error))
        throw std::runtime_error("cannot open the results journal: " + error);
    for (std::size_t i = 0; i < it.jobs.size(); ++i) {
        const JobOutcome &job = it.jobs[i];
        harness::SweepJob key;
        key.scene = job.scene;
        key.arch = job.arch;
        key.bounce = job.bounce;
        harness::SweepResult result;
        result.stats = job.stats;
        result.ran = job.ran;
        result.failed = job.failed;
        result.seconds = job.seconds;
        result.attempts = job.attempts;
        result.error = job.error;
        const obs::Json entry = harness::sweepResultToJson(
            i, harness::SweepRunner::jobKey(key), result);
        const double a = now();
        const bool ok = journal.append(entry, &error);
        const double b = now();
        it.journalAppendSeconds.push_back(b - a);
        log.add("journal.append", a, b, reportSpan);
        if (!ok)
            throw std::runtime_error("journal append failed: " + error);
    }
    journal.close();

    const double clockGhz = harness::RunConfig{}.gpu.clockGhz;
    obs::BenchReport report("hostbench_" + w_.name);
    report.scale() = harness::scaleJson(w_.scale);
    report.options()["jobs"] = workers_;
    report.options()["smx_threads"] = 1;
    for (const JobOutcome &job : it.jobs) {
        obs::Json &row = report.addResult();
        row = harness::statsJson(job.stats, clockGhz);
        row["scene"] = scene::sceneName(job.scene);
        row["arch"] = job.arch.name();
        row["bounce"] = job.bounce;
        row["wall_seconds"] = job.seconds;
        row["failed"] = job.failed;
    }
    report.setWallSeconds(it.setup + it.sim);
    const std::string reportPath = path(".report.json");
    const double a = now();
    if (!report.writeFile(reportPath, &error))
        throw std::runtime_error("report write failed: " + error);
    const double b = now();
    it.reportWriteSeconds = b - a;
    log.add("report.write", a, b, reportSpan);
    it.reportBytes = std::filesystem::file_size(reportPath);
}

void
Bench::fail(const std::string &why)
{
    ++failed_;
    if (problems_.size() < 20)
        problems_.push_back(why);
}

/** Cheap per-iteration invariants plus bit-identity across iterations. */
void
Bench::checkIterations()
{
    const Iteration &first = iterations_.front();
    for (const Iteration &it : iterations_) {
        attempted_ += it.jobs.size();
        if (w_.mode != Mode::Fleet &&
            it.sceneBuilds != scene::allSceneIds().size())
            fail("built " + std::to_string(it.sceneBuilds) +
                 " scenes in one iteration, expected one per scene");
        if (it.fleet.degradedJobs > 0 || it.fleet.cancelled)
            fail("the fleet degraded or was cancelled");
        for (std::size_t i = 0; i < it.jobs.size(); ++i) {
            const JobOutcome &job = it.jobs[i];
            const std::size_t expected = it.expectedRays.at(i);
            std::string why;
            if (job.failed)
                why = "quarantined: " + job.error;
            else if (job.ran != (expected > 0))
                why = job.ran ? "ran without a bounce"
                              : "did not run although its bounce exists";
            else if (job.stats.raysTraced != expected)
                why = "raysTraced " + std::to_string(job.stats.raysTraced) +
                      " != batch size " + std::to_string(expected);
            else if (&it != &first && !it.sameAsFirst.at(i))
                why = "SimStats differ from the first iteration";
            if (!why.empty())
                fail(jobName(job) + ": " + why);
        }
    }
}

/**
 * Once per invocation, outside the timed region: re-run a seeded sample
 * of batches through runBatch with the lockstep reference on
 * (RunConfig::check = 1 cross-checks every hit) and require the timed
 * run's SimStats. The sweep and fleet workloads rebuild their scenes
 * through makeScene/PathTracer/capture with prepareScene's seed, which
 * must reproduce the runner's captures ray for ray (sweep) and give the
 * batch sizes the fleet's jobs must trace; the fleet journal must
 * replay every job with identical SimStats.
 */
void
Bench::checkReferences()
{
    const int root = log_.open("check", -1);
    const auto &ids = scene::allSceneIds();

    std::vector<DirectScene> rebuilt;
    if (w_.mode != Mode::Direct)
        for (SceneId id : ids)
            rebuilt.push_back(
                prepareDirect(id, w_.scale, kPrepareSceneSeed, log_, root));
    const std::vector<DirectScene> &scenes =
        w_.mode == Mode::Direct ? direct_ : rebuilt;
    for (const DirectScene &s : scenes) {
        triangles_ += s.scene->triangles().size();
        nodes_ += s.tracer->bvh().nodes().size();
        paths_ += static_cast<std::size_t>(w_.scale.width) *
                  w_.scale.height * w_.scale.samplesPerPixel;
        raysKept_ += s.trace.totalRays();
    }

    auto sameRays = [](const render::RayTrace &a, const render::RayTrace &b) {
        if (a.bounces.size() != b.bounces.size())
            return false;
        for (std::size_t i = 0; i < a.bounces.size(); ++i) {
            const auto &x = a.bounces[i].rays;
            const auto &y = b.bounces[i].rays;
            if (x.size() != y.size() ||
                (!x.empty() && std::memcmp(x.data(), y.data(),
                                           x.size() * sizeof(geom::Ray)) != 0))
                return false;
        }
        return true;
    };
    if (w_.mode == Mode::Sweep)
        for (std::size_t s = 0; s < ids.size(); ++s)
            if (!sameRays(scenes[s].trace, runner_->prepared(ids[s]).trace))
                fail(scene::sceneName(ids[s]) +
                     ": layer-call capture differs from SweepRunner::prepared");
    if (w_.mode == Mode::Fleet)
        for (Iteration &it : iterations_)
            for (const JobOutcome &job : it.jobs)
                it.expectedRays.push_back(bounceSize(
                    scenes[sceneIndex(job.scene)].trace, job.bounce));

    // Seeded sample of grid positions, without repetition.
    geom::Pcg32 rng(seed_ * 0x9e3779b97f4a7c15ULL + 1);
    std::vector<std::size_t> order(last_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1],
                  order[rng.nextUInt(static_cast<std::uint32_t>(i))]);
    order.resize(std::min<std::size_t>(w_.referenceSamples, order.size()));
    for (const std::size_t index : order) {
        const JobOutcome &job = last_[index];
        const DirectScene &s = scenes[sceneIndex(job.scene)];
        ++attempted_;
        if (bounceSize(s.trace, job.bounce) == 0)
            continue; // checkIterations already holds ran == false
        harness::RunConfig config = runConfig(w_.scale);
        config.check = 1;
        const double a = now();
        try {
            const simt::SimStats reference = harness::runBatch(
                job.arch, *s.tracer, s.trace.bounces[job.bounce - 1].rays,
                config);
            if (!(reference == job.stats))
                fail(jobName(job) + ": SimStats differ from the checked " +
                     (w_.mode == Mode::Fleet ? "in-process reference"
                                             : "reference"));
        } catch (const std::exception &e) {
            fail(jobName(job) + ": reference check threw: " + e.what());
        }
        log_.add("check.runBatch", a, now(), root);
    }

    if (w_.mode == Mode::Fleet) {
        const std::vector<harness::SweepJob> jobs = grid();
        std::vector<harness::SweepResult> replayed(jobs.size());
        const std::vector<char> done = harness::replaySweepJournal(
            path(".fleet-journal.jsonl"), jobs, replayed);
        for (std::size_t i = 0; i < jobs.size(); ++i)
            if (!done[i] || !(replayed[i].stats == last_[i].stats))
                fail(jobName(last_[i]) +
                     ": fleet journal record missing or different");
    }
    log_.close(root);
}

// ---------------------------------------------------------------------
// Reporting

/** Modelled totals of one architecture across a job list. */
struct ArchTotals
{
    simt::SimStats merged;
    std::uint64_t cycles = 0; ///< summed over batches
};

std::map<std::string, ArchTotals>
archTotals(const std::vector<JobOutcome> &jobs)
{
    std::map<std::string, ArchTotals> out;
    for (const JobOutcome &job : jobs) {
        ArchTotals &t = out[job.arch.name()];
        t.merged.merge(job.stats);
        t.cycles += job.stats.cycles;
    }
    return out;
}

/** FNV-1a over the lossless SimStats of every job, in grid order. */
std::uint64_t
statsDigest(const std::vector<JobOutcome> &jobs)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const JobOutcome &job : jobs) {
        const std::string text =
            jobName(job) + "=" + harness::statsJsonFull(job.stats).dump();
        for (const unsigned char c : text) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

/**
 * Geometric mean over scenes of (aila cycles / @p arch cycles) on the
 * same rays, the speedup Figure 11 reports; 0 when not measurable.
 */
double
speedupVsAila(const std::vector<JobOutcome> &jobs, const Arch &arch)
{
    double logSum = 0.0;
    int scenes = 0;
    for (SceneId id : scene::allSceneIds()) {
        std::uint64_t base = 0;
        std::uint64_t mine = 0;
        for (const JobOutcome &job : jobs) {
            if (job.scene != id || !job.ran)
                continue;
            if (job.arch == Arch::Aila)
                base += job.stats.cycles;
            if (job.arch == arch)
                mine += job.stats.cycles;
        }
        if (base > 0 && mine > 0) {
            logSum += std::log(static_cast<double>(base) / mine);
            ++scenes;
        }
    }
    return scenes ? std::exp(logSum / scenes) : 0.0;
}

void
printModelled(const Workload &w, const std::vector<JobOutcome> &jobs)
{
    std::printf("\nmodelled GPU (exact; identical on every run of one "
                "seed):\n");
    std::printf("  %-9s %12s %14s %9s %16s\n", "arch", "cycles",
                "warp_instr", "simd_eff", "speedup_vs_aila");
    const auto totals = archTotals(jobs);
    for (const Arch &arch : w.archs) {
        const ArchTotals &t = totals.at(arch.name());
        std::printf("  %-9s %12llu %14llu %9.4f %15.3fx\n",
                    arch.name().c_str(),
                    static_cast<unsigned long long>(t.cycles),
                    static_cast<unsigned long long>(
                        t.merged.histogram.instructions()),
                    t.merged.histogram.simdEfficiency(),
                    speedupVsAila(jobs, arch));
    }
    const std::pair<Arch, double> paper[] = {
        {Arch::Drs, 1.79}, {Arch::Tbc, 1.18}, {Arch::Dmk, 1.06}};
    bool header = false;
    for (const auto &[arch, value] : paper) {
        const double simulated = speedupVsAila(jobs, arch);
        if (simulated == 0.0)
            continue;
        if (!header)
            std::printf("  paper average speedup vs aila (GPGPU-Sim "
                        "reference at 2M rays per bounce, not at this "
                        "scale):\n");
        header = true;
        std::printf("    %-4s paper %.2fx  simulated %.3fx  diff %+.3f\n",
                    arch.name().c_str(), value, simulated, simulated - value);
    }
    std::printf("  the simulator's timing model is unvalidated against "
                "hardware.\n");
    std::printf("  simstats digest: %016llx (%zu batches)\n",
                static_cast<unsigned long long>(statsDigest(jobs)),
                jobs.size());
}

/** The layer -> end-to-end metric map printed with the traced run. */
void
printLayerMap()
{
    static const char *const rows[][3] = {
        {"scene (makeScene)", "scene.host_s scene.triangles",
         "setup_s on capture_bound"},
        {"bvh (PathTracer ctor)", "bvh.host_s bvh.nodes",
         "setup_s on capture_bound"},
        {"render (PathTracer::capture)",
         "render.capture_s render.paths render.rays_kept render.keep_ratio",
         "setup_s wall_s peak_rss_mb on capture_bound; not sim_inregime"},
        {"harness.runBatch (simt kernels core baselines reorder)",
         "sim.<arch>.busy_s .minstr_per_s .winstr .cycles .simd_eff",
         "sim_s cpu_s sim_minstr_per_s on sim_inregime and lineup_fleet"},
        {"modelled components (drs)",
         "core.rdctrl_stall_rate core.ray_swaps core.shuffle_rf_fraction "
         "simt.l1d_hit_rate simt.l2_hit_rate",
         "no host metric: bit-identical under host-speed changes"},
        {"sweep (SweepRunner::run, ::prepared)",
         "sweep.jobs .busy_s .idle_s .parallel_eff .retries .scene_builds "
         ".self_s .prepare_s .job_s_p50 .job_s_tail .job_samples",
         "wall_s sim_s on sim_inregime"},
        {"fleet (FleetCoordinator::run, FleetSummary)",
         "fleet.ready_s .worker_cpu_s .worker_nonsim_s .idle_s .deaths "
         ".redispatched .heartbeat_lag_max_us",
         "cpu_s wall_s on lineup_fleet; not the in-process workloads"},
        {"journal/report (SweepJournal::append, BenchReport::writeFile)",
         "journal.appends .append_s_p50 .append_s_tail .append_samples "
         "report.write_s report.bytes",
         "wall_s on lineup_fleet"},
    };
    std::printf("\nlayer -> per-layer metrics -> end-to-end metric they "
                "should move:\n");
    for (const auto &row : rows)
        std::printf("  %s\n      %s\n      -> %s\n", row[0], row[1], row[2]);
}

/**
 * Per-layer metrics. Times are medians over the traced iterations of
 * each layer's summed span self time (scene/bvh/render fall back to the
 * reference preparation of the check when the timed path prepares
 * scenes inside the runner or the fleet workers); modelled values come
 * from the first iteration. Layers a workload does not exercise read 0.
 */
std::vector<Metric>
Bench::layerMetrics(double overhead) const
{
    const std::vector<Span> &spans = log_.spans();
    const std::vector<double> self = log_.selfTimes();
    // Summed self time per (root, span name).
    std::map<int, LayerTimes> perRoot;
    for (std::size_t i = 0; i < spans.size(); ++i)
        perRoot[log_.rootOf(static_cast<int>(i))][spans[i].name] += self[i];

    std::vector<const Iteration *> traced;
    for (const Iteration &it : iterations_)
        if (it.traced)
            traced.push_back(&it);
    auto over = [&](auto field) {
        std::vector<double> values;
        for (const Iteration *it : traced)
            values.push_back(field(*it));
        return median(values);
    };
    auto layer = [&](const std::string &name) {
        std::vector<double> values;
        for (const Iteration *it : traced)
            if (perRoot[it->root].count(name))
                values.push_back(perRoot[it->root][name]);
        if (values.empty())
            for (auto &[root, times] : perRoot)
                if (times.count(name))
                    values.push_back(times[name]);
        return median(values);
    };

    std::vector<Metric> m;
    m.push_back({"scene.host_s", layer("scene"), "s"});
    m.push_back({"scene.triangles", static_cast<double>(triangles_), "count"});
    m.push_back({"bvh.host_s", layer("bvh"), "s"});
    m.push_back({"bvh.nodes", static_cast<double>(nodes_), "count"});
    m.push_back({"render.capture_s", layer("render"), "s"});
    m.push_back({"render.paths", static_cast<double>(paths_), "count"});
    m.push_back({"render.rays_kept", static_cast<double>(raysKept_), "count"});
    m.push_back({"render.keep_ratio",
                 paths_ ? static_cast<double>(raysKept_) / paths_ : 0.0,
                 "ratio"});

    const auto totals = archTotals(iterations_.front().jobs);
    for (const Arch &arch : harness::ArchRegistry::instance().archs()) {
        const std::string a = arch.name();
        const auto found = totals.find(a);
        const ArchTotals t =
            found == totals.end() ? ArchTotals{} : found->second;
        const double busy = over([&](const Iteration &it) {
            double sum = 0.0;
            for (const JobOutcome &job : it.jobs)
                sum += job.arch == arch ? job.seconds : 0.0;
            return sum;
        });
        const double winstr =
            static_cast<double>(t.merged.histogram.instructions());
        m.push_back({"sim." + a + ".busy_s", busy, "s"});
        m.push_back({"sim." + a + ".minstr_per_s",
                     busy > 0 ? winstr / 1e6 / busy : 0.0, "Minstr/s"});
        m.push_back({"sim." + a + ".winstr", winstr, "count"});
        m.push_back(
            {"sim." + a + ".cycles", static_cast<double>(t.cycles), "cycles"});
        m.push_back({"sim." + a + ".simd_eff",
                     t.merged.histogram.simdEfficiency(), "ratio"});
    }
    const auto drs = totals.find(Arch::Drs.name());
    const simt::SimStats core =
        drs == totals.end() ? simt::SimStats{} : drs->second.merged;
    m.push_back({"core.rdctrl_stall_rate", core.rdctrlStallRate(), "ratio"});
    m.push_back({"core.ray_swaps", static_cast<double>(core.raySwapsCompleted),
                 "count"});
    m.push_back(
        {"core.shuffle_rf_fraction", core.shuffleRfFraction(), "ratio"});
    m.push_back({"simt.l1d_hit_rate", core.l1Data.hitRate(), "ratio"});
    m.push_back({"simt.l2_hit_rate", core.l2.hitRate(), "ratio"});

    auto busyOf = [](const Iteration &it) {
        double sum = 0.0;
        for (const JobOutcome &job : it.jobs)
            sum += job.seconds;
        return sum;
    };
    std::vector<double> jobSeconds;
    std::vector<double> appendSeconds;
    for (const Iteration *it : traced) {
        for (const JobOutcome &job : it->jobs)
            jobSeconds.push_back(job.seconds);
        appendSeconds.insert(appendSeconds.end(),
                             it->journalAppendSeconds.begin(),
                             it->journalAppendSeconds.end());
    }
    const double workers = workers_;
    m.push_back({"sweep.jobs",
                 static_cast<double>(iterations_.front().jobs.size()),
                 "count"});
    m.push_back({"sweep.busy_s", over(busyOf), "s"});
    m.push_back({"sweep.idle_s",
                 over([&](const Iteration &it) {
                     return workers * it.dispatchWall - busyOf(it);
                 }),
                 "s"});
    m.push_back({"sweep.parallel_eff",
                 over([&](const Iteration &it) {
                     return it.dispatchWall > 0
                                ? busyOf(it) / (workers * it.dispatchWall)
                                : 0.0;
                 }),
                 "ratio"});
    m.push_back({"sweep.retries", over([](const Iteration &it) {
                     double retries = 0.0;
                     for (const JobOutcome &job : it.jobs)
                         retries += std::max(0, job.attempts - 1);
                     return retries;
                 }),
                 "count"});
    m.push_back({"sweep.scene_builds", over([](const Iteration &it) {
                     return static_cast<double>(it.sceneBuilds);
                 }),
                 "count"});
    m.push_back({"sweep.self_s",
                 over([](const Iteration &it) { return it.sweepSelf; }),
                 "s"});
    m.push_back({"sweep.prepare_s",
                 over([](const Iteration &it) { return it.sweepPrepare; }),
                 "s"});
    m.push_back({"sweep.job_s_p50", percentile(jobSeconds, 0.5), "s"});
    m.push_back({"sweep.job_s_tail",
                 percentile(jobSeconds, tailQuantile(jobSeconds.size())), "s"});
    m.push_back({"sweep.job_samples", static_cast<double>(jobSeconds.size()),
                 "count"});

    auto telemetry = [](const Iteration &it) { return it.fleet.telemetry; };
    m.push_back({"fleet.ready_s",
                 over([&](const Iteration &it) {
                     return w_.mode == Mode::Fleet ? it.setup : 0.0;
                 }),
                 "s"});
    m.push_back({"fleet.worker_cpu_s", over([&](const Iteration &it) {
                     return telemetry(it).userCpuSeconds +
                            telemetry(it).sysCpuSeconds;
                 }),
                 "s"});
    m.push_back({"fleet.worker_nonsim_s", over([&](const Iteration &it) {
                     const auto t = telemetry(it);
                     return t.frames ? t.userCpuSeconds + t.sysCpuSeconds -
                                           t.jobSeconds
                                     : 0.0;
                 }),
                 "s"});
    m.push_back({"fleet.idle_s",
                 over([&](const Iteration &it) {
                     return w_.mode == Mode::Fleet
                                ? workers * it.sim - busyOf(it)
                                : 0.0;
                 }),
                 "s"});
    m.push_back({"fleet.deaths", over([](const Iteration &it) {
                     return static_cast<double>(it.fleet.workerDeaths);
                 }),
                 "count"});
    m.push_back({"fleet.redispatched", over([](const Iteration &it) {
                     return static_cast<double>(it.fleet.redispatched);
                 }),
                 "count"});
    m.push_back({"fleet.heartbeat_lag_max_us", over([&](const Iteration &it) {
                     return static_cast<double>(
                         telemetry(it).maxHeartbeatLagMicros);
                 }),
                 "us"});

    m.push_back({"journal.appends",
                 static_cast<double>(iterations_.front().jobs.size()),
                 "count"});
    m.push_back({"journal.append_s_p50", percentile(appendSeconds, 0.5), "s"});
    m.push_back({"journal.append_s_tail",
                 percentile(appendSeconds, tailQuantile(appendSeconds.size())),
                 "s"});
    m.push_back({"journal.append_samples",
                 static_cast<double>(appendSeconds.size()), "count"});
    m.push_back({"report.write_s", over([](const Iteration &it) {
                     return it.reportWriteSeconds;
                 }),
                 "s"});
    m.push_back({"report.bytes", over([](const Iteration &it) {
                     return static_cast<double>(it.reportBytes);
                 }),
                 "bytes"});

    // Coverage: setup + sim + report + other = wall, where other is the
    // iteration's self time (time no phase span covers).
    m.push_back({"cover.setup_s", over([](const Iteration &it) {
                     return it.setup;
                 }),
                 "s"});
    m.push_back({"cover.sim_s", over([](const Iteration &it) {
                     return it.sim;
                 }),
                 "s"});
    m.push_back({"cover.report_s", over([](const Iteration &it) {
                     return it.report;
                 }),
                 "s"});
    m.push_back({"cover.other_s", over([&](const Iteration &it) {
                     return self[it.root];
                 }),
                 "s"});
    m.push_back({"trace.overhead_s", overhead, "s"});
    m.push_back(
        {"trace.spans", static_cast<double>(spans.size()), "count"});
    return m;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    obs::Json out = obs::Json::object();
    for (const Metric &m : metrics) {
        obs::Json &entry = out[m.name];
        entry["value"] = m.value;
        entry["unit"] = m.unit;
    }
    return out.dump();
}

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("\n%s\n", title);
    for (const Metric &m : metrics)
        std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

void
Bench::run(double seconds)
{
    std::filesystem::create_directories(out_);
    std::printf("hostbench: workload=%s seed=%llu seconds=%g trace=%d "
                "workers=%d\n",
                w_.name.c_str(), static_cast<unsigned long long>(seed_),
                seconds, log_.enabled() ? 1 : 0, workers_);
    std::fflush(stdout);

    // Repeat until the budget is spent, at least three times. A traced
    // run alternates untraced and traced iterations, so the difference
    // of their median walls is the tracing overhead.
    constexpr int kMinIterations = 3;
    constexpr int kMaxIterations = 500;
    const double start = now();
    for (int i = 0; i < kMaxIterations; ++i) {
        if (i >= kMinIterations && now() - start >= seconds)
            break;
        record(iterate(log_.enabled() && i % 2 == 1));
    }
    const double peakRss = peakRssMb();
    std::printf("\niterations (s):%s\n", log_.enabled() ? " * = traced" : "");
    for (std::size_t i = 0; i < iterations_.size(); ++i) {
        const Iteration &it = iterations_[i];
        std::printf("  %2zu%s wall %.4f setup %.4f sim %.4f report %.4f "
                    "cpu %.4f\n",
                    i, it.traced ? "*" : " ", it.wall, it.setup, it.sim,
                    it.report, it.cpu);
    }
    checkReferences(); // fills the fleet's expected batch sizes
    checkIterations();

    std::vector<double> wall, setup, sim, cpu, tracedWall;
    for (const Iteration &it : iterations_) {
        if (it.traced) {
            tracedWall.push_back(it.wall);
            continue;
        }
        wall.push_back(it.wall);
        setup.push_back(it.setup);
        sim.push_back(it.sim);
        cpu.push_back(it.cpu);
    }
    double winstr = 0.0;
    for (const JobOutcome &job : iterations_.front().jobs)
        winstr += static_cast<double>(job.stats.histogram.instructions());
    const double simMedian = median(sim);
    const std::vector<Metric> endToEnd = {
        {"wall_s", median(wall), "s"},
        {"setup_s", median(setup), "s"},
        {"sim_s", simMedian, "s"},
        {"cpu_s", median(cpu), "s"},
        {"sim_minstr_per_s", simMedian > 0 ? winstr / 1e6 / simMedian : 0.0,
         "Minstr/s"},
        {"peak_rss_mb", peakRss, "MiB"},
    };
    const double failRatio =
        attempted_ ? static_cast<double>(failed_) / attempted_ : 1.0;

    char title[128];
    std::snprintf(title, sizeof title,
                  "end-to-end (median of %zu untraced iterations):",
                  wall.size());
    printMetrics(title, endToEnd);
    std::printf("  %-28s %16.6f ratio (%zu of %zu jobs failed)\n",
                "job_fail_ratio", failRatio, failed_, attempted_);
    for (const std::string &p : problems_)
        std::printf("  FAILED CHECK: %s\n", p.c_str());
    printModelled(w_, iterations_.front().jobs);

    std::vector<Metric> perLayer;
    if (log_.enabled()) {
        const double overhead = median(tracedWall) - median(wall);
        perLayer = layerMetrics(overhead);
        std::snprintf(title, sizeof title,
                      "per-layer (span self times, median of %zu traced "
                      "iterations):",
                      tracedWall.size());
        printMetrics(title, perLayer);
        auto find = [&](const char *name) {
            for (const Metric &m : perLayer)
                if (m.name == name)
                    return m.value;
            return 0.0;
        };
        const double s = find("cover.setup_s"), si = find("cover.sim_s"),
                     r = find("cover.report_s"), o = find("cover.other_s");
        std::printf("\ncoverage: setup %.6f + sim %.6f + report %.6f + "
                    "other %.6f = %.6f s (median traced wall %.6f s)\n",
                    s, si, r, o, s + si + r + o, median(tracedWall));
        std::printf("tracing overhead: traced - untraced median wall = "
                    "%+.6f s over %zu spans\n",
                    overhead, log_.spans().size());
        printLayerMap();
        const std::string tracePath = path(".trace.json");
        if (log_.write(tracePath))
            std::printf("spans: %s\n", tracePath.c_str());
    }

    const bool correct = failed_ == 0 && problems_.empty();
    std::printf("%s\n",
                ("{\"correct\": " + std::string(correct ? "true" : "false") +
                 ", \"attempted\": " + std::to_string(attempted_) +
                 ", \"failed\": " + std::to_string(failed_) +
                 ", \"metrics\": " +
                 metricsJson(log_.enabled() ? perLayer : endToEnd) + "}")
                    .c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out = ".bench_out";
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            seed = std::stoull(value);
        else if (flag == "--seconds")
            seconds = std::stod(value);
        else if (flag == "--trace")
            trace = value == "1";
        else if (flag == "--out")
            out = value;
        else {
            std::fprintf(stderr, "hostbench: unknown flag %s\n", flag.c_str());
            return 2;
        }
    }
    if (argc % 2 == 0) {
        std::fprintf(stderr, "hostbench: every flag takes a value\n");
        return 2;
    }
    try {
        Bench bench(makeWorkload(workload), seed, out, trace);
        bench.run(seconds);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hostbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
