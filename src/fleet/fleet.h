#pragma once

/**
 * @file
 * Multi-process sweep fleet: a coordinator that shards a SweepJob grid
 * across fork()ed worker processes for true crash isolation. A worker
 * that segfaults, gets SIGKILLed by the chaos harness, or wedges past
 * its heartbeat deadline takes down only its own process — the
 * coordinator reaps it, re-dispatches the job it held (seeded
 * exponential backoff with jitter), respawns a replacement while the
 * respawn budget lasts, and quarantines any job that keeps killing
 * workers. When the budget is spent the fleet *shrinks* instead of
 * aborting; if every worker is gone the remaining jobs are reported as
 * degraded rather than lost.
 *
 * Determinism contract: a worker executes job N of the grid with
 * SweepRunner::runJob(job, N), so per-attempt fault seeds — and
 * therefore SimStats — are a pure function of the job's grid index.
 * The merged fleet results are bit-identical to a single-process
 * SweepRunner::run() over the same grid, no matter how many workers
 * died along the way. The chaos harness (tests/check_fleet_chaos.sh)
 * holds this bar under random SIGKILLs plus a coordinator crash.
 *
 * Durability: the coordinator is the only journal writer. It reuses the
 * sweep's append-only JSONL journal (one fsync'd record per finished
 * job, exactly once), so --resume works across coordinator crashes and
 * a journal written by the fleet is replayable by the single-process
 * runner and vice versa.
 *
 * Shutdown: SIGTERM/SIGINT set a stop flag; the coordinator fans the
 * cancellation out (Shutdown frames + SIGTERM, whose worker-side
 * handler trips a process-wide CancelToken chained under every
 * in-flight attempt), grants a grace period, SIGKILLs stragglers and
 * reaps everything — no orphans. Workers additionally arm
 * PR_SET_PDEATHSIG so a coordinator killed with SIGKILL cannot leak
 * children either.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fleet/chaos.h"
#include "harness/sweep.h"
#include "obs/json.h"

namespace drs::fleet {

struct FleetProgress;

struct FleetOptions
{
    /** Worker processes to keep running (>= 1). */
    int workers = 2;
    /** Worker heartbeat period (seconds). */
    double heartbeatSeconds = 0.25;
    /**
     * Silence longer than this marks a worker wedged: it is SIGKILLed
     * and its job re-dispatched. Workers beat from the moment they
     * start (a dedicated thread, independent of scene builds and
     * simulation), so the deadline bounds wedge detection, not job
     * runtime.
     */
    double heartbeatTimeoutSeconds = 10.0;
    /**
     * Replacement workers the fleet may spawn over its lifetime, on top
     * of the initial crew. When spent, deaths shrink the fleet.
     */
    int maxRespawns = 8;
    /**
     * Worker deaths attributable to one job before it is quarantined
     * (recorded failed, never dispatched again). Guards the fleet
     * against a poison job that kills every process it touches.
     */
    int quarantineDeaths = 3;
    /**
     * Base re-dispatch backoff (seconds): a job whose worker died waits
     * backoff * 2^(deaths-1), scaled by a jitter factor in [0.5, 1.0]
     * seeded from (fault seed, job index, dispatch) — deterministic per
     * sweep, but re-dispatches of distinct jobs spread out.
     */
    double backoffSeconds = 0.05;
    /** Grace period between Shutdown/SIGTERM and SIGKILL (seconds). */
    double shutdownGraceSeconds = 5.0;
    /** Chaos injection (off by default). */
    ChaosConfig chaos{};
    /**
     * Base path for cross-process trace stitching (usually the DRS_TRACE
     * path). When set, the coordinator writes its job-lifecycle spans
     * (dispatch -> result, plus death/respawn/kill/redispatch/quarantine
     * instants) to "<tracePath>.coord"; workers write per-claim shards
     * to "<tracePath>.w<id>.j<index>". tools/drs_tracecat merges them.
     * Empty = no coordinator trace.
     */
    std::string tracePath;
    /**
     * Test hook: invoked once, in the coordinator, when every worker of
     * the initial crew has sent its Hello. The shutdown tests use it to
     * signal "fleet is live, kill it now" without racing the spawn.
     */
    std::function<void()> onFleetReady;
    /**
     * Live-progress callback, invoked from the supervision loop (single
     * thread) after every job completion and terminal supervision event,
     * throttled to a few Hz in between. Pure observer. The benches use
     * it to drive the --progress stderr ticker.
     */
    std::function<void(const FleetProgress &)> onProgress;

    /**
     * Populate from the environment: DRS_FLEET_HEARTBEAT /
     * DRS_FLEET_HEARTBEAT_TIMEOUT (seconds), DRS_FLEET_RESPAWNS,
     * DRS_FLEET_QUARANTINE (deaths), DRS_FLEET_BACKOFF (seconds),
     * DRS_TRACE (tracePath), plus ChaosConfig::fromEnvironment.
     * Malformed values warn on stderr and keep the default (obs/env.h).
     * `workers` is the caller's (the benches' --fleet / DRS_FLEET).
     */
    static FleetOptions fromEnvironment();
};

/** One live-progress snapshot (FleetOptions::onProgress). */
struct FleetProgress
{
    std::size_t jobsTotal = 0;
    std::size_t jobsDone = 0;     ///< terminal jobs, incl. failures
    std::size_t jobsInflight = 0;
    std::size_t jobsFailed = 0;   ///< quarantined / degraded / cancelled
    int workersAlive = 0;
    int workersRunning = 0;       ///< alive workers holding a job
    int workerDeaths = 0;
    int degraded = 0;
    double elapsedSeconds = 0.0;
    /** EWMA-based remaining-time estimate; < 0 = unknown yet. */
    double etaSeconds = -1.0;
};

/**
 * Worker-side resource telemetry aggregated by the coordinator
 * (protocol Telemetry frames, one per finished job). CPU seconds and
 * peak RSS come from getrusage(RUSAGE_SELF) in the worker, so they are
 * per-process cumulative values: the coordinator keeps each worker's
 * latest sample and sums across workers at the end of the run.
 */
struct FleetTelemetry
{
    /** Telemetry frames received (a worker killed between its Result
     * and Telemetry writes loses the digest, so this may trail the
     * accepted-result count). */
    std::uint64_t frames = 0;
    /** Jobs covered by a received digest. */
    std::uint64_t jobsReported = 0;
    /** Simulated cycles summed over reported jobs. */
    std::uint64_t cycles = 0;
    /** Rays traced summed over reported jobs. */
    std::uint64_t raysTraced = 0;
    /** Simulation wall-clock summed over reported jobs (seconds). */
    double jobSeconds = 0.0;
    /** User CPU seconds summed across workers (latest sample each). */
    double userCpuSeconds = 0.0;
    /** System CPU seconds summed across workers (latest sample each). */
    double sysCpuSeconds = 0.0;
    /** Max peak RSS over all workers (KiB, ru_maxrss). */
    std::uint64_t peakRssKb = 0;
    /** Worst observed heartbeat-loop overrun (microseconds). */
    std::uint64_t maxHeartbeatLagMicros = 0;
};

/** Supervision counters for one FleetCoordinator::run. */
struct FleetSummary
{
    /** Target fleet size (FleetOptions::workers). */
    int workers = 0;
    /** Worker processes forked, including replacements. */
    int spawned = 0;
    /** Replacement workers forked after a death. */
    int respawned = 0;
    /** Worker processes that exited without being asked to. */
    int workerDeaths = 0;
    /** Workers SIGKILLed for missing their heartbeat deadline. */
    int heartbeatKills = 0;
    /** Job re-dispatches after a worker death. */
    int redispatched = 0;
    /** Jobs quarantined for killing quarantineDeaths workers. */
    int quarantined = 0;
    /**
     * Jobs reported failed because the fleet ran out of workers (respawn
     * budget spent) before they could run. Non-zero marks the bench
     * report degraded.
     */
    int degradedJobs = 0;
    /** True when the run was stopped by SIGTERM/SIGINT or a token. */
    bool cancelled = false;
    /** Aggregated worker resource telemetry. */
    FleetTelemetry telemetry{};
};

/**
 * Summary as the bench reports' "summary.fleet" object (schema v4 adds
 * the nested "telemetry" section).
 */
obs::Json fleetSummaryJson(const FleetSummary &summary);

/**
 * Coordinator endpoint of the fleet. Owns the worker processes, the
 * pipe protocol (fleet/protocol.h), the supervision loop and the job
 * journal. Not reentrant: one run() at a time, and run() installs
 * SIGTERM/SIGINT/SIGPIPE dispositions for its duration (restored on
 * return).
 */
class FleetCoordinator
{
  public:
    /**
     * @param scale  experiment scale forwarded to every worker's runner
     * @param sweep  robustness policy. fault / watchdog / timeouts /
     *               retry knobs apply inside each worker exactly as in
     *               a single-process sweep (that is the bit-identity
     *               contract); journalPath / resume / crashAfter are
     *               honoured by the coordinator, which is the only
     *               journal writer; cancel (if set) stops the fleet.
     * @param options fleet supervision policy
     */
    FleetCoordinator(const harness::ExperimentScale &scale,
                     const harness::SweepOptions &sweep,
                     const FleetOptions &options);

    /**
     * Execute @p jobs across the fleet and return results in grid
     * order, exactly as SweepRunner::run() would. Jobs replayed from a
     * --resume journal are not re-run. Prints a one-line fleet summary
     * to stdout.
     */
    std::vector<harness::SweepResult> run(std::vector<harness::SweepJob> jobs);

    /** Counters of the last run(). */
    const FleetSummary &summary() const { return summary_; }

    const FleetOptions &options() const { return options_; }

  private:
    harness::ExperimentScale scale_;
    harness::SweepOptions sweep_;
    FleetOptions options_;
    FleetSummary summary_{};
};

} // namespace drs::fleet
