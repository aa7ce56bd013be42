#pragma once

/**
 * @file
 * Chaos harness for the fleet: seeded, deterministic worker-killing.
 * The point of a supervised multi-process sweep is that worker death is
 * a routine event; this module makes death routine on demand so the
 * recovery path is exercised constantly, with the acceptance bar that
 * chaos never changes merged results — only wall-clock.
 *
 * Two injection styles:
 *
 *  - Random kills (DRS_FLEET_CHAOS=<seed>): on each job dispatch the
 *    worker rolls mixSeed(seed, job, dispatch) against killRate and, on
 *    a hit, arms a detached thread that SIGKILLs the worker process
 *    after a seeded random delay — mid-simulation at an arbitrary
 *    cycle, mid-result-write, or while idle, whatever the timing lands
 *    on. Rolls only fire while dispatch <= maxKillDispatches, so every
 *    job is guaranteed to eventually run on a dispatch with no kill
 *    scheduled and the fleet always converges to the clean-run results.
 *
 *  - Targeted hooks (tests): killJobEveryDispatch SIGKILLs the worker
 *    synchronously on every claim of one job (drives quarantine);
 *    hangJobFirstDispatch wedges the worker — heartbeats stop, the
 *    claim never completes — on the first dispatch of one job (drives
 *    the heartbeat-timeout re-dispatch path); hangEveryClaim wedges
 *    every worker on any claim (drives the cancelled-fleet orphan
 *    reaping path).
 *
 * The decision is a pure function of (seed, job, dispatch): which
 * dispatches die is reproducible run to run, while the wall-clock kill
 * point still lands at an effectively random simulated cycle.
 */

#include <cstddef>
#include <cstdint>

namespace drs::fleet {

struct ChaosConfig
{
    /** Master seed; 0 disables random kills (targeted hooks still work). */
    std::uint64_t seed = 0;
    /** Kill probability per (job, dispatch) roll. */
    double killRate = 0.5;
    /**
     * Random kills only roll while dispatch <= this, so re-dispatches
     * eventually run kill-free and the sweep converges.
     */
    int maxKillDispatches = 2;
    /** Upper bound on the armed kill delay (microseconds). */
    std::uint32_t maxKillDelayMicros = 20'000;

    /** Test hook: SIGKILL on every dispatch of this job (-1 = off). */
    int killJobEveryDispatch = -1;
    /** Test hook: wedge on the first dispatch of this job (-1 = off). */
    int hangJobFirstDispatch = -1;
    /** Test hook: wedge on every claim (cancelled-fleet orphan tests). */
    bool hangEveryClaim = false;

    bool enabled() const
    {
        return seed != 0 || killJobEveryDispatch >= 0 ||
               hangJobFirstDispatch >= 0 || hangEveryClaim;
    }

    /**
     * DRS_FLEET_CHAOS (unsigned 64-bit seed; 0/unset = off),
     * DRS_FLEET_CHAOS_RATE (kill probability in [0, 1]),
     * DRS_FLEET_CHAOS_KILLS (max kill dispatches, [0, 10^6]). Malformed
     * values warn on stderr and are ignored (obs/env.h).
     */
    static ChaosConfig fromEnvironment();
};

/** What one claimed dispatch should do to its worker. */
struct ChaosPlan
{
    /** SIGKILL the worker process. */
    bool kill = false;
    /** Delay before the kill fires (0 = synchronous, before the job). */
    std::uint32_t delayMicros = 0;
    /** Wedge: stop heartbeats and never finish the claim. */
    bool hang = false;

    bool armed() const { return kill || hang; }
};

/** Deterministic plan for one (job, dispatch) claim. */
ChaosPlan chaosPlanFor(const ChaosConfig &config, std::size_t job,
                       int dispatch);

} // namespace drs::fleet
