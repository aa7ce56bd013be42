#pragma once

/**
 * @file
 * One streaming multiprocessor (SMX): warps, greedy-then-oldest warp
 * schedulers with dual issue, the per-SMX memory path, and the hook points
 * for ray-management hardware (rdctrl interception). This is the heart of
 * the GPGPU-Sim substitute.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/attribution.h"
#include "obs/counters.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "simt/check.h"
#include "simt/config.h"
#include "simt/controller.h"
#include "simt/kernel.h"
#include "simt/memory.h"
#include "simt/sim_stats.h"
#include "simt/warp.h"

namespace drs::simt {

/**
 * The engine and observer attach points every SMX-like executor shares
 * (Smx, baselines::TbcSmx): runGpuUnits wires them identically for both.
 * Each executor arms its own fault sites in setFault().
 *
 * Both executors run one memory mode: step() resolves a warp access
 * against the private L1s and buffers its shared-side (L2/DRAM) half;
 * commitMemory() must follow every step() (serially, in SMX-index order
 * across the GPU, as runEngine and run() do) to play those requests and
 * release the waiting warps. A warp never observes its own memory
 * latency within the cycle that issued the access.
 */
class SmxHooks
{
  public:
    /**
     * Attach an issue-slot attribution ledger (nullptr = off, the
     * default). Must be enabled for schedulersPerSmx x
     * issuesPerScheduler slots per cycle. Pure observation: every slot
     * of every cycle is classified (DESIGN.md §9) but scheduling never
     * reads the ledger, so SimStats are bit-identical either way.
     */
    void setAttribution(obs::IssueAttribution *attribution)
    {
        attribution_ = attribution;
    }

    /**
     * Attach a windowed time-series sampler (nullptr = off, the
     * default). Pure observation, like the tracer.
     */
    void setSampler(obs::TimeSampler *sampler) { sampler_ = sampler; }

    /**
     * Attach an invariant checker (nullptr = off, the default). Checking
     * is pure observation — SimStats are bit-identical either way — but
     * every violation throws out of step()/collectStats().
     */
    void setCheck(const CheckContext *check) { check_ = check; }

  protected:
    /**
     * The executor-independent tail of collectStats: bridges the L1
     * caches and the fault tallies into stats.counters, then, under a
     * checker, runs the stats invariants and the attribution ledger's
     * conservation checks.
     */
    void finishStats(SimStats &stats) const;

    const CheckContext *check_ = nullptr;
    fault::FaultInjector *fault_ = nullptr;
    obs::IssueAttribution *attribution_ = nullptr;
    obs::TimeSampler *sampler_ = nullptr;
};

/**
 * A simulated SMX executing one kernel with a fixed set of resident warps
 * (persistent-threads style, as in the paper's setup: Aila's kernel spawns
 * 48 warps, the DRS Kernel 1 spawns 60).
 */
class Smx : public SmxHooks
{
  public:
    /**
     * @param config GPU configuration (Table 1)
     * @param kernel kernel bound to this SMX (owns its ray pool/rows)
     * @param controller ray-management hardware, or nullptr for baseline
     * @param num_warps resident warps
     * @param shared GPU-wide L2/DRAM side
     */
    Smx(const GpuConfig &config, Kernel &kernel, WarpController *controller,
        int num_warps, SharedMemorySide &shared);

    /** True when every warp has exited. */
    bool done() const;

    /** Advance one core cycle. */
    void step();

    /** Commit this cycle's buffered shared-side requests (see SmxHooks). */
    void commitMemory();

    /** Current cycle count. */
    std::uint64_t cycle() const { return cycle_; }

    /**
     * Run to completion alone (step() then commitMemory() per cycle),
     * bounding runaway simulations.
     */
    void run(std::uint64_t max_cycles = ~0ULL);

    /** Statistics gathered so far (cache stats included). */
    SimStats collectStats() const;

    /** Shuffle-side RF access/swap counters, added by the controller. */
    void addShuffleRfAccesses(std::uint64_t n) { shuffleRfAccesses_.add(n); }
    void recordRaySwap(std::uint64_t duration_cycles)
    {
        raySwapsCompleted_.add();
        raySwapCycles_.add(duration_cycles);
        if (tracer_ && tracer_->enabled())
            tracer_->record(obs::TraceEventKind::RaySwap, -1,
                            cycle_ >= duration_cycles
                                ? cycle_ - duration_cycles
                                : 0,
                            cycle_);
    }
    void addSpawnConflictCycles(std::uint64_t n)
    {
        spawnConflictCycles_.add(n);
    }

    /**
     * This SMX's observability counter registry ("smx.*" names). The
     * controller and tests may register additional counters; see
     * obs::Counters for the single-stepping-worker contract.
     */
    obs::Counters &counters() { return counters_; }

    /**
     * Attach a cycle-level event tracer (nullptr = off, the default).
     * Tracing is pure observation: SimStats are identical either way.
     */
    void setTracer(obs::Tracer *tracer) { tracer_ = tracer; }

    /**
     * Attach a fault injector (nullptr = off, the default). Arms this
     * SMX's private fault sites: L1 tag corruption and — via the
     * controller — ray-payload bit flips at swap boundaries. Shared-side
     * (L2/DRAM) faults are armed separately on the SharedMemorySide so
     * their RNG stream is only advanced at the commit barrier.
     */
    void setFault(fault::FaultInjector *fault);

    /**
     * Monotone forward-progress measure for the watchdog: completed rays
     * plus exited warps. While the SMX is not done() this must eventually
     * grow; a stuck value over a large cycle budget means livelock.
     */
    std::uint64_t progressCount() const;

    /**
     * Append a human-readable dump of this SMX's architectural state
     * (warp PCs/rows/stalls/IPDOM stacks, pending deferred accesses, the
     * controller's row ownership) to @p out — the watchdog's diagnostic.
     */
    void describeState(std::ostream &out) const;

    const std::vector<Warp> &warps() const { return warps_; }

  private:
    /** True when @p warp is live and not waiting out a latency. */
    bool ready(const Warp &warp) const
    {
        return !warp.exited() && warp.readyCycle <= cycle_;
    }

    /** Try to issue up to the dual-issue width from a ready warp. */
    int issueFromWarp(Warp &warp, int max_issues);

    /** A block's instructions finished issuing: run semantics. */
    void completeBlock(Warp &warp);

    /** Handle the rdctrl handshake; returns false when the warp stalls. */
    bool resolveRdctrl(Warp &warp);

    /**
     * Recount the exited and rdctrl-stalled warps against the maintained
     * counts (the periodic DRS_CHECK deep check); throws
     * std::logic_error on a mismatch.
     */
    void verifyWarpCounts() const;

    /**
     * Charge scheduler @p scheduler's @p slots unissued slots of this
     * cycle to one stall bucket, blamed on the oldest culprit warp of
     * its partition (attribution enabled only).
     */
    void attributeUnissued(int scheduler, int slots);

    const GpuConfig &config_;
    Kernel &kernel_;
    WarpController *controller_;
    SmxMemory memory_;
    std::vector<Warp> warps_;
    /** Warps that have exited (done() when it reaches warps_.size()). */
    std::size_t exitedWarps_ = 0;
    /** Live warps currently stalled on rdctrl. */
    std::uint64_t stalledWarps_ = 0;
    /** Last warp each scheduler issued from (greedy policy). */
    std::vector<int> lastIssued_;
    std::uint64_t cycle_ = 0;

    stats::ActiveThreadHistogram histogram_;

    /**
     * Observability counters (the ad-hoc scalar fields of earlier
     * revisions live here now). Handles are registered once in the
     * constructor; the hot path increments through stable references.
     */
    obs::Counters counters_;
    obs::Counter &rdctrlIssued_;
    obs::Counter &rdctrlStalledIssues_;
    obs::Counter &rdctrlStallCycles_;
    obs::Counter &normalRfAccesses_;
    obs::Counter &shuffleRfAccesses_;
    obs::Counter &raySwapsCompleted_;
    obs::Counter &raySwapCycles_;
    obs::Counter &spawnConflictCycles_;
    obs::Counter &issueIdleCycles_;

    obs::Tracer *tracer_ = nullptr;

    /** Per-block {instructions, active-thread sum} (see SimStats). */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> blockIssue_;

    // Scratch reused across completeBlock calls.
    std::vector<int> nextBlocks_;
    std::vector<std::uint64_t> memAddresses_;

    /** L1-resolved accesses awaiting their commit, by warp id. */
    DeferredAccessQueue<int> deferredAccesses_;
};

} // namespace drs::simt
