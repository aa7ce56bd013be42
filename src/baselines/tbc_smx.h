#pragma once

/**
 * @file
 * Thread Block Compaction baseline (Fung & Aamodt, HPCA 2011), as the
 * paper evaluates it: the Aila while-while kernel runs on thread blocks
 * of 6 warps that share a block-wide reconvergence stack. At a divergent
 * branch all warps of the block synchronize, then threads are compacted
 * into new warps — but a thread can only move to its own SIMD lane in
 * another warp (per-lane compaction), and the block-wide barrier costs
 * synchronization latency. Both limits are the reasons the paper gives
 * for TBC's modest SIMD-efficiency gains.
 */

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fault/fault.h"
#include "kernels/aila_kernel.h"
#include "obs/attribution.h"
#include "obs/counters.h"
#include "obs/sampler.h"
#include "simt/check.h"
#include "simt/config.h"
#include "simt/gpu.h"
#include "simt/memory.h"
#include "simt/sim_stats.h"

namespace drs::baselines {

/** TBC configuration. */
struct TbcConfig
{
    /** Warps per thread block (paper: 6, as in the TBC paper). */
    int warpsPerBlock = 6;
    /** Resident warps per SMX (runs Aila's kernel: 48). */
    int numWarps = 48;
    /** Cycles a block pays at each divergence barrier. */
    int syncLatency = 4;
    kernels::AilaConfig kernelConfig{};
};

/**
 * One SMX executing the while-while kernel under TBC. Self-contained
 * executor (the block-wide stack does not fit the per-warp Smx), sharing
 * the memory system, program and workspace semantics with the rest of
 * the simulator. Of the shared attach points, the checker also verifies
 * block-stack structure periodically, and attribution charges the TBC
 * barrier to the stalled-scoreboard bucket.
 */
class TbcSmx : public simt::SmxHooks
{
  public:
    /**
     * @param config GPU configuration
     * @param tbc TBC parameters
     * @param kernel the Aila kernel instance bound to this SMX
     * @param shared GPU-wide L2/DRAM
     */
    TbcSmx(const simt::GpuConfig &config, const TbcConfig &tbc,
           kernels::AilaKernel &kernel, simt::SharedMemorySide &shared);

    /** Observability counter registry ("tbc.*" / "smx.rf.*" names). */
    obs::Counters &counters() { return counters_; }

    bool done() const { return exitedBlocks_ == blocks_.size(); }
    void step();
    /** Run alone (step() then commitMemory() per cycle) to completion. */
    void run(std::uint64_t max_cycles = 2'000'000'000ULL);
    std::uint64_t cycle() const { return cycle_; }

    /** Commit this cycle's buffered shared-side requests (SmxHooks). */
    void commitMemory();

    /**
     * Block-stack invariants: every stack is non-empty with its bottom
     * entry reconverging at the exit block; pcs/rpcs are valid blocks;
     * compaction is lane-preserving (a thread only ever occupies its home
     * lane); threads stay within their block's rows and appear at most
     * once per entry; child entries reconverge at their parent's pc and
     * hold pairwise-disjoint subsets of the parent's threads. Throws
     * std::logic_error.
     */
    void verifyInvariants() const;

    /**
     * Arm this SMX's private fault sites (L1 tag corruption); shared-side
     * faults are armed on the SharedMemorySide. The TBC has no swap
     * hardware, so it has no payload-corruption site — the same
     * FaultConfig injects strictly fewer fault kinds here, by design.
     */
    void setFault(fault::FaultInjector *fault);

    /** Forward-progress measure: completed rays + exited blocks. */
    std::uint64_t progressCount() const;

    /** Architectural-state dump for the watchdog diagnostic. */
    void describeState(std::ostream &out) const;

    simt::SimStats collectStats() const;

  private:
    /** A thread's permanent identity: its home (row, lane) slot. */
    struct ThreadRef
    {
        int row = -1;
        int lane = -1;
    };

    /** Widest supported warp (lane masks are 32-bit). */
    static constexpr int kMaxLanes = 32;

    /** A compacted warp: per lane, one thread or none. */
    struct CompactedWarp
    {
        /** Per lane (the warp width's first slots); row < 0 = hole. */
        std::array<ThreadRef, kMaxLanes> lanes{};
        /** Threads present, counted when the warp is compacted. */
        int active = 0;
        int remainingInstructions = 0;
        std::uint64_t readyCycle = 0;
        bool semanticsDone = false;
    };

    /** One block-wide reconvergence stack entry. */
    struct BlockEntry
    {
        int pc = 0;
        int rpc = 0;
        std::vector<CompactedWarp> warps;
    };

    /** One thread block: 6 warps sharing a stack. */
    struct ThreadBlock
    {
        std::vector<BlockEntry> stack;
        bool exited = false;
        /** Warps of the top entry whose semantics have not run yet. */
        int pendingWarps = 0;
        /** Buffered successor per thread slot, filled at warp completion. */
        std::vector<int> nextBlocks; // indexed row-major over block slots
        std::uint64_t barrierUntil = 0;
    };

    /** A thread of a finishing entry and its buffered successor. */
    struct RoutedThread
    {
        int next = 0;
        ThreadRef thread;
    };

    /**
     * Compact the routed_ threads bound for @p target into @p warps,
     * lane-preserving: the k-th such thread of lane L (in entry order)
     * lands in lane L of warp k.
     */
    void compactInto(int target, std::vector<CompactedWarp> &warps) const;

    /** All warps of the top entry finished: partition and push. */
    void finishEntry(ThreadBlock &block);

    /** Pop @p block's top entry into the spare pool. */
    void popEntry(ThreadBlock &block);

    /** Push an entry onto @p block's stack, reusing a spare one. */
    BlockEntry &pushEntry(ThreadBlock &block, int pc, int rpc);

    /** Arm @p block's top entry to issue its block from this cycle. */
    void armTop(ThreadBlock &block);

    int issueFromBlock(ThreadBlock &block, int max_issues);
    void completeWarp(ThreadBlock &block, CompactedWarp &warp);

    /** Charge scheduler @p scheduler's unissued slots (attribution). */
    void attributeUnissued(int scheduler, int slots);

    int threadSlotIndex(const ThreadRef &t) const;

    const simt::GpuConfig &config_;
    TbcConfig tbc_;
    kernels::AilaKernel &kernel_;
    simt::SmxMemory memory_;
    std::vector<ThreadBlock> blocks_;
    /** Blocks that have exited (done() when it reaches blocks_.size()). */
    std::size_t exitedBlocks_ = 0;
    std::vector<int> lastIssuedBlock_; ///< per scheduler
    std::uint64_t cycle_ = 0;

    stats::ActiveThreadHistogram histogram_;

    /** Observability counters; see obs::Counters. */
    obs::Counters counters_;
    obs::Counter &normalRfAccesses_;
    obs::Counter &syncStallCycles_;

    // Scratch reused across completeWarp/finishEntry calls.
    std::vector<std::uint64_t> memAddresses_;
    std::vector<RoutedThread> routed_;
    std::vector<int> targets_; ///< distinct successors, ascending
    std::vector<CompactedWarp> compacted_;
    /** Popped stack entries, kept with their warps' capacity. */
    std::vector<BlockEntry> spareEntries_;

    /**
     * L1-resolved accesses awaiting their commit. The warp pointers stay
     * valid until commitMemory: block stacks are only restructured by
     * finishEntry, which runs at the start of the next step.
     */
    simt::DeferredAccessQueue<CompactedWarp *> deferredAccesses_;
};

/**
 * Run a full ray batch on a TBC GPU (all SMXs, shared L2) through the
 * same assembly as simt::runGpu (simt::runGpuUnits).
 *
 * @param config GPU parameters
 * @param tbc TBC parameters
 * @param make_kernel per-SMX Aila kernel factory
 * @param options engine options; onSmxRetire receives the AilaKernel
 * @throws std::invalid_argument when config.numSmx < 1 or options.trace
 *         is set (TBC has no warp-level tracer)
 */
simt::SimStats runTbcGpu(
    const simt::GpuConfig &config, const TbcConfig &tbc,
    const std::function<std::unique_ptr<kernels::AilaKernel>(int)>
        &make_kernel,
    const simt::GpuRunOptions &options);

} // namespace drs::baselines
