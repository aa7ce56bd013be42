#include "baselines/tbc_smx.h"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <stdexcept>
#include <unordered_set>

#include "simt/engine.h"

namespace drs::baselines {

using simt::Program;
using simt::ThreadStep;

namespace {

constexpr std::uint64_t kRfAccessesPerInstruction = 3;

} // namespace

TbcSmx::TbcSmx(const simt::GpuConfig &config, const TbcConfig &tbc,
               kernels::AilaKernel &kernel, simt::SharedMemorySide &shared)
    : config_(config),
      tbc_(tbc),
      kernel_(kernel),
      memory_(config.memory, shared),
      lastIssuedBlock_(static_cast<std::size_t>(config.schedulersPerSmx),
                       -1),
      normalRfAccesses_(counters_.get("smx.rf.normal_accesses")),
      syncStallCycles_(counters_.get("tbc.sync_stall_cycles"))
{
    if (tbc.numWarps % tbc.warpsPerBlock != 0)
        throw std::invalid_argument(
            "TBC: numWarps must be a multiple of warpsPerBlock");
    if (config.simdLanes < 1 || config.simdLanes > 32)
        throw std::invalid_argument(
            "TBC: simdLanes must be in [1, 32] (warps hold 32 lanes)");

    const int num_blocks = tbc.numWarps / tbc.warpsPerBlock;
    const int lanes = config.simdLanes;
    blocks_.resize(static_cast<std::size_t>(num_blocks));
    for (int b = 0; b < num_blocks; ++b) {
        ThreadBlock &block = blocks_[static_cast<std::size_t>(b)];
        BlockEntry entry;
        entry.pc = 0;
        entry.rpc = kernel.program().exitBlock();
        for (int w = 0; w < tbc.warpsPerBlock; ++w) {
            CompactedWarp warp;
            const int row = b * tbc.warpsPerBlock + w;
            for (int lane = 0; lane < lanes; ++lane)
                warp.lanes[static_cast<std::size_t>(lane)] = {row, lane};
            warp.active = lanes;
            entry.warps.push_back(warp);
        }
        block.stack.push_back(std::move(entry));
        block.nextBlocks.assign(
            static_cast<std::size_t>(tbc.numWarps) * lanes, -1);
        armTop(block);
    }
    memAddresses_.reserve(static_cast<std::size_t>(lanes));
}

int
TbcSmx::threadSlotIndex(const ThreadRef &t) const
{
    return t.row * config_.simdLanes + t.lane;
}

void
TbcSmx::compactInto(int target, std::vector<CompactedWarp> &warps) const
{
    std::array<std::size_t, kMaxLanes> depth{};
    warps.clear();
    for (const RoutedThread &routed : routed_) {
        if (routed.next != target)
            continue;
        const auto lane = static_cast<std::size_t>(routed.thread.lane);
        if (depth[lane] == warps.size())
            warps.emplace_back();
        CompactedWarp &warp = warps[depth[lane]++];
        warp.lanes[lane] = routed.thread;
        ++warp.active;
    }
}

void
TbcSmx::popEntry(ThreadBlock &block)
{
    spareEntries_.push_back(std::move(block.stack.back()));
    block.stack.pop_back();
}

TbcSmx::BlockEntry &
TbcSmx::pushEntry(ThreadBlock &block, int pc, int rpc)
{
    if (spareEntries_.empty()) {
        block.stack.emplace_back();
    } else {
        block.stack.push_back(std::move(spareEntries_.back()));
        spareEntries_.pop_back();
    }
    BlockEntry &entry = block.stack.back();
    entry.pc = pc;
    entry.rpc = rpc;
    return entry;
}

void
TbcSmx::armTop(ThreadBlock &block)
{
    BlockEntry &top = block.stack.back();
    const int count = kernel_.program().block(top.pc).instructionCount;
    for (auto &warp : top.warps) {
        warp.remainingInstructions = count;
        warp.semanticsDone = false;
        warp.readyCycle = cycle_;
    }
    block.pendingWarps = static_cast<int>(top.warps.size());
}

void
TbcSmx::completeWarp(ThreadBlock &block, CompactedWarp &warp)
{
    BlockEntry &top = block.stack.back();
    const simt::Block &blk = kernel_.program().block(top.pc);

    memAddresses_.clear();
    std::uint32_t bytes = 0;
    for (int lane = 0; lane < config_.simdLanes; ++lane) {
        const ThreadRef &t = warp.lanes[static_cast<std::size_t>(lane)];
        if (t.row < 0)
            continue;
        const ThreadStep step = kernel_.execute(top.pc, t.row, t.lane);
        block.nextBlocks[static_cast<std::size_t>(threadSlotIndex(t))] =
            step.nextBlock;
        if (blk.memSpace != simt::MemSpace::None && step.memBytes > 0) {
            memAddresses_.push_back(step.memAddress);
            bytes = step.memBytes;
        }
    }
    if (!memAddresses_.empty()) {
        auto &deferred = deferredAccesses_.push();
        deferred.waiter = &warp;
        deferred.issueCycle = cycle_;
        memory_.resolveL1(blk.memSpace, memAddresses_, bytes,
                          deferred.pending);
    }
    warp.semanticsDone = true;
    --block.pendingWarps;
}

void
TbcSmx::commitMemory()
{
    for (const auto &d : deferredAccesses_.entries())
        d.waiter->readyCycle = d.issueCycle + memory_.commitAccess(d.pending);
    deferredAccesses_.clear();
}

void
TbcSmx::finishEntry(ThreadBlock &block)
{
    const Program &prog = kernel_.program();
    BlockEntry &top = block.stack.back();

    // Route every thread of the entry by its buffered successor and
    // collect the distinct successors, ascending.
    routed_.clear();
    targets_.clear();
    for (const auto &warp : top.warps) {
        for (int lane = 0; lane < config_.simdLanes; ++lane) {
            const ThreadRef &t = warp.lanes[static_cast<std::size_t>(lane)];
            if (t.row < 0)
                continue;
            const int next = block.nextBlocks[static_cast<std::size_t>(
                threadSlotIndex(t))];
            routed_.push_back(RoutedThread{next, t});
            if (std::find(targets_.begin(), targets_.end(), next) ==
                targets_.end())
                targets_.push_back(next);
        }
    }
    assert(!targets_.empty());
    std::sort(targets_.begin(), targets_.end());

    if (targets_.size() == 1) {
        const int next = targets_.front();
        if (next == top.rpc) {
            if (block.stack.size() > 1) {
                popEntry(block);
            } else {
                top.pc = next;
            }
        } else {
            top.pc = next;
            // Straight-line continuation: recompact anyway, which merges
            // holes left by threads that reached the reconvergence point.
            compactInto(next, compacted_);
            top.warps.swap(compacted_);
        }
    } else {
        // Block-wide divergence: barrier + compaction.
        const int rpc = prog.immediatePostDominator(top.pc);
        top.pc = rpc;
        for (const int next : targets_) {
            if (next == rpc)
                continue;
            compactInto(next, pushEntry(block, next, rpc).warps);
        }
        block.barrierUntil = cycle_ + static_cast<std::uint64_t>(
                                          tbc_.syncLatency);
        syncStallCycles_.add(static_cast<std::uint64_t>(tbc_.syncLatency));
    }

    while (block.stack.size() > 1 &&
           block.stack.back().pc == block.stack.back().rpc)
        popEntry(block);

    if (block.stack.size() == 1 &&
        block.stack.back().pc == prog.exitBlock()) {
        block.exited = true;
        ++exitedBlocks_;
        return;
    }
    armTop(block);
}

int
TbcSmx::issueFromBlock(ThreadBlock &block, int max_issues)
{
    if (block.exited || block.barrierUntil > cycle_)
        return 0;

    BlockEntry &top = block.stack.back();
    const simt::Block &blk = kernel_.program().block(top.pc);

    // Issue from the first warp that still has instructions.
    for (auto &warp : top.warps) {
        if (warp.semanticsDone || warp.readyCycle > cycle_ ||
            warp.remainingInstructions <= 0)
            continue;
        const int active = warp.active;
        int issued = 0;
        while (issued < max_issues && warp.remainingInstructions > 0) {
            histogram_.recordInstruction(active, blk.spawnRelated);
            normalRfAccesses_.add(kRfAccessesPerInstruction);
            --warp.remainingInstructions;
            ++issued;
            if (attribution_)
                attribution_->record(active == config_.simdLanes
                                         ? obs::SlotBucket::IssuedFull
                                         : obs::SlotBucket::IssuedPartial,
                                     blk.phase);
        }
        if (warp.remainingInstructions == 0)
            completeWarp(block, warp);
        return issued;
    }

    return 0;
}

void
TbcSmx::verifyInvariants() const
{
    const Program &prog = kernel_.program();
    const int lanes = config_.simdLanes;

    for (std::size_t b = 0; b < blocks_.size(); ++b) {
        const ThreadBlock &block = blocks_[b];
        if (block.stack.empty())
            throw std::logic_error("TBC: empty block stack");
        if (block.stack.front().rpc != prog.exitBlock())
            throw std::logic_error(
                "TBC: bottom stack entry does not reconverge at exit");

        const int first_row = static_cast<int>(b) * tbc_.warpsPerBlock;
        const int last_row = first_row + tbc_.warpsPerBlock;

        // Per-entry thread sets (home slot indices) for the subset and
        // disjointness checks below.
        std::vector<std::unordered_set<int>> entry_threads;
        entry_threads.reserve(block.stack.size());

        for (const BlockEntry &entry : block.stack) {
            if (entry.pc < 0 || entry.pc >= prog.blockCount() ||
                entry.rpc < 0 || entry.rpc >= prog.blockCount())
                throw std::logic_error("TBC: stack pc/rpc out of range");
            std::unordered_set<int> threads;
            for (const CompactedWarp &warp : entry.warps) {
                int active = 0;
                for (int lane = 0; lane < kMaxLanes; ++lane) {
                    const ThreadRef &t =
                        warp.lanes[static_cast<std::size_t>(lane)];
                    if (t.row < 0)
                        continue;
                    ++active;
                    if (lane >= lanes)
                        throw std::logic_error(
                            "TBC: thread beyond the warp width");
                    // Per-lane compaction: a thread can only occupy its
                    // own home lane in any warp it is compacted into.
                    if (t.lane != lane)
                        throw std::logic_error(
                            "TBC: thread compacted into a foreign lane");
                    if (t.row < first_row || t.row >= last_row)
                        throw std::logic_error(
                            "TBC: thread from another block's rows");
                    if (!threads.insert(threadSlotIndex(t)).second)
                        throw std::logic_error(
                            "TBC: thread appears twice in one entry");
                }
                if (active != warp.active)
                    throw std::logic_error(
                        "TBC: cached active count disagrees with the lanes");
            }
            entry_threads.push_back(std::move(threads));
        }

        if (!block.exited) {
            int pending = 0;
            for (const CompactedWarp &warp : block.stack.back().warps)
                pending += warp.semanticsDone ? 0 : 1;
            if (pending != block.pendingWarps)
                throw std::logic_error(
                    "TBC: pending-warp count disagrees with the top entry");
        }

        // Child entries reconverge at their parent's pc (the parent is
        // parked there while children run); siblings of one parent hold
        // pairwise-disjoint subsets of the parent's threads. The entry
        // below is the parent iff its pc is this entry's rpc (non-top
        // entries never advance, and children are never created sitting
        // on their rpc, so this is unambiguous); otherwise it must be a
        // sibling and the parent is inherited.
        std::vector<std::size_t> parent_of(block.stack.size(), 0);
        for (std::size_t i = 1; i < block.stack.size(); ++i) {
            const BlockEntry &entry = block.stack[i];
            const BlockEntry &prev = block.stack[i - 1];
            std::size_t parent;
            if (prev.pc == entry.rpc) {
                parent = i - 1;
            } else if (prev.rpc == entry.rpc) {
                parent = parent_of[i - 1];
            } else {
                throw std::logic_error(
                    "TBC: stack entry reconverges at an unrelated block");
            }
            parent_of[i] = parent;
            for (const int slot : entry_threads[i]) {
                if (entry_threads[parent].count(slot) == 0)
                    throw std::logic_error(
                        "TBC: child entry holds a thread its parent lacks");
                for (std::size_t j = parent + 1; j < i; ++j)
                    if (parent_of[j] == parent &&
                        entry_threads[j].count(slot) != 0)
                        throw std::logic_error(
                            "TBC: sibling entries share a thread");
            }
        }
    }
}

void
TbcSmx::step()
{
    const int per_scheduler = config_.issuesPerScheduler();
    const int schedulers = config_.schedulersPerSmx;

    if (check_ != nullptr && (cycle_ & 1023u) == 0) {
        verifyInvariants();
        check_->checkMemory(memory_);
        check_->checkKernel(kernel_);
    }

    // Barrier maintenance: an entry whose warps have all completed (and
    // waited out their memory latency) partitions and compacts, whether
    // or not a scheduler visits the block this cycle. Blocks with warps
    // still to run are skipped on their pending count.
    for (auto &block : blocks_) {
        if (block.exited || block.pendingWarps > 0 ||
            block.barrierUntil > cycle_)
            continue;
        bool all_ready = true;
        for (const auto &warp : block.stack.back().warps)
            all_ready = all_ready && warp.readyCycle <= cycle_;
        if (all_ready)
            finishEntry(block);
    }

    for (int s = 0; s < schedulers; ++s) {
        // Greedy-then-oldest over this scheduler's block partition.
        const int last = lastIssuedBlock_[static_cast<std::size_t>(s)];
        int issued = 0;
        if (last >= 0)
            issued = issueFromBlock(blocks_[static_cast<std::size_t>(last)],
                                    per_scheduler);
        if (issued == 0) {
            for (std::size_t b = static_cast<std::size_t>(s);
                 b < blocks_.size();
                 b += static_cast<std::size_t>(schedulers)) {
                issued = issueFromBlock(blocks_[b], per_scheduler);
                if (issued > 0) {
                    lastIssuedBlock_[static_cast<std::size_t>(s)] =
                        static_cast<int>(b);
                    break;
                }
            }
        }
        if (attribution_)
            attributeUnissued(s, per_scheduler - issued);
    }

    // Close the attribution/sampling cycle last (see simt::Smx::step).
    if (attribution_)
        attribution_->endCycle();
    if (sampler_)
        sampler_->tick(histogram_.instructions(), histogram_.activeThreads(),
                       kernel_.raysCompleted());

    ++cycle_;
}

void
TbcSmx::attributeUnissued(int scheduler, int slots)
{
    if (slots <= 0)
        return;

    // Blame the first culprit block of this scheduler's partition, in
    // partition order (deterministic). The TBC-specific stall is the
    // block-wide divergence barrier, charged to stalled-scoreboard; a
    // block whose compacted warps wait on memory is stalled-memory.
    const ThreadBlock *barrier = nullptr;
    const ThreadBlock *memory = nullptr;
    const ThreadBlock *live = nullptr;
    for (std::size_t b = static_cast<std::size_t>(scheduler);
         b < blocks_.size();
         b += static_cast<std::size_t>(config_.schedulersPerSmx)) {
        const ThreadBlock &block = blocks_[b];
        if (block.exited)
            continue;
        if (live == nullptr)
            live = &block;
        if (block.barrierUntil > cycle_) {
            if (barrier == nullptr)
                barrier = &block;
        } else if (memory == nullptr) {
            for (const auto &warp : block.stack.back().warps) {
                if (warp.readyCycle > cycle_) {
                    memory = &block;
                    break;
                }
            }
        }
    }

    obs::SlotBucket bucket = obs::SlotBucket::Drained;
    const ThreadBlock *blame = nullptr;
    if (live == nullptr) {
        bucket = obs::SlotBucket::Drained;
    } else if (barrier != nullptr) {
        bucket = obs::SlotBucket::StalledScoreboard;
        blame = barrier;
    } else if (memory != nullptr) {
        bucket = obs::SlotBucket::StalledMemory;
        blame = memory;
    } else {
        bucket = obs::SlotBucket::NoReadyWarp;
        blame = live;
    }
    const obs::TravPhase phase =
        blame != nullptr
            ? kernel_.program().block(blame->stack.back().pc).phase
            : obs::TravPhase::None;
    attribution_->record(bucket, phase, static_cast<std::uint64_t>(slots));
}

void
TbcSmx::run(std::uint64_t max_cycles)
{
    while (!done() && cycle_ < max_cycles) {
        step();
        commitMemory();
    }
    if (!done())
        throw std::runtime_error("TBC simulation exceeded max_cycles");
}

simt::SimStats
TbcSmx::collectStats() const
{
    simt::SimStats s;
    s.cycles = cycle_;
    s.histogram = histogram_;
    s.raysTraced = kernel_.raysCompleted();
    s.rfAccessesNormal = normalRfAccesses_.value();
    s.l1Data = memory_.l1DataStats();
    s.l1Texture = memory_.l1TextureStats();
    s.counters = counters_.snapshot();
    finishStats(s);
    return s;
}

void
TbcSmx::setFault(fault::FaultInjector *fault)
{
    fault_ = fault;
    memory_.setFault(fault);
}

std::uint64_t
TbcSmx::progressCount() const
{
    return kernel_.raysCompleted() + exitedBlocks_;
}

void
TbcSmx::describeState(std::ostream &out) const
{
    out << "  cycle=" << cycle_ << " raysCompleted="
        << kernel_.raysCompleted() << '\n';
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
        const ThreadBlock &block = blocks_[b];
        out << "  block " << b;
        if (block.exited) {
            out << " exited\n";
            continue;
        }
        out << " stackDepth=" << block.stack.size();
        if (!block.stack.empty()) {
            const BlockEntry &top = block.stack.back();
            out << " top{pc=" << top.pc << " rpc=" << top.rpc
                << " warps=" << top.warps.size() << '}';
        }
        if (block.barrierUntil > cycle_)
            out << " barrierUntil=" << block.barrierUntil;
        out << '\n';
    }
    if (!deferredAccesses_.entries().empty())
        out << "  pending deferred accesses: "
            << deferredAccesses_.entries().size() << '\n';
}

simt::SimStats
runTbcGpu(const simt::GpuConfig &config, const TbcConfig &tbc,
          const std::function<std::unique_ptr<kernels::AilaKernel>(int)>
              &make_kernel,
          const simt::GpuRunOptions &options)
{
    if (options.trace != nullptr)
        throw std::invalid_argument(
            "runTbcGpu: TBC has no warp-level tracer; pass no trace "
            "collector");
    return simt::runGpuUnits<TbcSmx>(
        config, options, [&](int i, simt::SharedMemorySide &shared) {
            std::unique_ptr<kernels::AilaKernel> kernel = make_kernel(i);
            auto smx = std::make_unique<TbcSmx>(config, tbc, *kernel, shared);
            simt::GpuUnit<TbcSmx> unit;
            unit.setup.kernel = std::move(kernel);
            unit.smx = std::move(smx);
            return unit;
        });
}

} // namespace drs::baselines
