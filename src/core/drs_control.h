#pragma once

/**
 * @file
 * The DRS control logic (paper Section 3): ray state table, warp renaming
 * table, and the greedy ray-swap engine with its three designated rows
 * (fetch-state collecting, leaf-state collecting, inner-state ejecting).
 *
 * Attached to one SMX as its WarpController: it intercepts rdctrl issue,
 * maps warps onto state-uniform rows (possibly stalling them while
 * shuffling is in flight), and moves ray register data between rows
 * through the swap buffers, modeling register-bank contention with the
 * operand collectors.
 *
 * Dispatch rule: a row is dispatchable when its live rays all share one
 * traversal state. Empty (fetch-state) slots are tolerated — rdctrl is a
 * per-thread read, so hole lanes receive FETCH and refill in place when
 * enough of them accumulate; scattered holes are gathered by the
 * fetch-collect shuffle task, exactly the row's purpose in the paper.
 * Rows mixing inner- and leaf-state rays stall the warp until shuffling
 * separates them.
 */

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/drs_config.h"
#include "obs/counters.h"
#include "simt/controller.h"

namespace drs::simt {
class Smx;
}

namespace drs::core {

/** The three shuffle tasks of the greedy swap scheme. */
enum class ShuffleTask
{
    FetchCollect = 0,
    LeafCollect = 1,
    InnerEject = 2,
};

/**
 * Counters exposed for tests and benches. A value snapshot of the
 * control's obs counters ("drs.*" names), which are the source of truth.
 */
struct DrsControlStats
{
    std::uint64_t remaps = 0;          ///< warp-to-new-row mappings
    std::uint64_t stallsStarted = 0;   ///< rdctrl issues that had to wait
    std::uint64_t movesCompleted = 0;  ///< single-ray moves
    std::uint64_t exchangesCompleted = 0; ///< two-ray exchanges
    std::uint64_t idleCycles = 0;      ///< cycles with no shuffle work
};

/**
 * DRS control for one SMX.
 *
 * Lifecycle: construct with the kernel's RowWorkspace, attach() to the
 * Smx, then the Smx drives onRdctrl()/cycle().
 */
class DrsControl : public simt::WarpController
{
  public:
    /**
     * @param config hardware configuration
     * @param workspace the kernel's row-addressed ray state
     * @param num_warps resident warps (N); rows = N + M + 2
     */
    DrsControl(const DrsConfig &config, simt::RowWorkspace &workspace,
               int num_warps);

    void attach(simt::Smx &smx) override { smx_ = &smx; }
    simt::RdctrlResult onRdctrl(int warp) override;
    void cycle(int issued_instructions) override;
    obs::CounterSnapshot countersSnapshot() const override
    {
        return counters_.snapshot();
    }

    /**
     * Renaming-table and swap-engine invariants: warpRow_/rowOwner_ are
     * mutually consistent bijections on the bound pairs (row-ownership
     * exclusivity), in-flight operations only touch unbound rows with
     * in-range lanes and positive remaining work, each row's lock
     * count equals the in-flight operations touching it, and the
     * free-row set holds exactly the unbound, unlocked rows. Throws
     * std::logic_error.
     */
    void verifyInvariants() const override;

    /**
     * Arm swap-boundary fault injection: as each shuffle operation
     * completes, the injector may flip one bit of the destination slot's
     * ray payload — modeling a soft error in the swap buffers while ray
     * registers are in flight between rows. nullptr detaches.
     */
    void setFault(fault::FaultInjector *fault) override { fault_ = fault; }

    /** Row ownership + in-flight operations, for the watchdog dump. */
    void describeState(std::ostream &out) const override;

    /** Row currently renamed to @p warp, or -1 while stalled. */
    int warpRow(int warp) const { return warpRow_.at(warp); }

    DrsControlStats stats() const;

    /** Number of in-flight shuffle operations (tests). */
    int activeOperations() const;

    /**
     * True when @p row is in the free-row set: unbound and unlocked, so
     * the row searches may pick it (tests).
     */
    bool rowFree(int row) const
    {
        return (freeRows_[static_cast<std::size_t>(row) >> 6] >>
                (row & 63)) & 1u;
    }

  private:
    /** One in-flight ray move/exchange. */
    struct Operation
    {
        bool active = false;
        bool isExchange = false;
        int rowA = -1, laneA = -1;
        int rowB = -1, laneB = -1;
        int transfersRemaining = 0; ///< variable read+write pairs left
        int setupRemaining = 0;     ///< fixed op setup cycles left
        std::uint64_t startCycle = 0;
    };

    using RowCensus = simt::RowCensus;

    /** True when the row can be dispatched without divergence stalls. */
    bool dispatchable(const RowCensus &c) const;

    /** Dispatch decision for a dispatchable row. */
    simt::RdctrlResult dispatch(int warp, int row);

    /** Find the best unbound, unlocked, dispatchable row (or -1). */
    int findUniformRow();

    /** Memoized findUniformRow (stalled warps retry every cycle). */
    int cachedUniformRow();

    /**
     * Lowest row >= @p from in the free-row set, or -1. Every row search
     * walks the set with this, in ascending row order.
     */
    int nextFreeRow(int from) const
    {
        std::size_t word = static_cast<std::size_t>(from) >> 6;
        if (word >= freeRows_.size())
            return -1;
        std::uint64_t bits = freeRows_[word] & (~0ULL << (from & 63));
        while (bits == 0) {
            if (++word == freeRows_.size())
                return -1;
            bits = freeRows_[word];
        }
        return static_cast<int>(word * 64) + std::countr_zero(bits);
    }

    /** Re-derive @p row's free bit from rowOwner_ and rowLocks_. */
    void updateFreeRow(int row);

    /** Add @p delta to @p row's lock count (operation start/end). */
    void addRowLock(int row, int delta);

    void bindRow(int warp, int row);
    void unbindWarpRow(int warp);

    /** Pick the next operation for an idle shuffle task. */
    std::optional<Operation> chooseOperation(ShuffleTask task);

    /** Re-select a designated row for @p task if needed. */
    void refreshDesignatedRow(ShuffleTask task);

    void completeOperation(Operation &op);

    /** Idealized mode: consolidate all unbound rows instantly. */
    void idealConsolidate();

    DrsConfig config_;
    simt::RowWorkspace &workspace_;
    simt::Smx *smx_ = nullptr;
    fault::FaultInjector *fault_ = nullptr;
    int numWarps_;
    int rows_;
    int lanes_;

    std::vector<int> warpRow_;    ///< renaming table: warp -> row (-1 none)
    std::vector<int> rowOwner_;   ///< row -> warp (-1 unbound)
    std::array<int, 3> designated_{-1, -1, -1}; ///< per ShuffleTask row
    /**
     * In-flight operations: the swapping request table. Each shuffle
     * task pipelines up to buffersPerTask() concurrent operations (one
     * buffer carries one variable between its read and write cycle).
     */
    std::vector<Operation> ops_;
    int opsPerTask_ = 2;
    std::uint64_t now_ = 0;
    bool dirty_ = true; ///< unbound-row set or contents changed

    /** Per row: in-flight operations touching it. */
    std::vector<int> rowLocks_;

    /**
     * The free-row set, one bit per row: rows that are unbound and
     * unlocked. Updated at every binding and lock-count change;
     * verifyInvariants recounts it.
     */
    std::vector<std::uint64_t> freeRows_;

    /**
     * Last cycle in which an rdctrl found rays still to trace. The drain
     * exit is decided at cycle granularity: once a warp saw work in a
     * cycle, no warp exits before the next one.
     */
    std::uint64_t workSeenCycle_ = ~0ULL;

    // Memoized uniform-row search (see cachedUniformRow()).
    bool uniformCacheValid_ = false;
    int uniformCacheRow_ = -1;

    /** Observability counters ("drs.*"); see obs::Counters. */
    obs::Counters counters_;
    obs::Counter &remaps_;
    obs::Counter &stallsStarted_;
    obs::Counter &movesCompleted_;
    obs::Counter &exchangesCompleted_;
    obs::Counter &swapsCompleted_;
    obs::Counter &idleCycles_;
};

} // namespace drs::core
