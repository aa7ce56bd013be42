#pragma once

/**
 * @file
 * The cycle-stepping engine shared by the plain GPU (simt::runGpu) and
 * the TBC baseline: sequential and parallel drivers over any SMX-like
 * type exposing done()/step()/commitMemory(), and the one GPU-run
 * assembly (runGpuUnits) both drivers instantiate.
 *
 * Both drivers buffer shared-side (L2/DRAM) requests during a cycle's
 * step phase and commit them afterwards in SMX-index order, so the L2
 * observes one canonical access interleaving no matter how many worker
 * threads step the SMXs. This is what makes the parallel engine's
 * SimStats bit-identical to the sequential engine's (see DESIGN.md,
 * "Parallel execution model").
 */

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/cancel.h"
#include "fault/fault.h"
#include "simt/gpu.h"

namespace drs::simt {

/**
 * Diagnostic dump of every SMX's architectural state, for the watchdog's
 * timeout report.
 */
template <typename SmxLike>
std::string
describeEngineState(const std::vector<SmxLike *> &smxs)
{
    std::ostringstream out;
    for (std::size_t i = 0; i < smxs.size(); ++i) {
        out << "SMX " << i << (smxs[i]->done() ? " (done)" : "") << ":\n";
        smxs[i]->describeState(out);
    }
    return out.str();
}

/**
 * Per-cycle engine policing: forward-progress watchdog and cooperative
 * cancellation. Shared by the sequential driver (called inline) and the
 * parallel driver (called from the barrier completion step). Throws
 * fault::WatchdogTimeout / exec::Cancelled / exec::DeadlineExceeded.
 * The deadline check reads the clock, so it is amortized over 1024-cycle
 * windows; cancellation is a plain atomic load checked every cycle.
 */
template <typename SmxLike>
void
policeCycle(const std::vector<SmxLike *> &smxs, std::uint64_t cycle,
            fault::Watchdog *watchdog, const exec::CancelToken *cancel)
{
    if (watchdog != nullptr && watchdog->enabled()) {
        std::uint64_t progress = 0;
        for (SmxLike *smx : smxs)
            progress += smx->progressCount();
        if (watchdog->observe(cycle, progress))
            throw fault::WatchdogTimeout(cycle, watchdog->budgetCycles(),
                                         describeEngineState(smxs));
    }
    if (cancel != nullptr) {
        if (cancel->cancelled())
            throw exec::Cancelled("simulation cancelled");
        if ((cycle & 1023u) == 0 && cancel->deadlineExpired())
            throw exec::DeadlineExceeded("simulation deadline exceeded");
    }
}

/**
 * Step @p smxs cycle by cycle until all are done.
 *
 * @param smxs SMXs in commit order (index order defines L2 ordering)
 * @param max_cycles safety bound; throws std::runtime_error when exceeded
 * @param threads worker threads; <= 1 runs the sequential driver
 * @param watchdog optional forward-progress watchdog; when it fires the
 *        engine throws fault::WatchdogTimeout carrying a diagnostic dump
 *        of every SMX (IPDOM stacks, row ownership, pending memory ops)
 * @param cancel optional cooperative stop/deadline token
 */
template <typename SmxLike>
void
runEngine(const std::vector<SmxLike *> &smxs, std::uint64_t max_cycles,
          int threads, fault::Watchdog *watchdog = nullptr,
          const exec::CancelToken *cancel = nullptr)
{
    bool all_done = true;
    for (SmxLike *smx : smxs)
        all_done = all_done && smx->done();
    if (all_done)
        return;

    if (threads <= 1 || smxs.size() <= 1) {
        std::uint64_t cycle = 0;
        while (!all_done && cycle < max_cycles) {
            all_done = true;
            for (SmxLike *smx : smxs) {
                if (!smx->done()) {
                    smx->step();
                    all_done = false;
                }
            }
            for (SmxLike *smx : smxs)
                smx->commitMemory();
            ++cycle;
            policeCycle(smxs, cycle, watchdog, cancel);
        }
        if (!all_done)
            throw std::runtime_error("GPU simulation exceeded max_cycles");
        return;
    }

    const int workers = std::min<int>(threads, static_cast<int>(smxs.size()));

    std::atomic<bool> stop{false};
    std::atomic<bool> timed_out{false};
    std::mutex error_mutex;
    std::exception_ptr error;

    // The completion step runs exactly once per cycle, by whichever
    // worker arrives last, strictly between two step phases.
    std::uint64_t cycle = 0;
    auto on_cycle_complete = [&]() noexcept {
        bool done_now = true;
        for (SmxLike *smx : smxs) {
            smx->commitMemory();
            done_now = done_now && smx->done();
        }
        ++cycle;
        if (!done_now && !error) {
            // The completion step is noexcept (a throw through a barrier
            // terminates), so policing failures become the stored engine
            // error like a step() failure would.
            try {
                policeCycle(smxs, cycle, watchdog, cancel);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
            }
        }
        if (done_now || error)
            stop.store(true, std::memory_order_release);
        else if (cycle >= max_cycles) {
            timed_out.store(true, std::memory_order_relaxed);
            stop.store(true, std::memory_order_release);
        }
    };
    std::barrier sync(workers, on_cycle_complete);

    auto worker = [&](int index) {
        while (!stop.load(std::memory_order_acquire)) {
            for (std::size_t i = static_cast<std::size_t>(index);
                 i < smxs.size(); i += static_cast<std::size_t>(workers)) {
                SmxLike *smx = smxs[i];
                if (smx->done())
                    continue;
                try {
                    smx->step();
                } catch (...) {
                    std::lock_guard<std::mutex> lock(error_mutex);
                    if (!error)
                        error = std::current_exception();
                }
            }
            // Workers always reach the barrier, even on error, so nobody
            // deadlocks; the completion step turns the error into a stop.
            sync.arrive_and_wait();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers - 1));
    for (int t = 1; t < workers; ++t)
        pool.emplace_back(worker, t);
    worker(0);
    for (auto &t : pool)
        t.join();

    if (error)
        std::rethrow_exception(error);
    if (timed_out.load())
        throw std::runtime_error("GPU simulation exceeded max_cycles");
}

/** Block names of @p program in block-id order (observer labels). */
inline std::vector<std::string>
blockNames(const Program &program)
{
    std::vector<std::string> names;
    names.reserve(static_cast<std::size_t>(program.blockCount()));
    for (int b = 0; b < program.blockCount(); ++b)
        names.push_back(program.block(b).name);
    return names;
}

/**
 * One SMX of a GPU run: the kernel and optional controller it executes
 * and the SMX-like executor bound to them (declared last, so it is
 * destroyed first).
 */
template <typename SmxLike>
struct GpuUnit
{
    SmxSetup setup;
    std::unique_ptr<SmxLike> smx;
};

/**
 * Run one ray batch on a GPU of SmxLike executors sharing an L2 — the
 * assembly behind simt::runGpu (Smx) and baselines::runTbcGpu (TbcSmx).
 *
 * Builds the shared memory side and the per-unit fault injectors, wires
 * every SMX to the checker, its injector, the attribution ledger and the
 * sampler of @p options, steps them with runEngine, then hands each SMX's
 * stats and kernel to the perSmxStats / onSmxRetire hooks (in index
 * order) and merges the stats with the shared side's "l2.*" and "fault.*"
 * counters.
 *
 * @param make_unit called once per SMX index, in order, as
 *        make_unit(index, shared); returns the unit with its executor
 *        built over @p shared and any executor-specific wiring done
 * @throws std::invalid_argument when config.numSmx < 1
 */
template <typename SmxLike, typename MakeUnit>
SimStats
runGpuUnits(const GpuConfig &config, const GpuRunOptions &options,
            MakeUnit &&make_unit)
{
    if (config.numSmx < 1)
        throw std::invalid_argument("GPU run: numSmx must be >= 1, got " +
                                    std::to_string(config.numSmx));

    SharedMemorySide shared(config.memory);

    // One private injector per SMX plus one for the shared side. The
    // shared injector's RNG only advances from accessLine calls, which
    // the engines issue at the commit barrier in SMX-index order, so its
    // fault sequence is thread-count-invariant like everything else.
    std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
    std::unique_ptr<fault::FaultInjector> sharedInjector;
    if (options.fault.enabled()) {
        injectors.reserve(static_cast<std::size_t>(config.numSmx));
        for (int i = 0; i < config.numSmx; ++i)
            injectors.push_back(std::make_unique<fault::FaultInjector>(
                options.fault, static_cast<std::uint64_t>(i)));
        sharedInjector = std::make_unique<fault::FaultInjector>(
            options.fault,
            static_cast<std::uint64_t>(config.numSmx) + 0x10000u);
        shared.setFault(sharedInjector.get());
    }

    std::vector<GpuUnit<SmxLike>> units;
    units.reserve(static_cast<std::size_t>(config.numSmx));
    for (int i = 0; i < config.numSmx; ++i) {
        GpuUnit<SmxLike> unit = make_unit(i, shared);
        SmxLike &smx = *unit.smx;
        smx.setCheck(options.check);
        if (options.fault.enabled())
            smx.setFault(injectors[static_cast<std::size_t>(i)].get());
        if (options.attribution != nullptr) {
            if (i == 0)
                options.attribution->setBlockNames(
                    blockNames(unit.setup.kernel->program()));
            smx.setAttribution(&options.attribution->smx(i));
        }
        if (options.sampler != nullptr) {
            obs::TimeSampler &sampler = options.sampler->smx(i);
            const obs::SampleConfig &sample = options.sampler->config();
            sampler.enable(sample.interval, sample.capacity,
                           options.attribution != nullptr
                               ? &options.attribution->smx(i)
                               : nullptr);
            smx.setSampler(&sampler);
        }
        units.push_back(std::move(unit));
    }

    std::vector<SmxLike *> smxs;
    smxs.reserve(units.size());
    for (auto &unit : units)
        smxs.push_back(unit.smx.get());
    fault::Watchdog watchdog(options.watchdogCycles);
    runEngine(smxs, options.maxCycles, options.smxThreads,
              watchdog.enabled() ? &watchdog : nullptr, options.cancel);

    SimStats total;
    for (std::size_t i = 0; i < units.size(); ++i) {
        SimStats stats = units[i].smx->collectStats();
        if (options.perSmxStats)
            options.perSmxStats(static_cast<int>(i), stats);
        if (options.onSmxRetire)
            options.onSmxRetire(static_cast<int>(i),
                                *units[i].setup.kernel);
        total.merge(stats);
    }
    total.l2 = shared.l2Stats();
    total.counters.add("l2.access", total.l2.accesses);
    total.counters.add("l2.miss", total.l2.misses);
    if (sharedInjector) {
        const fault::FaultCounters &f = sharedInjector->counters();
        total.counters.add("fault.cache_tag_flips", f.cacheTagFlips);
        total.counters.add("fault.dram_delayed", f.dramDelayed);
        total.counters.add("fault.dram_dropped", f.dramDropped);
    }
    return total;
}

} // namespace drs::simt
