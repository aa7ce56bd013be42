#pragma once

/**
 * @file
 * Shared plumbing of the built-in architecture plugins (arch_builtin.cc,
 * arch_survey.cc, arch_reorder.cc): engine options with the checker and
 * the hit-harvesting retire hook, the striped plain-GPU run, and the Aila
 * run the software reorderers delegate to. A plugin's run() supplies only
 * its per-SMX kernel/controller setup. Internal to src/harness.
 */

#include <algorithm>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>

#include "harness/arch_plugin.h"
#include "kernels/trav_workspace.h"

namespace drs::harness::detail {

/**
 * Scatter hits collected at sorted positions back to original batch
 * indices: out[order[p]] = sorted_hits[p]. A short @p sorted_hits means
 * the inner run dropped rays (a harness bug, not a user error) — fail
 * loudly instead of reading past the end.
 */
inline void
scatterHits(const std::vector<std::uint32_t> &order,
            const std::vector<geom::Hit> &sorted_hits,
            std::vector<geom::Hit> &out)
{
    if (sorted_hits.size() < order.size())
        throw std::logic_error(
            "scatterHits: inner run produced " +
            std::to_string(sorted_hits.size()) + " hits for a " +
            std::to_string(order.size()) +
            "-ray permutation (rays were dropped)");
    if (out.size() < order.size())
        out.resize(order.size());
    for (std::size_t p = 0; p < order.size(); ++p)
        out[order[p]] = sorted_hits[p];
}

/**
 * Copy one SMX's per-stripe hit records into the global hits vector. The
 * retire hooks run serially in SMX-index order, so plain resize+copy is
 * safe.
 */
inline void
harvestHits(const kernels::TravWorkspace &workspace,
            std::vector<geom::Hit> &out)
{
    const auto &results = workspace.results();
    const std::size_t first = workspace.firstRay();
    if (out.size() < first + results.size())
        out.resize(first + results.size());
    std::copy(results.begin(), results.end(),
              out.begin() + static_cast<std::ptrdiff_t>(first));
}

/**
 * Engine options of one plugin run: the RunConfig plumbing, the observers
 * and @p checker, plus a retire hook that — per SMX, in index order —
 * verifies the KernelT's traversal workspace (under a checker), harvests
 * its hits into config.hitsOut, then calls @p on_retire (e.g. to tally
 * kernel-side counters). No hook is installed when none of them applies.
 */
template <typename KernelT>
simt::GpuRunOptions
gpuRunOptions(const RunConfig &config, const ArchObservers &observers,
              const check::Checker *checker,
              std::function<void(KernelT &)> on_retire = {})
{
    simt::GpuRunOptions options;
    options.maxCycles = config.maxCycles;
    options.smxThreads = config.smxThreads;
    options.trace = observers.trace;
    options.attribution = observers.attribution;
    options.sampler = observers.sampler;
    options.perSmxStats = config.perSmxStats;
    options.check = checker;
    options.fault = config.fault;
    options.watchdogCycles = config.watchdogCycles;
    options.cancel = config.cancel;
    if (config.hitsOut != nullptr || checker != nullptr || on_retire)
        options.onSmxRetire = [hits = config.hitsOut, checker,
                               on_retire = std::move(on_retire)](
                                  int, simt::Kernel &kernel) {
            auto &typed = static_cast<KernelT &>(kernel);
            if (checker != nullptr)
                check::verifyWorkspace(typed.travWorkspace(),
                                       /*strict=*/true);
            if (hits != nullptr)
                harvestHits(typed.travWorkspace(), *hits);
            if (on_retire)
                on_retire(typed);
        };
    return options;
}

/**
 * SMX @p smx's stripe of @p rays (whole warp-sized groups, see
 * simt::rayStripe) and the batch index of its first ray.
 */
inline std::pair<std::span<const geom::Ray>, std::size_t>
smxStripe(std::span<const geom::Ray> rays, const simt::GpuConfig &gpu,
          int smx)
{
    const auto [first, count] =
        simt::rayStripe(rays.size(), gpu.numSmx, smx, gpu.simdLanes);
    return {rays.subspan(first, count), first};
}

/**
 * Run @p rays on the plain SIMT GPU with a KernelT on every SMX.
 * @p make_setup(stripe, first_ray) builds one SMX's kernel and optional
 * controller; checking, hit harvesting and @p on_retire are wired as in
 * gpuRunOptions.
 */
template <typename KernelT, typename MakeSetup>
simt::SimStats
runStriped(std::span<const geom::Ray> rays, const RunConfig &config,
           const ArchObservers &observers, const check::Checker *checker,
           MakeSetup &&make_setup,
           std::function<void(KernelT &)> on_retire = {})
{
    return simt::runGpu(
        config.gpu,
        [&](int smx) {
            const auto [stripe, first] = smxStripe(rays, config.gpu, smx);
            return make_setup(stripe, first);
        },
        gpuRunOptions<KernelT>(config, observers, checker,
                               std::move(on_retire)));
}

/**
 * The Aila software baseline on @p rays: the "aila" plugin's run, and
 * the inner run of the software reorderers on their sorted batch.
 */
simt::SimStats runAila(const render::PathTracer &tracer,
                       std::span<const geom::Ray> rays,
                       const RunConfig &config,
                       const ArchObservers &observers,
                       const check::Checker *checker);

} // namespace drs::harness::detail
