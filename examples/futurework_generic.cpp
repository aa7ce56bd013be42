/**
 * @file
 * Section 4.6, implemented: dynamic state shuffling applied to a
 * divergent workload that is not ray tracing. A two-phase task kernel
 * with data-dependent trip counts runs (a) as a nested while-while loop
 * on the plain SIMT GPU and (b) as a while-if kernel dispatched by the
 * unmodified DRS control unit — the same ray state table, renaming and
 * swap engine, shuffling tasks instead of rays.
 *
 * Usage: futurework_generic [tasks] [phaseA-max] [phaseB-max]
 */

#include <climits>
#include <cstdlib>
#include <iostream>

#include "core/drs_control.h"
#include "kernels/generic_kernel.h"
#include "obs/env.h"
#include "simt/smx.h"
#include "stats/table.h"

int
main(int argc, char **argv)
{
    using namespace drs;

    // Argument @p index as an integer in [min, INT_MAX], @p fallback when
    // absent; a malformed one is a usage error naming the argument.
    const auto number = [&](int index, const char *name, long long min,
                            long long fallback) {
        if (argc <= index)
            return fallback;
        const auto v = obs::parseInt(argv[index], min, INT_MAX);
        if (!v) {
            std::cerr << "futurework_generic: " << name << " must be "
                      << obs::wantInt(min, INT_MAX) << ", got \""
                      << argv[index] << "\"\n";
            std::exit(2);
        }
        return *v;
    };
    kernels::GenericWorkloadConfig workload;
    workload.taskCount =
        static_cast<std::size_t>(number(1, "tasks", 1, 65536));
    workload.phaseAMax = static_cast<int>(
        number(2, "phaseA-max", workload.phaseAMin, 64));
    workload.phaseBMax = static_cast<int>(
        number(3, "phaseB-max", workload.phaseBMin, 12));

    const simt::GpuConfig gpu;
    const int warps = 48;

    std::cout << "Two-phase divergent workload: " << workload.taskCount
              << " tasks, phase A trips " << workload.phaseAMin << ".."
              << workload.phaseAMax << ", phase B trips "
              << workload.phaseBMin << ".." << workload.phaseBMax << "\n\n";

    stats::Table table({"dispatch", "SIMD eff", "cycles", "tasks/Kcycle",
                        "speedup"});
    double baseline_rate = 0.0;

    // (a) plain SIMT, nested loops.
    {
        simt::SharedMemorySide shared(gpu.memory);
        kernels::GenericKernel kernel(workload,
                                      kernels::GenericFlavour::WhileWhile,
                                      warps);
        simt::Smx smx(gpu, kernel, nullptr, warps, shared);
        smx.run(4'000'000'000ULL);
        const auto s = smx.collectStats();
        baseline_rate =
            static_cast<double>(s.raysTraced) / s.cycles * 1000.0;
        table.addRow({"while-while (plain SIMT)",
                      stats::formatPercent(s.histogram.simdEfficiency()),
                      std::to_string(s.cycles),
                      stats::formatDouble(baseline_rate, 1), "1.00x"});
    }

    // (b) while-if + the DRS control, shuffling task state.
    {
        core::DrsConfig drs;
        simt::SharedMemorySide shared(gpu.memory);
        kernels::GenericKernel kernel(workload,
                                      kernels::GenericFlavour::WhileIf,
                                      warps + drs.backupRows + 2);
        core::DrsControl control(drs, kernel.workspace(), warps);
        simt::Smx smx(gpu, kernel, &control, warps, shared);
        control.attach(smx);
        smx.run(4'000'000'000ULL);
        const auto s = smx.collectStats();
        const double rate =
            static_cast<double>(s.raysTraced) / s.cycles * 1000.0;
        table.addRow({"while-if + DRS shuffle",
                      stats::formatPercent(s.histogram.simdEfficiency()),
                      std::to_string(s.cycles),
                      stats::formatDouble(rate, 1),
                      stats::formatDouble(rate / baseline_rate, 2) + "x"});
    }

    table.print(std::cout);
    std::cout << "\nThe identical DRS hardware model (ray state table,\n"
                 "warp renaming, swap buffers) schedules these tasks: the\n"
                 "paper's closing claim that the idea generalizes beyond\n"
                 "ray tracing, demonstrated.\n";
    return 0;
}
