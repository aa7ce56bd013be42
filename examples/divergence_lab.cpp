/**
 * @file
 * Divergence lab: a guided tour of why ray tracing starves SIMD units
 * and what dynamic ray shuffling buys back. For one scene it prints, per
 * bounce, the ray coherence, the Aila baseline's Wm:n breakdown (the
 * paper's Figure 1/2 story), and the four architectures' efficiency and
 * throughput side by side — the whole paper in one terminal screen.
 *
 * Usage: divergence_lab [scene] [bounces]
 */

#include <climits>
#include <iostream>
#include <string>

#include "harness/harness.h"
#include "obs/env.h"
#include "stats/table.h"

int
main(int argc, char **argv)
{
    using namespace drs;

    const std::string scene_name = argc > 1 ? argv[1] : "sponza";
    int bounces = 3;
    if (argc > 2) {
        const auto v = obs::parseInt(argv[2], 1, INT_MAX);
        if (!v) {
            std::cerr << "divergence_lab: bounces must be "
                      << obs::wantInt(1, INT_MAX) << ", got \"" << argv[2]
                      << "\"\n";
            return 2;
        }
        bounces = static_cast<int>(*v);
    }

    harness::ExperimentScale scale =
        harness::ExperimentScale::fromEnvironment();
    std::cout << "Preparing '" << scene_name << "'...\n";
    harness::PreparedScene prepared =
        harness::prepareScene(scene::sceneFromName(scene_name), scale);
    harness::RunConfig config;
    config.gpu.numSmx = scale.numSmx;

    std::cout << "\n== Step 1: the workload ==\n";
    stats::Table workload({"bounce", "rays", "direction coherence",
                           "termination rate"});
    for (int b = 1; b <= bounces; ++b) {
        if (static_cast<std::size_t>(b) > prepared.trace.bounces.size())
            break;
        const auto c = prepared.tracer->analyzeCoherence(
            prepared.trace.bounce(b).rays);
        workload.addRow({"B" + std::to_string(b),
                         std::to_string(prepared.trace.bounce(b).size()),
                         stats::formatDouble(c.directionCoherence, 3),
                         stats::formatPercent(c.terminationRate, 1)});
    }
    workload.print(std::cout);
    std::cout << "Primary rays share a direction; bounced rays are\n"
                 "randomized by BSDF sampling. That incoherence is what\n"
                 "breaks warp lockstep.\n";

    std::cout << "\n== Step 2: what it does to a plain SIMT GPU ==\n";
    stats::Table aila_table({"bounce", "SIMD eff", "W1:8", "W25:32",
                             "Mrays/s"});
    for (int b = 1; b <= bounces; ++b) {
        if (static_cast<std::size_t>(b) > prepared.trace.bounces.size())
            break;
        const auto s = harness::runBatch(harness::Arch::Aila,
                                         *prepared.tracer,
                                         prepared.trace.bounce(b).rays,
                                         config);
        aila_table.addRow(
            {"B" + std::to_string(b),
             stats::formatPercent(s.histogram.simdEfficiency()),
             stats::formatPercent(s.histogram.bucketFraction(0)),
             stats::formatPercent(s.histogram.bucketFraction(3)),
             stats::formatDouble(s.mraysPerSecond(config.gpu.clockGhz),
                                 1)});
    }
    aila_table.print(std::cout);
    std::cout << "(Aila's while-while kernel: each warp crawls at the\n"
                 "pace of its slowest ray.)\n";

    std::cout << "\n== Step 3: four ways to fight back ==\n";
    const int b = std::min<int>(
        2, static_cast<int>(prepared.trace.bounces.size()));
    const auto &rays = prepared.trace.bounce(b).rays;
    stats::Table arch_table({"architecture", "SIMD eff", "Mrays/s",
                             "speedup", "notes"});
    double aila_mrays = 0.0;
    for (harness::Arch arch :
         {harness::Arch::Aila, harness::Arch::Dmk, harness::Arch::Tbc,
          harness::Arch::Drs}) {
        const auto s =
            harness::runBatch(arch, *prepared.tracer, rays, config);
        const double mrays = s.mraysPerSecond(config.gpu.clockGhz);
        if (arch == harness::Arch::Aila)
            aila_mrays = mrays;
        std::string notes;
        if (arch == harness::Arch::Dmk)
            notes = stats::formatPercent(s.histogram.spawnFraction()) +
                    " spawn instrs";
        if (arch == harness::Arch::Drs)
            notes = std::to_string(s.raySwapsCompleted) + " ray swaps";
        arch_table.addRow(
            {harness::archName(arch),
             stats::formatPercent(s.histogram.simdEfficiency()),
             stats::formatDouble(mrays, 1),
             stats::formatDouble(mrays / aila_mrays, 2) + "x",
             notes});
    }
    arch_table.print(std::cout);
    std::cout << "\nDRS shuffles ray register data onto state-uniform\n"
                 "rows, so warps almost always run full: highest\n"
                 "efficiency without DMK's instruction overhead or TBC's\n"
                 "block-wide synchronization.\n";
    return 0;
}
