/**
 * @file
 * Quickstart: build a scene, capture a ray trace from the path tracer,
 * and compare the software baseline (Aila's while-while kernel) against
 * the DRS architecture on the simulated GPU — the paper's headline
 * experiment in ~60 lines of API use.
 *
 * Usage: quickstart [scene] [rays-per-bounce]
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

    const std::string scene_name = argc > 1 ? argv[1] : "conference";
    harness::ExperimentScale scale =
        harness::ExperimentScale::fromEnvironment();
    if (argc > 2) {
        // A malformed count must not fall through to 0 ("no cap").
        const auto rays = obs::parseInt(argv[2], 1, INT_MAX);
        if (!rays) {
            std::cerr << "quickstart: rays-per-bounce must be "
                      << obs::wantInt(1, INT_MAX) << ", got \"" << argv[2]
                      << "\"\n";
            return 2;
        }
        scale.raysPerBounce = static_cast<std::size_t>(*rays);
    }

    std::cout << "Building scene '" << scene_name << "' (scale "
              << scale.sceneScale << ") ...\n";
    harness::PreparedScene prepared = harness::prepareScene(
        scene::sceneFromName(scene_name), scale);
    std::cout << "  " << prepared.scene().triangleCount() << " triangles, "
              << prepared.trace.bounces.size() << " bounces captured, "
              << prepared.trace.totalRays() << " rays total\n\n";

    harness::RunConfig config;
    config.gpu.numSmx = scale.numSmx;

    stats::Table table({"bounce", "rays", "aila Mrays/s", "aila SIMD",
                        "drs Mrays/s", "drs SIMD", "speedup"});

    const int bounces =
        std::min<int>(4, static_cast<int>(prepared.trace.bounces.size()));
    for (int b = 1; b <= bounces; ++b) {
        const auto &batch = prepared.trace.bounce(b);
        auto aila = harness::runBatch(harness::Arch::Aila, *prepared.tracer,
                                      batch.rays, config);
        auto drs = harness::runBatch(harness::Arch::Drs, *prepared.tracer,
                                     batch.rays, config);
        const double aila_mrays = aila.mraysPerSecond(config.gpu.clockGhz);
        const double drs_mrays = drs.mraysPerSecond(config.gpu.clockGhz);
        table.addRow({"B" + std::to_string(b),
                      std::to_string(batch.rays.size()),
                      stats::formatDouble(aila_mrays, 1),
                      stats::formatPercent(aila.histogram.simdEfficiency()),
                      stats::formatDouble(drs_mrays, 1),
                      stats::formatPercent(drs.histogram.simdEfficiency()),
                      stats::formatDouble(drs_mrays / aila_mrays, 2) + "x"});
    }

    table.print(std::cout);
    std::cout << "\nDone. See bench/ for the full paper reproduction.\n";
    return 0;
}
