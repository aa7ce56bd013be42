/**
 * @file
 * Capture and replay ray traces — the paper's methodology artifact
 * ("we streamed traces of rays captured from PBRT and fed these traces
 * to ray tracing kernels"). Captures a per-bounce trace to disk, then
 * reloads and replays one bounce on a chosen architecture.
 *
 * Usage: trace_capture [scene] [trace-file] [arch] [bounce]
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "harness/arch_plugin.h"
#include "harness/harness.h"

int
main(int argc, char **argv)
{
    using namespace drs;

    const std::string scene_name = argc > 1 ? argv[1] : "fairy";
    const std::string path =
        argc > 2 ? argv[2] : (scene_name + ".drstrace");
    const std::string arch_name = argc > 3 ? argv[3] : "drs";
    const int bounce = argc > 4 ? std::atoi(argv[4]) : 2;

    // Every registered architecture replays; an unknown name fails here,
    // naming the lineup, before the capture spends any time.
    const harness::Arch arch(arch_name);
    try {
        harness::ArchRegistry::instance().get(arch);
    } catch (const std::invalid_argument &e) {
        std::cerr << "trace_capture: " << e.what() << "\n";
        return 2;
    }

    harness::ExperimentScale scale =
        harness::ExperimentScale::fromEnvironment();

    std::cout << "Capturing trace of '" << scene_name << "'...\n";
    harness::PreparedScene prepared =
        harness::prepareScene(scene::sceneFromName(scene_name), scale);
    {
        std::ofstream os(path, std::ios::binary);
        render::save(prepared.trace, os);
    }
    std::cout << "Wrote " << path << " (" << prepared.trace.totalRays()
              << " rays over " << prepared.trace.bounces.size()
              << " bounces)\n";

    std::cout << "Reloading and replaying bounce " << bounce << " on '"
              << arch_name << "'...\n";
    std::ifstream is(path, std::ios::binary);
    const render::RayTrace loaded = render::load(is);

    harness::RunConfig config;
    config.gpu.numSmx = scale.numSmx;
    const auto stats = harness::runBatch(
        arch, *prepared.tracer, loaded.bounce(bounce).rays, config);

    std::cout << "  rays traced:    " << stats.raysTraced << "\n"
              << "  cycles:         " << stats.cycles << "\n"
              << "  SIMD efficiency " << stats.histogram.simdEfficiency()
              << "\n"
              << "  Mrays/s:        "
              << stats.mraysPerSecond(config.gpu.clockGhz) << "\n"
              << "  L1 tex hit rate " << stats.l1Texture.hitRate() << "\n";
    return 0;
}
