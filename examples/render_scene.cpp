/**
 * @file
 * Render any benchmark scene to a PPM image with the host path tracer —
 * the visual counterpart of the paper's Figure 7 and a smoke test that
 * the procedural scenes look like scenes.
 *
 * Usage: render_scene [scene] [output.ppm] [width] [height] [spp]
 */

#include <algorithm>
#include <climits>
#include <iostream>
#include <string>

#include "obs/env.h"
#include "render/path_tracer.h"
#include "scene/scenes.h"

int
main(int argc, char **argv)
{
    using namespace drs;

    const std::string scene_name = argc > 1 ? argv[1] : "conference";
    const std::string output =
        argc > 2 ? argv[2] : (scene_name + ".ppm");

    // Film width, height and spp: positive integers, or a usage error.
    int film[3] = {320, 240, 8};
    for (int k = 0; k < 3 && 3 + k < argc; ++k) {
        const auto v = obs::parseInt(argv[3 + k], 1, INT_MAX);
        if (!v) {
            std::cerr << "usage: render_scene [scene] [output.ppm] [width] "
                         "[height] [spp]\n";
            return 2;
        }
        film[k] = static_cast<int>(*v);
    }
    render::RenderConfig config;
    config.width = film[0];
    config.height = film[1];
    config.samplesPerPixel = film[2];

    float scale = 0.25f;
    obs::envReal("DRS_SCALE", &scale, obs::kPositive);
    scale = std::max(0.01f, scale);

    std::cout << "Rendering '" << scene_name << "' at " << config.width
              << "x" << config.height << ", " << config.samplesPerPixel
              << " spp...\n";

    const scene::Scene scene =
        scene_name == "test"
            ? scene::makeTestScene()
            : scene::makeScene(scene::sceneFromName(scene_name), scale);
    std::cout << "  " << scene.triangleCount() << " triangles, "
              << scene.emissiveTriangles().size() << " emissive\n";

    render::PathTracer tracer(scene, config);
    const render::Image image = tracer.render();
    if (!image.writePpm(output)) {
        std::cerr << "failed to write " << output << "\n";
        return 1;
    }
    std::cout << "  mean luminance " << image.meanLuminance() << "\n";
    std::cout << "Wrote " << output << "\n";
    return 0;
}
