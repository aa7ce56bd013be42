#include "simt/gpu.h"

#include <algorithm>
#include <stdexcept>

#include "simt/engine.h"

namespace drs::simt {

SimStats
runGpu(const GpuConfig &config, const SmxFactory &factory,
       const GpuRunOptions &options)
{
    return runGpuUnits<Smx>(
        config, options, [&](int i, SharedMemorySide &shared) {
            GpuUnit<Smx> unit{factory(i), nullptr};
            SmxSetup &setup = unit.setup;
            if (!setup.kernel)
                throw std::invalid_argument("SMX factory returned no kernel");
            unit.smx = std::make_unique<Smx>(config, *setup.kernel,
                                             setup.controller.get(),
                                             setup.numWarps, shared);
            // The controller reports shuffle stats through its Smx, which
            // needs the controller at construction: wire it back now.
            if (setup.controller)
                setup.controller->attach(*unit.smx);
            if (options.trace != nullptr) {
                obs::Tracer &tracer = options.trace->smx(i);
                tracer.setBlockNames(blockNames(setup.kernel->program()));
                unit.smx->setTracer(&tracer);
            }
            return unit;
        });
}

std::pair<std::size_t, std::size_t>
rayStripe(std::size_t total_rays, int num_smx, int smx_index, int warp_size)
{
    if (num_smx < 1 || warp_size < 1)
        throw std::invalid_argument(
            "rayStripe: num_smx and warp_size must be >= 1");
    if (smx_index < 0 || smx_index >= num_smx)
        throw std::invalid_argument("rayStripe: smx_index out of range");

    const std::size_t groups =
        (total_rays + static_cast<std::size_t>(warp_size) - 1) /
        static_cast<std::size_t>(warp_size);
    const std::size_t per_smx =
        groups / static_cast<std::size_t>(num_smx);
    const std::size_t remainder =
        groups % static_cast<std::size_t>(num_smx);

    const auto idx = static_cast<std::size_t>(smx_index);
    const std::size_t my_groups = per_smx + (idx < remainder ? 1 : 0);
    const std::size_t first_group =
        idx * per_smx + std::min(idx, remainder);

    const std::size_t first = first_group * static_cast<std::size_t>(warp_size);
    if (first >= total_rays)
        return {total_rays, 0};
    const std::size_t count =
        std::min(my_groups * static_cast<std::size_t>(warp_size),
                 total_rays - first);
    return {first, count};
}

} // namespace drs::simt
