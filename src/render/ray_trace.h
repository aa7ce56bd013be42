#pragma once

/**
 * @file
 * Per-bounce ray traces. The paper's experiments do not run the whole
 * renderer inside the simulator: "We streamed traces of rays captured from
 * PBRT and fed these traces to ray tracing kernels as input." A RayTrace is
 * exactly that artifact — the batch of rays a path tracer produced for one
 * bounce — plus serialization so traces can be cached on disk.
 */

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "geom/ray.h"

namespace drs::render {

/** The rays of one path-tracing bounce. */
struct BounceRays
{
    /** 1-based bounce number (B1 = primary rays). */
    int bounce = 1;
    std::vector<geom::Ray> rays;

    std::size_t size() const { return rays.size(); }
    bool empty() const { return rays.empty(); }
};

/** A full capture: one BounceRays per bounce, in order. */
struct RayTrace
{
    std::string sceneName;
    std::vector<BounceRays> bounces;

    /** Total rays across all bounces. */
    std::size_t totalRays() const;

    /** Rays of bounce @p b (1-based); throws if absent. */
    const BounceRays &bounce(int b) const;
};

/** Serialize @p trace to a binary stream. */
void save(const RayTrace &trace, std::ostream &os);

/**
 * Deserialize a trace; throws std::runtime_error on malformed input. The
 * counts in the stream are not trusted for allocation: a count larger
 * than the data that follows reads as a truncated stream.
 */
RayTrace load(std::istream &is);

} // namespace drs::render
