#pragma once

/**
 * @file
 * Path tracer over one scene. Every path is a pure function of its pixel,
 * sample index and seed, and is walked start to finish on its own
 * (megakernel order). render() accumulates the image; capture() records
 * each path's bounce-b ray into the BounceRays batch of bounce b, which is
 * the per-bounce trace the paper's experiments consume.
 *
 * The light-transport model is intentionally simple (Lambertian BSDF with
 * a small specular mixture, emissive area lights, no next-event
 * estimation): the paper treats "shading and ray generation as a black
 * box" and only consumes the ray streams.
 */

#include <cstdint>
#include <optional>
#include <vector>

#include "bvh/builder.h"
#include "bvh/bvh.h"
#include "geom/ray.h"
#include "render/image.h"
#include "render/ray_trace.h"
#include "scene/scene.h"

namespace drs::render {

/** Path tracing parameters (paper defaults where applicable). */
struct RenderConfig
{
    int width = 160;              ///< paper: 640 (scaled by default)
    int height = 120;             ///< paper: 480
    int samplesPerPixel = 1;      ///< paper: 64
    int maxDepth = 8;             ///< paper: hard max path depth of 8
    std::uint64_t seed = 0x5eed;  ///< sampler rotation seed
    bvh::BuildConfig bvhConfig{}; ///< acceleration structure options
};

/** Coherence statistics of one ray batch (used by tests and analysis). */
struct CoherenceStats
{
    /** Mean pairwise-cosine proxy: |mean direction| in [0, 1]. */
    double directionCoherence = 0.0;
    /** Fraction of rays terminated by this bounce's trace. */
    double terminationRate = 0.0;
};

/**
 * A path tracer bound to one scene.
 *
 * Typical use: construct, then either render() a full image or capture()
 * a per-bounce ray trace for the simulator experiments.
 */
class PathTracer
{
  public:
    /**
     * @throws std::invalid_argument naming the field when width, height,
     *         samplesPerPixel or maxDepth is below 1.
     */
    PathTracer(const scene::Scene &scene, const RenderConfig &config = {});

    /** The acceleration structure built over the scene. */
    const bvh::Bvh &bvh() const { return bvh_; }

    /** The scene this tracer renders. */
    const scene::Scene &scene() const { return scene_; }

    /** The scene's triangle array (the BVH indexes into it). */
    const std::vector<geom::Triangle> &sceneTriangles() const
    {
        return scene_.triangles();
    }

    /**
     * Render a full image (host-side reference renderer).
     * @return accumulated framebuffer
     */
    Image render() const;

    /**
     * Capture the per-bounce ray streams of a render.
     *
     * Batch b holds the bounce-b rays of the paths in (y, x, sample)
     * order, cut to the first @p max_rays_per_bounce of them (the paper
     * evaluates "two million rays for each bounce"); 0 means unlimited.
     * The batches are the same as those of a full render truncated
     * afterwards, ray for ray.
     *
     * Only the paths needed to fill the batches are traced: the walk
     * stops once batch maxDepth is full, and a bounce-maxDepth ray is
     * recorded but never traced. Trailing bounces no path reaches are
     * absent.
     */
    RayTrace capture(std::size_t max_rays_per_bounce = 0) const;

    /** Direction/termination statistics of @p rays against this scene. */
    CoherenceStats analyzeCoherence(const std::vector<geom::Ray> &rays) const;

  private:
    struct PathState;

    /**
     * Walk path (@p x, @p y, sample @p s): seed its sampler, generate its
     * camera ray, then trace and shade it bounce by bounce.
     * @p visit(bounce, ray) sees the ray of each bounce (1-based) before
     * it is traced and returns whether to trace it; the walk ends at the
     * first false, when the path terminates, or after maxDepth bounces.
     */
    template <typename Visit>
    PathState walkPath(int x, int y, int s, Visit &&visit) const;

    /** Shade a hit and produce the continuation ray, if the path survives. */
    std::optional<geom::Ray> shade(PathState &path, const geom::Ray &ray,
                                   const geom::Hit &hit) const;

    const scene::Scene &scene_;
    RenderConfig config_;
    bvh::Bvh bvh_;
};

} // namespace drs::render
