#include "render/path_tracer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "bvh/builder.h"
#include "bvh/traverse.h"
#include "geom/sampler.h"

namespace drs::render {

using geom::Hit;
using geom::Ray;
using geom::Vec2;
using geom::Vec3;

/** Per-path bookkeeping carried across bounces. */
struct PathTracer::PathState
{
    Vec3 throughput{1.0f, 1.0f, 1.0f};
    Vec3 radiance{0.0f, 0.0f, 0.0f};
    geom::HaltonSampler sampler;
};

namespace {

/** @p config, after checking that every dimension is at least 1. */
const RenderConfig &
validated(const RenderConfig &config)
{
    const std::pair<const char *, int> fields[] = {
        {"width", config.width},
        {"height", config.height},
        {"samplesPerPixel", config.samplesPerPixel},
        {"maxDepth", config.maxDepth},
    };
    for (const auto &[name, value] : fields)
        if (value < 1)
            throw std::invalid_argument(
                std::string("RenderConfig::") + name +
                " must be >= 1, got " + std::to_string(value));
    return config;
}

} // namespace

PathTracer::PathTracer(const scene::Scene &scene, const RenderConfig &config)
    : scene_(scene), config_(validated(config)),
      bvh_(bvh::build(scene.triangles(), config.bvhConfig))
{
}

std::optional<Ray>
PathTracer::shade(PathState &path, const Ray &ray, const Hit &hit) const
{
    if (!hit.valid()) {
        // Escaped the scene: collect nothing (no environment light; the
        // scenes carry explicit emissive sky geometry instead).
        return std::nullopt;
    }

    const geom::Triangle &tri = scene_.triangles()[hit.triangle];
    const scene::Material &mat = scene_.materialOf(hit.triangle);

    if (mat.emissive()) {
        // Path hit a light source: terminate and collect.
        path.radiance += path.throughput * mat.emission;
        return std::nullopt;
    }

    Vec3 n = geom::normalize(tri.geometricNormal());
    if (geom::dot(n, ray.direction) > 0.0f)
        n = -n; // shade the side the ray arrived on

    const Vec3 hit_point = ray.at(hit.t);

    // Mixture lobe: mirror with probability `specularity`, else cosine-
    // weighted Lambertian. Secondary rays therefore range from perfectly
    // coherent (mirror) to fully randomized (diffuse), like the paper's
    // PBRT BSDF sampling.
    const float lobe = path.sampler.next1D();
    Vec3 new_dir;
    if (lobe < mat.specularity) {
        new_dir = geom::reflect(ray.direction, n);
        path.throughput = path.throughput * mat.albedo;
        path.sampler.next2D(); // keep dimension alignment across lobes
    } else {
        const Vec2 u = path.sampler.next2D();
        const Vec3 local = geom::cosineSampleHemisphere(u);
        new_dir = geom::OrthonormalBasis(n).toWorld(local);
        // Cosine-weighted sampling of a Lambertian cancels the cosine and
        // the 1/pi, leaving just the albedo.
        path.throughput = path.throughput * mat.albedo;
    }

    if (geom::lengthSquared(new_dir) == 0.0f)
        return std::nullopt;

    Ray next;
    next.origin = hit_point + n * 1e-4f;
    next.direction = geom::normalize(new_dir);
    next.tMin = 1e-4f;
    next.tMax = geom::kRayInfinity;
    return next;
}

template <typename Visit>
PathTracer::PathState
PathTracer::walkPath(int x, int y, int s, Visit &&visit) const
{
    PathState path;
    path.sampler = geom::HaltonSampler(
        config_.seed + (static_cast<std::uint64_t>(y) * config_.width + x));
    path.sampler.startSample(static_cast<std::uint64_t>(s));

    const Vec2 jitter = path.sampler.next2D();
    Ray ray = scene_.camera().generateRay((x + jitter.x) / config_.width,
                                          (y + jitter.y) / config_.height);

    for (int bounce = 1; bounce <= config_.maxDepth && visit(bounce, ray);
         ++bounce) {
        const Hit hit = bvh::intersect(bvh_, scene_.triangles(), ray);
        const auto next = shade(path, ray, hit);
        if (!next)
            break;
        ray = *next;
    }
    return path;
}

Image
PathTracer::render() const
{
    Image image(config_.width, config_.height);
    const auto trace_all = [](int, const Ray &) { return true; };
    for (int y = 0; y < config_.height; ++y)
        for (int x = 0; x < config_.width; ++x)
            for (int s = 0; s < config_.samplesPerPixel; ++s)
                image.addSample(x, y, walkPath(x, y, s, trace_all).radiance);
    return image;
}

RayTrace
PathTracer::capture(std::size_t max_rays_per_bounce) const
{
    const std::size_t cap = max_rays_per_bounce
                                ? max_rays_per_bounce
                                : std::numeric_limits<std::size_t>::max();
    const std::size_t total_paths =
        static_cast<std::size_t>(config_.width) * config_.height *
        config_.samplesPerPixel;

    // Under a cap, reserve each batch's final size up front: growing by
    // doubling instead measured ~25% more peak RSS when capturing four
    // scenes at 640x480x2 with a 98304-ray cap.
    std::vector<BounceRays> batches(config_.maxDepth);
    for (int b = 0; b < config_.maxDepth; ++b) {
        batches[b].bounce = b + 1;
        if (max_rays_per_bounce)
            batches[b].rays.reserve(std::min(cap, total_paths));
    }

    // A path reaches bounce b only through bounce b - 1, so the batches
    // fill in bounce order: while the deepest batch is open, every path
    // may still add to it. Each path is therefore traced up to, not
    // through, bounce maxDepth, and the walk ends once the deepest batch
    // is full.
    const BounceRays &deepest = batches.back();
    const auto record = [&](int bounce, const Ray &ray) {
        std::vector<Ray> &rays = batches[bounce - 1].rays;
        if (rays.size() < cap)
            rays.push_back(ray);
        return bounce < config_.maxDepth;
    };
    bool full = false;
    for (int y = 0; y < config_.height && !full; ++y)
        for (int x = 0; x < config_.width && !full; ++x)
            for (int s = 0; s < config_.samplesPerPixel && !full; ++s) {
                walkPath(x, y, s, record);
                full = deepest.size() >= cap;
            }

    RayTrace trace;
    trace.sceneName = scene_.name();
    for (BounceRays &batch : batches) {
        if (batch.empty())
            break;
        trace.bounces.push_back(std::move(batch));
    }
    return trace;
}

CoherenceStats
PathTracer::analyzeCoherence(const std::vector<Ray> &rays) const
{
    CoherenceStats stats;
    if (rays.empty())
        return stats;

    Vec3 mean_dir;
    std::size_t terminated = 0;
    for (const auto &r : rays) {
        mean_dir += geom::normalize(r.direction);
        const Hit hit = bvh::intersect(bvh_, scene_.triangles(), r);
        if (!hit.valid() || scene_.materialOf(hit.triangle).emissive())
            ++terminated;
    }
    stats.directionCoherence =
        geom::length(mean_dir) / static_cast<double>(rays.size());
    stats.terminationRate =
        static_cast<double>(terminated) / static_cast<double>(rays.size());
    return stats;
}

} // namespace drs::render
