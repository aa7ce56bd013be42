/**
 * @file
 * Tests for the scene generators, camera, path tracer, ray-trace capture
 * and serialization — the "PBRT black box" substitute.
 */

#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "bvh/builder.h"
#include "render/path_tracer.h"
#include "render/ray_trace.h"
#include "scene/camera.h"
#include "scene/scenes.h"

namespace drs {
namespace {

using geom::Ray;
using geom::Vec3;

// ---------------------------------------------------------------- Scene

TEST(Scene, NamesRoundTrip)
{
    for (scene::SceneId id : scene::allSceneIds())
        EXPECT_EQ(scene::sceneFromName(scene::sceneName(id)), id);
    EXPECT_THROW(scene::sceneFromName("nope"), std::invalid_argument);
}

TEST(Scene, AllBenchmarkScenesHaveLightsAndGeometry)
{
    for (scene::SceneId id : scene::allSceneIds()) {
        const scene::Scene s = scene::makeScene(id, 0.2f);
        EXPECT_GT(s.triangleCount(), 100u) << scene::sceneName(id);
        EXPECT_FALSE(s.emissiveTriangles().empty()) << scene::sceneName(id);
        EXPECT_FALSE(s.bounds().empty());
    }
}

TEST(Scene, ScaleControlsTessellation)
{
    const auto small = scene::makeScene(scene::SceneId::Fairy, 0.1f);
    const auto large = scene::makeScene(scene::SceneId::Fairy, 0.5f);
    EXPECT_GT(large.triangleCount(), small.triangleCount() * 2);
}

TEST(Scene, PlantsIsDensest)
{
    // The paper's plants scene has by far the most triangles.
    const float scale = 0.2f;
    const auto plants = scene::makeScene(scene::SceneId::Plants, scale);
    for (scene::SceneId id :
         {scene::SceneId::Conference, scene::SceneId::Fairy}) {
        EXPECT_GT(plants.triangleCount(),
                  scene::makeScene(id, scale).triangleCount());
    }
}

TEST(Scene, MaterialLookupValidated)
{
    const scene::Scene s = scene::makeTestScene();
    EXPECT_NO_THROW(s.materialOf(0));
    // Bad material indices are rejected at construction.
    std::vector<geom::Triangle> tris = {
        {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, 5}};
    EXPECT_THROW(scene::Scene("bad", tris, {scene::Material{}},
                              scene::Camera{}),
                 std::out_of_range);
}

TEST(Camera, RaysSpanTheFrustum)
{
    scene::Camera cam({0, 0, 0}, {0, 0, -1}, {0, 1, 0}, 90.0f, 1.0f);
    const Ray center = cam.generateRay(0.5f, 0.5f);
    EXPECT_NEAR(center.direction.z, -1.0f, 1e-5f);
    const Ray corner = cam.generateRay(0.0f, 0.0f);
    EXPECT_LT(corner.direction.x, 0.0f);
    EXPECT_LT(corner.direction.y, 0.0f);
    // 90 degree vertical fov: the top edge is at 45 degrees.
    const Ray top = cam.generateRay(0.5f, 1.0f);
    EXPECT_NEAR(top.direction.y / -top.direction.z, 1.0f, 1e-4f);
}

// ----------------------------------------------------------- PathTracer

render::RenderConfig
smallConfig()
{
    render::RenderConfig config;
    config.width = 40;
    config.height = 30;
    config.samplesPerPixel = 1;
    return config;
}

/** FNV-1a over raw bytes, continuing from @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/** Digest of every bounce number, batch size and ray field, in order. */
std::uint64_t
digest(const render::RayTrace &trace)
{
    std::uint64_t h = kFnvOffset;
    for (const auto &b : trace.bounces) {
        const std::int32_t bounce = b.bounce;
        const std::uint64_t size = b.rays.size();
        h = fnv1a(h, &bounce, sizeof bounce);
        h = fnv1a(h, &size, sizeof size);
        for (const Ray &r : b.rays) {
            h = fnv1a(h, &r.origin, sizeof r.origin);
            h = fnv1a(h, &r.tMin, sizeof r.tMin);
            h = fnv1a(h, &r.direction, sizeof r.direction);
            h = fnv1a(h, &r.tMax, sizeof r.tMax);
        }
    }
    return h;
}

/** Digest of every pixel's mean radiance, row by row. */
std::uint64_t
digest(const render::Image &image)
{
    std::uint64_t h = kFnvOffset;
    for (int y = 0; y < image.height(); ++y)
        for (int x = 0; x < image.width(); ++x) {
            const Vec3 p = image.pixel(x, y);
            h = fnv1a(h, &p.x, sizeof p.x);
            h = fnv1a(h, &p.y, sizeof p.y);
            h = fnv1a(h, &p.z, sizeof p.z);
        }
    return h;
}

/** Bit identity (unlike ==, tells -0 from +0 and matches equal NaNs). */
bool
sameRay(const Ray &a, const Ray &b)
{
    static_assert(sizeof(Ray) == 8 * sizeof(float), "Ray has padding");
    return std::memcmp(&a, &b, sizeof(Ray)) == 0;
}

TEST(PathTracer, RejectsNonPositiveDimensions)
{
    const scene::Scene s = scene::makeTestScene();
    const std::pair<const char *, int render::RenderConfig::*> fields[] = {
        {"width", &render::RenderConfig::width},
        {"height", &render::RenderConfig::height},
        {"samplesPerPixel", &render::RenderConfig::samplesPerPixel},
        {"maxDepth", &render::RenderConfig::maxDepth},
    };
    for (const auto &[name, field] : fields) {
        for (int bad : {0, -1}) {
            render::RenderConfig config = smallConfig();
            config.*field = bad;
            try {
                render::PathTracer tracer(s, config);
                ADD_FAILURE() << name << " = " << bad << " was accepted";
            } catch (const std::invalid_argument &e) {
                EXPECT_NE(std::string(e.what()).find(name),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(PathTracer, RenderImageIsPinned)
{
    // Recorded from the wavefront implementation this per-path walk
    // replaced: sharing the walk with capture() must not move a pixel.
    const scene::Scene s = scene::makeTestScene();
    render::RenderConfig config = smallConfig();
    config.samplesPerPixel = 2;
    EXPECT_EQ(digest(render::PathTracer(s, config).render()),
              0x4ee8032dfbbf67ddull);
}

TEST(PathTracer, CaptureDigestsArePinned)
{
    // Recorded from the wavefront implementation, which traced every path
    // through every bounce and truncated afterwards.
    const scene::Scene s = scene::makeConferenceScene(0.05f);
    render::RenderConfig config;
    config.width = 160;
    config.height = 120;
    config.samplesPerPixel = 1;
    const render::PathTracer tracer(s, config);
    EXPECT_EQ(digest(tracer.capture(0)), 0xc608ed3bbe05b9d0ull);
    EXPECT_EQ(digest(tracer.capture(2048)), 0x646257aab7edfd6eull);
}

TEST(PathTracer, CappedCaptureIsPrefixOfUncapped)
{
    struct Case
    {
        const char *name;
        scene::Scene scene;
        int width;
        int height;
    };
    const Case cases[] = {
        {"test", scene::makeTestScene(), 40, 30},
        {"conference (closed)", scene::makeConferenceScene(0.05f), 160, 120},
        {"fairy (open)", scene::makeFairyScene(0.05f), 160, 120},
    };
    for (const Case &c : cases) {
        for (int spp : {1, 2}) {
            render::RenderConfig config;
            config.width = c.width;
            config.height = c.height;
            config.samplesPerPixel = spp;
            const render::PathTracer tracer(c.scene, config);
            const render::RayTrace full = tracer.capture(0);
            ASSERT_EQ(full.bounces.size(), 8u) << c.name;
            const std::size_t largest = full.bounces[0].size();
            for (std::size_t cap : {std::size_t{1}, std::size_t{7},
                                    std::size_t{100}, largest,
                                    largest + 1}) {
                SCOPED_TRACE(std::string(c.name) + " spp " +
                             std::to_string(spp) + " cap " +
                             std::to_string(cap));
                const render::RayTrace capped = tracer.capture(cap);
                EXPECT_EQ(capped.sceneName, full.sceneName);
                ASSERT_EQ(capped.bounces.size(), full.bounces.size());
                for (std::size_t b = 0; b < full.bounces.size(); ++b) {
                    const auto &want = full.bounces[b];
                    const auto &got = capped.bounces[b];
                    EXPECT_EQ(got.bounce, want.bounce);
                    ASSERT_EQ(got.size(), std::min(cap, want.size()));
                    for (std::size_t i = 0; i < got.size(); ++i)
                        ASSERT_TRUE(sameRay(got.rays[i], want.rays[i]))
                            << "bounce " << got.bounce << " ray " << i;
                }
            }
        }
    }
}

TEST(PathTracer, MaxDepthOneCapturesExactlyThePrimaryRays)
{
    const scene::Scene s = scene::makeTestScene();
    render::RenderConfig config = smallConfig();
    config.samplesPerPixel = 2;
    const render::RayTrace deep = render::PathTracer(s, config).capture();
    config.maxDepth = 1;
    const render::RayTrace primary = render::PathTracer(s, config).capture();
    ASSERT_EQ(primary.bounces.size(), 1u);
    EXPECT_EQ(primary.bounces[0].bounce, 1);
    ASSERT_EQ(primary.bounces[0].size(), 40u * 30u * 2u);
    for (std::size_t i = 0; i < primary.bounces[0].size(); ++i)
        ASSERT_TRUE(sameRay(primary.bounces[0].rays[i],
                            deep.bounces[0].rays[i]))
            << "ray " << i;
}

TEST(PathTracer, RenderProducesLight)
{
    const scene::Scene s = scene::makeTestScene();
    render::PathTracer tracer(s, smallConfig());
    const render::Image image = tracer.render();
    EXPECT_GT(image.meanLuminance(), 0.001);
}

TEST(PathTracer, CaptureBouncesShrinkMonotonically)
{
    const scene::Scene s = scene::makeTestScene();
    render::PathTracer tracer(s, smallConfig());
    const render::RayTrace trace = tracer.capture();
    ASSERT_GE(trace.bounces.size(), 2u);
    EXPECT_EQ(trace.bounces[0].bounce, 1);
    EXPECT_EQ(trace.bounces[0].rays.size(), 40u * 30u);
    for (std::size_t i = 1; i < trace.bounces.size(); ++i)
        EXPECT_LE(trace.bounces[i].size(), trace.bounces[i - 1].size());
}

TEST(PathTracer, CaptureRespectsRayCap)
{
    const scene::Scene s = scene::makeTestScene();
    render::PathTracer tracer(s, smallConfig());
    const render::RayTrace trace = tracer.capture(100);
    for (const auto &b : trace.bounces)
        EXPECT_LE(b.size(), 100u);
}

TEST(PathTracer, PrimaryRaysCoherentSecondaryNot)
{
    // The paper's core workload property: bounce-1 rays are coherent,
    // bounce-2+ rays are randomized by BSDF sampling.
    const scene::Scene s = scene::makeConferenceScene(0.15f);
    render::RenderConfig config = smallConfig();
    render::PathTracer tracer(s, config);
    const render::RayTrace trace = tracer.capture();
    ASSERT_GE(trace.bounces.size(), 2u);
    const auto primary = tracer.analyzeCoherence(trace.bounce(1).rays);
    const auto secondary = tracer.analyzeCoherence(trace.bounce(2).rays);
    EXPECT_GT(primary.directionCoherence, 0.7);
    EXPECT_LT(secondary.directionCoherence,
              primary.directionCoherence * 0.7);
}

TEST(PathTracer, DeterministicAcrossRuns)
{
    const scene::Scene s = scene::makeTestScene();
    render::PathTracer a(s, smallConfig());
    render::PathTracer b(s, smallConfig());
    const auto ta = a.capture(50);
    const auto tb = b.capture(50);
    ASSERT_EQ(ta.bounces.size(), tb.bounces.size());
    for (std::size_t i = 0; i < ta.bounces.size(); ++i) {
        ASSERT_EQ(ta.bounces[i].size(), tb.bounces[i].size());
        for (std::size_t j = 0; j < ta.bounces[i].size(); ++j) {
            EXPECT_EQ(ta.bounces[i].rays[j].origin,
                      tb.bounces[i].rays[j].origin);
            EXPECT_EQ(ta.bounces[i].rays[j].direction,
                      tb.bounces[i].rays[j].direction);
        }
    }
}

TEST(PathTracer, MaxDepthBoundsBounces)
{
    const scene::Scene s = scene::makeTestScene();
    render::RenderConfig config = smallConfig();
    config.maxDepth = 3;
    render::PathTracer tracer(s, config);
    EXPECT_LE(tracer.capture().bounces.size(), 3u);
}

// ------------------------------------------------------------ RayTrace

TEST(RayTrace, SerializationRoundTrip)
{
    render::RayTrace trace;
    trace.sceneName = "roundtrip";
    render::BounceRays b1;
    b1.bounce = 1;
    b1.rays.push_back(Ray{{1, 2, 3}, 0.5f, {0, 1, 0}, 99.0f});
    b1.rays.push_back(Ray{{-1, 0, 4}, 0.0f, {0, 0, -1}, 5.0f});
    trace.bounces.push_back(b1);

    std::stringstream stream;
    render::save(trace, stream);
    const render::RayTrace loaded = render::load(stream);
    EXPECT_EQ(loaded.sceneName, "roundtrip");
    ASSERT_EQ(loaded.bounces.size(), 1u);
    ASSERT_EQ(loaded.bounce(1).size(), 2u);
    EXPECT_EQ(loaded.bounce(1).rays[0].origin, Vec3(1, 2, 3));
    EXPECT_EQ(loaded.bounce(1).rays[1].tMax, 5.0f);
    EXPECT_EQ(loaded.totalRays(), 2u);
}

TEST(RayTrace, LoadRejectsGarbage)
{
    std::stringstream stream("not a trace at all");
    EXPECT_THROW(render::load(stream), std::runtime_error);
}

TEST(RayTrace, LoadRejectsTruncated)
{
    render::RayTrace trace;
    trace.sceneName = "t";
    render::BounceRays b;
    b.bounce = 1;
    b.rays.resize(10);
    trace.bounces.push_back(b);
    std::stringstream stream;
    render::save(trace, stream);
    std::string bytes = stream.str();
    bytes.resize(bytes.size() / 2);
    std::stringstream cut(bytes);
    EXPECT_THROW(render::load(cut), std::runtime_error);
}

/** A trace stream header followed by @p tail (raw little-endian PODs). */
template <typename... Fields>
std::stringstream
rawStream(const Fields &...tail)
{
    std::stringstream stream;
    const auto put = [&stream](const auto &v) {
        stream.write(reinterpret_cast<const char *>(&v), sizeof v);
    };
    put(std::uint32_t{0x44525354}); // "DRST"
    put(std::uint32_t{1});          // version
    (put(tail), ...);
    return stream;
}

TEST(RayTrace, LoadRejectsOversizedNameLength)
{
    auto stream = rawStream(std::numeric_limits<std::uint32_t>::max());
    EXPECT_THROW(render::load(stream), std::runtime_error);
}

TEST(RayTrace, LoadRejectsOversizedBounceCount)
{
    auto stream = rawStream(std::uint32_t{0},
                            std::numeric_limits<std::uint32_t>::max());
    EXPECT_THROW(render::load(stream), std::runtime_error);
}

TEST(RayTrace, LoadRejectsOversizedRayCount)
{
    for (std::uint64_t count : {std::uint64_t{1} << 33,
                                std::uint64_t{1} << 62,
                                std::numeric_limits<std::uint64_t>::max()}) {
        auto stream = rawStream(std::uint32_t{0}, std::uint32_t{1},
                                std::int32_t{1}, count);
        EXPECT_THROW(render::load(stream), std::runtime_error) << count;
    }
}

TEST(RayTrace, MissingBounceThrows)
{
    render::RayTrace trace;
    EXPECT_THROW(trace.bounce(3), std::out_of_range);
}

// --------------------------------------------------------------- Image

TEST(Image, AccumulatesAndAverages)
{
    render::Image image(4, 4);
    image.addSample(1, 2, {1.0f, 0.0f, 0.0f});
    image.addSample(1, 2, {0.0f, 1.0f, 0.0f});
    const Vec3 p = image.pixel(1, 2);
    EXPECT_FLOAT_EQ(p.x, 0.5f);
    EXPECT_FLOAT_EQ(p.y, 0.5f);
    EXPECT_FLOAT_EQ(p.z, 0.0f);
    EXPECT_EQ(image.pixel(0, 0), Vec3());
}

TEST(Image, WritesPpm)
{
    render::Image image(8, 6);
    for (int y = 0; y < 6; ++y)
        for (int x = 0; x < 8; ++x)
            image.addSample(x, y, {0.5f, 0.25f, 0.125f});
    const std::string path = "/tmp/drs_test_image.ppm";
    ASSERT_TRUE(image.writePpm(path));
    std::ifstream is(path, std::ios::binary);
    std::string header;
    is >> header;
    EXPECT_EQ(header, "P6");
}

} // namespace
} // namespace drs
