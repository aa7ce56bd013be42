#pragma once

/**
 * @file
 * The tiny three-job grid (conference bounces 1-3, Aila/DRS/Aila at 192
 * rays) that the resume and fleet suites both run, plus their shared
 * helpers.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/sweep.h"

namespace drs::harness::fixture {

inline ExperimentScale
tinyScale()
{
    ExperimentScale scale;
    scale.sceneScale = 0.05f;
    scale.width = 128;
    scale.height = 96;
    scale.samplesPerPixel = 1;
    scale.raysPerBounce = 4096;
    scale.numSmx = 2;
    scale.maxDepth = 3;
    return scale;
}

inline std::vector<SweepJob>
tinyJobs()
{
    std::vector<SweepJob> jobs;
    for (int bounce = 1; bounce <= 3; ++bounce) {
        SweepJob job;
        job.scene = scene::SceneId::Conference;
        job.arch = bounce == 2 ? Arch::Drs : Arch::Aila;
        job.config.gpu.numSmx = 2;
        job.bounce = bounce;
        job.maxRays = 192;
        jobs.push_back(job);
    }
    return jobs;
}

/** The tiny grid through an in-process SweepRunner. */
inline std::vector<SweepResult>
runSweep(const SweepOptions &options, int workers = 1)
{
    SweepRunner runner(tinyScale(), workers, options);
    for (const SweepJob &job : tinyJobs())
        runner.add(job);
    return runner.run();
}

/** Result equality that ignores wall-clock and provenance fields. */
inline void
expectSameOutcome(const std::vector<SweepResult> &a,
                  const std::vector<SweepResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].ran, b[i].ran) << "job " << i;
        EXPECT_EQ(a[i].failed, b[i].failed) << "job " << i;
        EXPECT_TRUE(a[i].stats == b[i].stats) << "job " << i;
    }
}

inline std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

} // namespace drs::harness::fixture
