/**
 * @file
 * Tests of the host-side execution library: work-stealing thread pool,
 * fork/join task groups and DRS_JOBS-driven default concurrency.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/cancel.h"
#include "exec/thread_pool.h"

namespace drs::exec {
namespace {

TEST(DefaultConcurrency, ReadsDrsJobs)
{
    setenv("DRS_JOBS", "7", 1);
    EXPECT_EQ(defaultConcurrency(), 7);
    unsetenv("DRS_JOBS");
}

TEST(DefaultConcurrency, IgnoresMalformedDrsJobs)
{
    const int fallback = [] {
        unsetenv("DRS_JOBS");
        return defaultConcurrency();
    }();
    EXPECT_GE(fallback, 1);

    for (const char *bad :
         {"banana", "-3", "0", "4x", "", "4294967297", "2.5"}) {
        setenv("DRS_JOBS", bad, 1);
        EXPECT_EQ(defaultConcurrency(), fallback) << "DRS_JOBS=" << bad;
    }
    setenv("DRS_JOBS", "4 ", 1);
    EXPECT_EQ(defaultConcurrency(), 4);
    unsetenv("DRS_JOBS");
}

TEST(ThreadPool, RunsEveryTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4);

    std::atomic<int> counter{0};
    TaskGroup group(pool);
    for (int i = 0; i < 1000; ++i)
        group.run([&counter] { ++counter; });
    group.wait();
    EXPECT_EQ(counter.load(), 1000);
    EXPECT_EQ(pool.tasksExecuted(), 1000u);
}

TEST(ThreadPool, SingleThreadStillRuns)
{
    ThreadPool pool(1);
    std::atomic<int> counter{0};
    TaskGroup group(pool);
    for (int i = 0; i < 50; ++i)
        group.run([&counter] { ++counter; });
    group.wait();
    EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ClampsNonPositiveThreadCount)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), 1);
}

TEST(ThreadPool, WorkStealingBalancesUnevenTasks)
{
    // Round-robin submission puts the slow tasks on a few queues; the
    // other workers must steal to finish them all promptly.
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    TaskGroup group(pool);
    for (int i = 0; i < 64; ++i)
        group.run([&counter, i] {
            if (i % 4 == 0)
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            ++counter;
        });
    group.wait();
    EXPECT_EQ(counter.load(), 64);
    // Stealing is timing-dependent in principle, but with 3 of 4 queues
    // drained quickly it is effectively certain here.
    EXPECT_GT(pool.tasksStolen(), 0u);
}

TEST(ThreadPool, TasksRunOnMultipleThreads)
{
    ThreadPool pool(4);
    std::mutex mutex;
    std::set<std::thread::id> ids;
    TaskGroup group(pool);
    for (int i = 0; i < 200; ++i)
        group.run([&] {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            std::lock_guard<std::mutex> lock(mutex);
            ids.insert(std::this_thread::get_id());
        });
    group.wait();
    EXPECT_GT(ids.size(), 1u);
}

TEST(TaskGroup, PropagatesFirstException)
{
    ThreadPool pool(2);
    TaskGroup group(pool);
    std::atomic<int> completed{0};
    for (int i = 0; i < 20; ++i)
        group.run([&completed, i] {
            if (i == 7)
                throw std::runtime_error("task 7 failed");
            ++completed;
        });
    EXPECT_THROW(group.wait(), std::runtime_error);
    // The first error cancels the group: every sibling either ran before
    // the failure was recorded or was skipped — none is lost.
    EXPECT_EQ(completed.load() + static_cast<int>(group.skipped()), 19);
}

TEST(TaskGroup, ThrowingTaskUnderContentionIsSafe)
{
    // Regression: a task throwing while many siblings are in flight must
    // neither terminate() (raw exception crossing a worker thread) nor
    // deadlock the join, and exactly the first error must surface.
    ThreadPool pool(4);
    for (int round = 0; round < 20; ++round) {
        TaskGroup group(pool);
        std::atomic<int> completed{0};
        for (int i = 0; i < 200; ++i)
            group.run([&completed, i] {
                if (i % 17 == 3)
                    throw std::runtime_error("intentional failure");
                ++completed;
            });
        EXPECT_THROW(group.wait(), std::runtime_error);
        EXPECT_LE(completed.load() + static_cast<int>(group.skipped()), 200);
        // A waited group is clean again: no stale error resurfaces.
        group.run([] {});
        EXPECT_NO_THROW(group.wait());
    }
}

TEST(TaskGroup, CancelSkipsQueuedTasks)
{
    ThreadPool pool(1);
    TaskGroup group(pool);
    std::atomic<int> completed{0};
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    // Occupy the only worker so the rest of the batch stays queued; wait
    // until it is actually running, or cancel() could skip it too.
    group.run([&started, &release] {
        started.store(true);
        while (!release.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    while (!started.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (int i = 0; i < 32; ++i)
        group.run([&completed] { ++completed; });
    group.cancel();
    EXPECT_TRUE(group.cancelled());
    release.store(true);
    group.wait(); // cancel() alone records no error
    EXPECT_FALSE(group.cancelled()); // wait() re-arms the group
    EXPECT_EQ(completed.load(), 0);
    EXPECT_EQ(group.skipped(), 32u);
}

TEST(TaskGroup, DeadlineSkipsLateTasks)
{
    ThreadPool pool(1);
    TaskGroup group(pool);
    std::atomic<int> completed{0};
    std::atomic<bool> release{false};
    group.run([&release] {
        while (!release.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    // Already-expired deadline: tasks are skipped when dequeued and the
    // group reports DeadlineExceeded at the join.
    const auto past =
        std::chrono::steady_clock::now() - std::chrono::milliseconds(10);
    for (int i = 0; i < 8; ++i)
        group.runWithDeadline([&completed] { ++completed; }, past);
    release.store(true);
    EXPECT_THROW(group.wait(), DeadlineExceeded);
    EXPECT_EQ(completed.load(), 0);
    EXPECT_EQ(group.skipped(), 8u);
}

TEST(TaskGroup, FutureDeadlineDoesNotSkip)
{
    ThreadPool pool(2);
    TaskGroup group(pool);
    std::atomic<int> completed{0};
    const auto future =
        std::chrono::steady_clock::now() + std::chrono::minutes(5);
    for (int i = 0; i < 16; ++i)
        group.runWithDeadline([&completed] { ++completed; }, future);
    group.wait();
    EXPECT_EQ(completed.load(), 16);
    EXPECT_EQ(group.skipped(), 0u);
}

TEST(CancelToken, PollThrowsAfterCancel)
{
    CancelToken token;
    EXPECT_NO_THROW(token.poll());
    token.requestCancel();
    EXPECT_TRUE(token.cancelled());
    EXPECT_THROW(token.poll(), Cancelled);
}

TEST(CancelToken, DeadlineExpires)
{
    CancelToken token;
    EXPECT_FALSE(token.hasDeadline());
    token.setTimeout(0.0); // ignored
    EXPECT_FALSE(token.hasDeadline());
    token.setDeadline(CancelToken::Clock::now() -
                      std::chrono::milliseconds(1));
    EXPECT_TRUE(token.hasDeadline());
    EXPECT_TRUE(token.deadlineExpired());
    EXPECT_THROW(token.poll(), DeadlineExceeded);
}

TEST(TaskGroup, ReusableAfterWait)
{
    ThreadPool pool(2);
    TaskGroup group(pool);
    std::atomic<int> counter{0};
    group.run([&counter] { ++counter; });
    group.wait();
    group.run([&counter] { ++counter; });
    group.wait();
    EXPECT_EQ(counter.load(), 2);
}

} // namespace
} // namespace drs::exec
