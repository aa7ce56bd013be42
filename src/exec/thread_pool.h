#pragma once

/**
 * @file
 * Host-side parallel execution primitives for the simulator: a
 * work-stealing thread pool and a task group for fork/join batches. This
 * library sits below src/simt in the dependency order (it knows nothing
 * about rendering or simulation) so both the sweep harness and the
 * parallel GPU engine can use it.
 *
 * Design: each worker owns a deque protected by a light mutex; submitters
 * distribute round-robin, workers pop from their own front (LIFO, cache
 * warm) and steal from other workers' backs (FIFO, coarse tasks first).
 * A pool of size <= 1 still runs tasks on a worker thread; callers that
 * want strictly inline execution (determinism debugging) simply don't go
 * through a pool.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace drs::exec {

/** Upper bound of DRS_JOBS and the benches' --jobs/--fleet/--smx-threads. */
inline constexpr int kMaxJobs = 1'000'000;

/**
 * Parallel worker count for this process: `DRS_JOBS` from the environment
 * when set to an integer in [1, kMaxJobs] (malformed values warn on
 * stderr), else std::thread::hardware_concurrency(), else 1.
 */
int defaultConcurrency();

/** A fixed-size work-stealing thread pool. */
class ThreadPool
{
  public:
    /** @param threads worker count; clamped to at least 1 */
    explicit ThreadPool(int threads);

    /** Drains nothing: outstanding tasks are completed before teardown. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one task. Never blocks. */
    void submit(std::function<void()> task);

    int threadCount() const { return static_cast<int>(threads_.size()); }

    /** Tasks submitted over the pool's lifetime (observability/tests). */
    std::uint64_t tasksExecuted() const { return tasksExecuted_.load(); }

    /** Tasks stolen from another worker's queue (work-stealing proof). */
    std::uint64_t tasksStolen() const { return tasksStolen_.load(); }

  private:
    struct Worker
    {
        std::deque<std::function<void()>> queue;
        std::mutex mutex;
    };

    void workerLoop(std::size_t index);
    bool tryPop(std::size_t index, std::function<void()> &task);

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;
    std::mutex sleepMutex_;
    std::condition_variable sleepCv_;
    std::atomic<bool> stop_{false};
    std::atomic<std::size_t> nextQueue_{0};
    std::atomic<std::uint64_t> tasksExecuted_{0};
    std::atomic<std::uint64_t> tasksStolen_{0};
};

/**
 * Fork/join helper: submit a batch of tasks to a pool and wait for all of
 * them. Exceptions thrown by tasks are captured on the worker — they
 * never cross a thread boundary raw (no std::terminate) — and the first
 * one rethrows from wait().
 *
 * Failure containment: the first captured error cancels the group, so
 * queued-but-unstarted siblings are skipped instead of burning workers
 * on a batch that already failed. cancel() does the same on demand, and
 * runWithDeadline() skips tasks still queued when their deadline passes
 * (a skipped task counts in skipped() and is recorded as a
 * DeadlineExceeded group error). Tasks already running are never
 * interrupted — cancellation inside a task is cooperative
 * (exec::CancelToken).
 */
class TaskGroup
{
  public:
    explicit TaskGroup(ThreadPool &pool) : pool_(pool) {}

    /** Groups must be joined before destruction. */
    ~TaskGroup() { waitNoThrow(); }

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    void run(std::function<void()> task);

    /**
     * Like run(), but the task is skipped (not executed) when it is
     * dequeued after @p deadline; the skip is recorded as a
     * DeadlineExceeded group error.
     */
    void runWithDeadline(std::function<void()> task,
                         std::chrono::steady_clock::time_point deadline);

    /**
     * Skip every task of this group not yet started. Running tasks
     * finish normally; wait() still joins them all.
     */
    void cancel() { cancelled_.store(true, std::memory_order_release); }

    bool cancelled() const
    {
        return cancelled_.load(std::memory_order_acquire);
    }

    /** Tasks skipped by cancellation or an expired deadline. */
    std::size_t skipped() const;

    /**
     * Block until every task run() so far has finished; rethrow first
     * error. Joining re-arms the group: the error is consumed and a
     * cancellation no longer applies to tasks submitted afterwards
     * (skipped() stays cumulative).
     */
    void wait();

  private:
    struct Deadline
    {
        bool active = false;
        std::chrono::steady_clock::time_point at{};
    };

    void submit(std::function<void()> task, Deadline deadline);
    void recordError(std::exception_ptr error);
    void waitNoThrow();

    ThreadPool &pool_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::size_t pending_ = 0;
    std::size_t skipped_ = 0;
    std::exception_ptr error_;
    std::atomic<bool> cancelled_{false};
};

} // namespace drs::exec
