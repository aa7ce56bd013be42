#include "exec/thread_pool.h"

#include "exec/cancel.h"
#include "obs/env.h"

#include <utility>

namespace drs::exec {

int
defaultConcurrency()
{
    int jobs = 0;
    if (obs::envInt("DRS_JOBS", &jobs, 1, kMaxJobs))
        return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads)
{
    const std::size_t n = threads > 1 ? static_cast<std::size_t>(threads) : 1;
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        workers_.push_back(std::make_unique<Worker>());
    threads_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(sleepMutex_);
        stop_.store(true);
    }
    sleepCv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    const std::size_t target =
        nextQueue_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
    {
        std::lock_guard<std::mutex> lock(workers_[target]->mutex);
        workers_[target]->queue.push_back(std::move(task));
    }
    // Serialize with the workers' empty-check-then-wait (the lock is what
    // makes the notify visible; without it a push between a worker's check
    // and its wait would be a lost wakeup).
    {
        std::lock_guard<std::mutex> lock(sleepMutex_);
    }
    sleepCv_.notify_one();
}

bool
ThreadPool::tryPop(std::size_t index, std::function<void()> &task)
{
    // Own queue first (front: most recently pushed locality)...
    {
        Worker &own = *workers_[index];
        std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.queue.empty()) {
            task = std::move(own.queue.front());
            own.queue.pop_front();
            return true;
        }
    }
    // ...then steal from the back of the other queues.
    for (std::size_t k = 1; k < workers_.size(); ++k) {
        Worker &victim = *workers_[(index + k) % workers_.size()];
        std::lock_guard<std::mutex> lock(victim.mutex);
        if (!victim.queue.empty()) {
            task = std::move(victim.queue.back());
            victim.queue.pop_back();
            tasksStolen_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(std::size_t index)
{
    for (;;) {
        std::function<void()> task;
        if (tryPop(index, task)) {
            // Count before running: the task body is what signals a
            // TaskGroup join, so an increment after task() could still be
            // pending when a waiter wakes and reads the counter.
            tasksExecuted_.fetch_add(1, std::memory_order_relaxed);
            task();
            continue;
        }
        std::unique_lock<std::mutex> lock(sleepMutex_);
        if (stop_.load())
            return;
        // Re-check under the lock: a submit between tryPop and here would
        // otherwise be missed until the next notify.
        bool any = false;
        for (const auto &w : workers_) {
            std::lock_guard<std::mutex> qlock(w->mutex);
            any = any || !w->queue.empty();
        }
        if (any)
            continue;
        sleepCv_.wait(lock);
    }
}

void
TaskGroup::run(std::function<void()> task)
{
    submit(std::move(task), Deadline{});
}

void
TaskGroup::runWithDeadline(std::function<void()> task,
                           std::chrono::steady_clock::time_point deadline)
{
    submit(std::move(task), Deadline{true, deadline});
}

void
TaskGroup::submit(std::function<void()> task, Deadline deadline)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++pending_;
    }
    pool_.submit([this, task = std::move(task), deadline] {
        // Decide skip-vs-run at dequeue time: a cancelled group (first
        // error or explicit cancel()) or an expired deadline drops the
        // task before it starts; running tasks are never interrupted.
        bool skip = cancelled();
        bool expired = false;
        if (!skip && deadline.active &&
            std::chrono::steady_clock::now() >= deadline.at) {
            skip = true;
            expired = true;
        }
        if (skip) {
            std::unique_lock<std::mutex> lock(mutex_);
            ++skipped_;
            if (expired && !error_)
                error_ = std::make_exception_ptr(DeadlineExceeded(
                    "task skipped: group deadline exceeded"));
            if (--pending_ == 0)
                cv_.notify_all();
            return;
        }
        try {
            task();
        } catch (...) {
            recordError(std::current_exception());
        }
        std::lock_guard<std::mutex> lock(mutex_);
        if (--pending_ == 0)
            cv_.notify_all();
    });
}

void
TaskGroup::recordError(std::exception_ptr error)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!error_)
            error_ = std::move(error);
    }
    // First error cancels the group: unstarted siblings of a failed
    // batch are skipped instead of wasting workers.
    cancel();
}

std::size_t
TaskGroup::skipped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return skipped_;
}

void
TaskGroup::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return pending_ == 0; });
    // Joining resets the group for reuse: the error is consumed here and
    // a cancellation no longer applies to tasks submitted afterwards.
    cancelled_.store(false, std::memory_order_release);
    if (error_) {
        std::exception_ptr e = error_;
        error_ = nullptr;
        lock.unlock();
        std::rethrow_exception(e);
    }
}

void
TaskGroup::waitNoThrow()
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return pending_ == 0; });
}

} // namespace drs::exec
