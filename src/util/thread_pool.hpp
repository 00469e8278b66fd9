// Fixed-size thread pool with explicit shutdown semantics.
//
// The pool is deliberately minimal: fixed worker count, FIFO queue, futures
// for joining, no work stealing. The higher-level parallel_for lives in
// util/executor.hpp and runs on a shared, lazily-created global instance of
// this pool so hot paths do not pay thread creation per call.
//
// Shutdown semantics are explicit (ShutdownPolicy):
//   * kDrain (default): the destructor (or shutdown()) lets workers finish
//     every task already queued, then joins. No future is ever broken.
//   * kAbandon: workers finish only the task they are currently running;
//     everything still queued is destroyed unexecuted. Destroying an
//     unexecuted packaged_task stores std::future_error{broken_promise} in
//     its future, so waiters wake with an error instead of hanging forever.
#pragma once

#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace drel::util {

enum class ShutdownPolicy {
    kDrain,    ///< run all queued tasks before joining
    kAbandon,  ///< drop queued tasks; their futures get broken_promise
};

class ThreadPool {
 public:
    /// Spawns `num_threads` workers (>= 1). `policy` controls what happens
    /// to queued-but-unstarted tasks at shutdown (see ShutdownPolicy).
    explicit ThreadPool(std::size_t num_threads,
                        ShutdownPolicy policy = ShutdownPolicy::kDrain);

    /// Equivalent to shutdown(): applies the construction-time policy.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t num_threads() const noexcept { return workers_.size(); }

    /// Enqueues a task; the future resolves when it completes (exceptions
    /// propagate through the future). Throws if the pool is shutting down.
    std::future<void> submit(std::function<void()> task);

    /// Stops accepting work and joins all workers, applying the
    /// construction-time ShutdownPolicy. Idempotent; called by ~ThreadPool.
    /// With kAbandon, queued tasks are destroyed here and their futures
    /// receive std::future_error{broken_promise}.
    void shutdown();

 private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::queue<std::packaged_task<void()>> queue_;
    mutable std::mutex mutex_;
    std::condition_variable condition_;
    ShutdownPolicy policy_;
    bool stopping_ = false;
    bool joined_ = false;
};

}  // namespace drel::util
