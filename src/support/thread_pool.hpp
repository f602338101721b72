#pragma once

/// \file thread_pool.hpp
/// A small fixed-size thread pool with a parallel_for helper. PEAK uses it
/// to tune independent tuning sections concurrently and to parallelize
/// consistency sweeps in the benchmark harnesses. The pool is deliberately
/// simple: one mutex-protected deque, condition-variable wakeups, futures
/// for results — predictable behaviour matters more here than peak queue
/// throughput, since tasks are milliseconds long.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace peak::support {

class ThreadPool {
public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(unsigned threads = 0) {
    if (threads == 0) {
      threads = std::thread::hardware_concurrency();
      if (threads == 0) threads = 1;
    }
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueue a task; the returned future propagates exceptions.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      PEAK_CHECK(!stopping_, "submit() on a stopped pool");
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run fn(i) for i in [begin, end), blocking until all complete.
  ///
  /// Iterations are claimed dynamically from an atomic counter rather than
  /// pre-assigned in fixed chunks: iteration costs are routinely skewed
  /// (tuning sections differ wildly in trace length), and static chunking
  /// strands the iterations queued behind one slow index while other
  /// workers sit idle. The calling thread participates in the drain, so
  /// every iteration runs even when called from inside a pool worker.
  ///
  /// Every iteration executes even if one throws; the first exception
  /// observed is rethrown after all iterations complete.
  template <typename Fn>
  void parallel_for(std::size_t begin, std::size_t end, Fn&& fn) {
    if (begin >= end) return;
    const std::size_t n = end - begin;
    std::atomic<std::size_t> next{begin};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    auto drain = [&next, end, &fn, &first_error, &error_mutex] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= end) return;
        try {
          fn(i);
        } catch (...) {
          std::lock_guard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      }
    };
    // One helper per worker is enough: each drains until the counter runs
    // out. The &-captures outlive the helpers because we join the futures
    // before returning.
    const std::size_t helpers = std::min<std::size_t>(n, size());
    std::vector<std::future<void>> futs;
    futs.reserve(helpers);
    for (std::size_t c = 0; c < helpers; ++c)
      futs.push_back(submit(drain));
    drain();  // the caller works instead of idling
    for (auto& f : futs) f.get();
    if (first_error) std::rethrow_exception(first_error);
  }

private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (stopping_ && queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace peak::support
