#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace gstored {

ThreadPool::ThreadPool(size_t num_workers) {
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(
    size_t n, size_t max_slots,
    const std::function<void(size_t index, size_t slot)>& fn) {
  size_t slots = std::min({max_slots, num_workers() + 1, n});
  if (slots <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }

  // The loop state is heap-allocated and co-owned by every helper closure:
  // the caller returns as soon as all n indexes have *completed*, not when
  // all helpers have run. A helper dequeued late (e.g. the shared pool was
  // busy serving another site) finds the counter exhausted, drops its
  // reference and exits without ever blocking the caller.
  struct State {
    std::function<void(size_t, size_t)> fn;
    size_t n;
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    size_t completed = 0;
    std::exception_ptr error;
  };
  auto state = std::make_shared<State>();
  state->fn = fn;
  state->n = n;

  auto drain = [](const std::shared_ptr<State>& s, size_t slot) {
    for (size_t i;
         (i = s->next.fetch_add(1, std::memory_order_relaxed)) < s->n;) {
      // A throwing fn (e.g. bad_alloc) must not let any participant skip
      // the completion accounting: the caller's frame owns the output
      // storage, so it may only unwind once every claimed index is done.
      // The first exception is kept and rethrown on the caller's thread.
      std::exception_ptr error;
      try {
        s->fn(i, slot);
      } catch (...) {
        error = std::current_exception();
      }
      // Notify while holding the lock: the caller may return (and release
      // its reference) the moment its wait observes the final count, so an
      // unlocked notify could race with the caller's stack unwinding when
      // it also holds the last non-helper reference.
      std::lock_guard<std::mutex> lock(s->mu);
      if (error != nullptr && s->error == nullptr) s->error = error;
      if (++s->completed == s->n) s->cv.notify_one();
    }
  };

  for (size_t slot = 1; slot < slots; ++slot) {
    Enqueue([state, drain, slot] { drain(state, slot); });
  }

  drain(state, 0);

  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->completed == state->n; });
  if (state->error != nullptr) std::rethrow_exception(state->error);
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool(
      std::max<size_t>(1, std::thread::hardware_concurrency()));
  return *pool;
}

}  // namespace gstored
