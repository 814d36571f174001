#ifndef GSTORED_UTIL_THREAD_POOL_H_
#define GSTORED_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gstored {

/// A fixed-size worker pool with a shared task queue and a ParallelFor
/// helper. It runs every stage's sites (InProcessTransport::StageStream),
/// the intra-site hot paths those sites call (per-site matching and LPM
/// enumeration), and the coordinator-side LEC pruning and assembly joins
/// across seed groups. All of them reach it through the free ParallelFor
/// below.
///
/// The scheduling discipline is work-stealing-lite: ParallelFor does not
/// pre-partition the index space but lets every participant pull the next
/// index from a shared atomic counter, so skewed per-index costs (one start
/// candidate exploding, one island mask dominating) balance automatically.
///
/// Nesting / deadlock freedom: the caller of ParallelFor always
/// participates as slot 0 and drains the counter itself, and a helper
/// claims an index only while it runs, so a participant waits only for
/// indices that running participants have claimed. A ParallelFor therefore
/// completes even when every pool worker is busy — queued helper tasks
/// that arrive late simply find the counter exhausted — and `fn` may itself
/// call ParallelFor on the same pool (a site task running the matcher's
/// loop): nested calls complete on any pool size, 0 workers included.
class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads (0 is allowed: every ParallelFor
  /// then degenerates to a serial loop on the caller's thread).
  explicit ThreadPool(size_t num_workers);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers. Pending tasks are still executed before shutdown.
  ~ThreadPool();

  size_t num_workers() const { return workers_.size(); }

  /// Runs `fn(index, slot)` for every index in [0, n). At most
  /// min(max_slots, num_workers() + 1, n) participants run concurrently;
  /// each is handed a dense slot id in [0, participants) so callers can
  /// pre-allocate per-slot scratch state. The caller's thread is always
  /// slot 0. Indexes are claimed dynamically from a shared counter;
  /// `fn` may be invoked for any index from any slot, so per-index outputs
  /// must be written to per-index (or per-slot) storage. Returns as soon as
  /// every index has completed — helper tasks still queued behind other
  /// work at that point self-cancel and never delay the caller.
  void ParallelFor(size_t n, size_t max_slots,
                   const std::function<void(size_t index, size_t slot)>& fn);

  /// Process-wide pool, sized to the hardware concurrency: the default of
  /// EngineOptions::pool, so the sites and kernels of every engine without
  /// a pool of its own share it. Created on first use, never destroyed
  /// (workers park on the queue condition variable when idle).
  static ThreadPool& Shared();

 private:
  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// The one entry the transport's site fan-out and the four parallel kernels
/// (matcher, LPM enumerator, LEC pruning, LEC assembly) run their units
/// through: `fn(index, slot)` for every index in [0, n). With
/// `max_slots <= 1` or `n <= 1` it loops inline on the caller, in index
/// order, with slot 0, and never touches ThreadPool::Shared() — so
/// one-slot runs never create the shared pool.
/// Otherwise it runs `pool->ParallelFor(n, max_slots, fn)`, with
/// ThreadPool::Shared() standing in for a null `pool`. Either way the slots
/// handed to `fn` lie in [0, min(max_slots, n)), which bounds the per-slot
/// scratch a caller needs. A template so the one-slot loop calls `fn`
/// directly, as a hand-written serial loop would.
template <typename Fn>
void ParallelFor(ThreadPool* pool, size_t n, size_t max_slots, Fn&& fn) {
  if (max_slots <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  (pool != nullptr ? *pool : ThreadPool::Shared()).ParallelFor(n, max_slots,
                                                               fn);
}

/// The deterministic fan-out/merge shape shared by the matcher, the LPM
/// enumerator and the LEC chain join: `fill(index, slot, &out)` appends index `i`'s
/// results, and the output is their concatenation in ascending index order
/// — byte-identical for every slot count. At one slot (the inline case of
/// ParallelFor above) `fill` appends straight into the result. Otherwise
/// each index fills a private vector and the vectors are concatenated after
/// the ParallelFor barrier: one (empty) vector per index plus one
/// allocation per *productive* index, accepted deliberately because the
/// per-index search dominates.
template <typename T, typename Fill>
std::vector<T> ParallelForConcat(ThreadPool* pool, size_t n, size_t max_slots,
                                 Fill&& fill) {
  std::vector<T> out;
  if (max_slots <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fill(i, 0, &out);
    return out;
  }
  std::vector<std::vector<T>> parts(n);
  ParallelFor(pool, n, max_slots,
              [&](size_t i, size_t slot) { fill(i, slot, &parts[i]); });
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  out.reserve(total);
  for (auto& part : parts) {
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return out;
}

}  // namespace gstored

#endif  // GSTORED_UTIL_THREAD_POOL_H_
