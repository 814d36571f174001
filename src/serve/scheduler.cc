#include "serve/scheduler.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace gstored::serve {

namespace {

/// Entry-count capacities of the three caches. The result and LPM caches
/// can add a byte budget on top (ServeOptions::*_capacity_bytes).
constexpr size_t kPlanCacheCapacity = 256;
constexpr size_t kResultCacheCapacity = 512;
constexpr size_t kLpmCacheCapacity = 4096;

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Only exact, fault-free, non-cancelled outcomes are cacheable: a degraded
/// or aborted run is a sound *subset* of the answer, and replaying a subset
/// as if it were the answer would silently lose matches. The same rule gates
/// coalescing fan-out — followers of an unclean leader execute themselves.
bool CleanRun(const QueryOutcome& outcome) {
  const QueryStats& stats = outcome.stats;
  return outcome.exact && !stats.cancelled && stats.transport_retries == 0 &&
         stats.hedged_sites == 0 && !stats.exchange_degraded &&
         !stats.pruning_degraded;
}

QueryOutcome CancelledOutcome() {
  QueryOutcome outcome;
  outcome.exact = false;
  outcome.stats.cancelled = true;
  outcome.stats.exact = false;
  return outcome;
}

}  // namespace

const QueryOutcome& QueryTicket::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return done_; });
  return outcome_;
}

bool QueryTicket::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

ServingEngine::ServingEngine(const DistributedEngine* engine,
                             ServeOptions options)
    : engine_(engine),
      options_(options),
      total_slots_(options.total_slots != 0
                       ? options.total_slots
                       : std::max<size_t>(
                             1, std::thread::hardware_concurrency())),
      plan_cache_(kPlanCacheCapacity),
      result_cache_(kResultCacheCapacity,
                    options.result_cache_capacity_bytes),
      lpm_cache_(kLpmCacheCapacity, options.lpm_cache_capacity_bytes) {
  GSTORED_CHECK(engine != nullptr);
  last_epoch_sum_.store(StoreEpochSum(), std::memory_order_relaxed);
  const size_t dispatchers = std::max<size_t>(1, options_.max_inflight);
  dispatchers_.reserve(dispatchers);
  for (size_t i = 0; i < dispatchers; ++i) {
    dispatchers_.emplace_back([this] { DispatcherLoop(); });
  }
}

ServingEngine::~ServingEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : dispatchers_) t.join();
  // Anything still queued never ran; complete it as cancelled so Wait()
  // callers are released. Coalescing followers were resolved by their
  // leaders before the dispatchers exited (a leader always drains its
  // in-flight entry), so inflight_ is empty here; the drain below is a
  // defensive backstop against a Wait() hang if that invariant ever broke.
  std::map<int, std::deque<std::shared_ptr<QueryTicket>>> leftover;
  std::unordered_map<std::string, std::vector<std::shared_ptr<QueryTicket>>>
      orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftover.swap(lanes_);
    orphans.swap(inflight_);
    queued_ = 0;
  }
  for (auto& [lane, queue] : leftover) {
    for (const auto& ticket : queue) {
      CompleteTicket(ticket, CancelledOutcome());
    }
  }
  for (auto& [key, followers] : orphans) {
    for (const auto& ticket : followers) {
      CompleteTicket(ticket, CancelledOutcome());
    }
  }
}

std::shared_ptr<QueryTicket> ServingEngine::Submit(const QueryGraph& query,
                                                   SubmitOptions opts) {
  auto ticket = std::make_shared<QueryTicket>();
  ticket->query_ = query;
  ticket->mode_ = opts.mode;
  ticket->lane_ = opts.lane;
  ticket->deadline_ms_ = opts.deadline_ms;
  ticket->submitted_ = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    GSTORED_CHECK(!stop_);
    lanes_[opts.lane].push_back(ticket);
    ++queued_;
  }
  cv_.notify_one();
  return ticket;
}

void ServingEngine::DispatcherLoop() {
  while (true) {
    std::shared_ptr<QueryTicket> ticket;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || queued_ > 0; });
      // In-flight queries finish; queued ones are cancelled by the
      // destructor's drain (see ~ServingEngine).
      if (stop_) return;
      ticket = PickNextLocked();
    }
    ticket->dispatch_seq_ =
        next_dispatch_seq_.fetch_add(1, std::memory_order_relaxed);
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    RunTicket(ticket);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

std::shared_ptr<QueryTicket> ServingEngine::PickNextLocked() {
  // Lane-fair: resume strictly after the last lane served, wrapping.
  // Drained lanes are erased eagerly (below), so every mapped lane is
  // non-empty and the first step lands on a servable lane.
  auto it = lanes_.upper_bound(last_lane_);
  if (it == lanes_.end()) it = lanes_.begin();
  GSTORED_CHECK(it != lanes_.end() && !it->second.empty());
  std::deque<std::shared_ptr<QueryTicket>>& queue = it->second;
  std::shared_ptr<QueryTicket> ticket = std::move(queue.front());
  queue.pop_front();
  --queued_;
  last_lane_ = it->first;
  if (queue.empty()) lanes_.erase(it);
  return ticket;
}

void ServingEngine::RunTicket(const std::shared_ptr<QueryTicket>& ticket) {
  MaybeFlushOnEpochChange();
  const QueryGraph& query = ticket->query_;
  const EngineMode mode = ticket->mode_;

  const std::string exact_key = ExactQueryKey(query);
  // Admission generations, read at dispatch: a Put carrying them is dropped
  // if an epoch flush cleared the cache while this query was executing —
  // the answer it computed describes the pre-flush store.
  const uint64_t result_generation = result_cache_.generation();
  const uint64_t lpm_generation = lpm_cache_.generation();

  // ---- Coalescing: if an identical (exact key, mode) query is already in
  // flight, park this ticket on its leader and free the dispatcher — the
  // leader's ResolveFollowers delivers a copy of its clean outcome (or
  // re-enqueues us if the leader degraded). Otherwise register as the
  // leader for the key. Registration comes BEFORE the result-cache probe:
  // a finishing leader admits its outcome to the cache before erasing its
  // in-flight entry, so a duplicate that finds the entry gone is guaranteed
  // to find the cache filled — probing first would leave a window where the
  // duplicate misses both and re-executes.
  const std::string coalesce_key = ExactModeKey(exact_key, mode);
  if (options_.coalesce_inflight) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(coalesce_key);
    if (it != inflight_.end()) {
      it->second.push_back(ticket);
      coalesce_attached_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    inflight_.emplace(coalesce_key,
                      std::vector<std::shared_ptr<QueryTicket>>());
  }

  if (options_.use_result_cache) {
    QueryOutcome cached;
    if (result_cache_.Get(exact_key, mode, &cached)) {
      result_hits_.fetch_add(1, std::memory_order_relaxed);
      // A hit is not the original run: present hit-scoped stats (the cached
      // timings/counters describe the miss that filled the entry).
      cached.stats = QueryStats();
      cached.stats.result_cache_hit = true;
      cached.stats.exact = cached.exact;
      cached.stats.num_matches = cached.matches.size();
      // Duplicates may have attached while this leader was being dispatched;
      // the cached outcome is clean, so they fan out from it.
      if (options_.coalesce_inflight) {
        ResolveFollowers(coalesce_key, cached);
      }
      CompleteTicket(ticket, std::move(cached));
      return;
    }
  }

  // ---- Plan cache: look up the shape as written and fill the entry on
  // first sight (scoring orders against the shared stores). The key fixes
  // the vertex numbering, so the engine reads the cached plan as is. The
  // fill happens outside the engine, so a filled plan executes with
  // stats.order_scorings == 0 — the "hit skips order scoring" contract.
  bool created = false;
  const std::shared_ptr<CachedPlan> entry =
      plan_cache_.FindOrCreate(QueryShapeKey(query), &created);
  (created ? plan_misses_ : plan_hits_)
      .fetch_add(1, std::memory_order_relaxed);
  if (!entry->ready.load(std::memory_order_acquire)) {
    FillCachedPlan(*engine_, query, entry.get());
  }

  // ---- Per-query session and context: fresh ledger + transport stamped
  // with a unique session id, the carved slot budget, and the caller's
  // deadline/cancellation.
  QuerySession session(engine_->num_sites(), engine_->options().fault_plan,
                       next_session_.fetch_add(1, std::memory_order_relaxed));
  QueryContext ctx;
  ctx.ledger = &session.ledger;
  ctx.transport = &session.transport;
  const size_t active =
      std::max<size_t>(1, in_flight_.load(std::memory_order_relaxed));
  ctx.num_threads = std::max<size_t>(1, total_slots_ / active);
  ctx.cancel = &ticket->cancel_;
  ctx.deadline_ms = ticket->deadline_ms_;
  if (entry->ready.load(std::memory_order_acquire)) ctx.plan = &entry->plan;
  if (options_.use_lpm_cache) {
    ctx.lpm_cache_get = [this, &exact_key](
                            int site, uint64_t fingerprint,
                            std::vector<Binding>* matches,
                            std::vector<LocalPartialMatch>* lpms) {
      return lpm_cache_.Get(exact_key, site, fingerprint, matches, lpms);
    };
    ctx.lpm_cache_put = [this, &exact_key, lpm_generation](
                            int site, uint64_t fingerprint,
                            const std::vector<Binding>& matches,
                            const std::vector<LocalPartialMatch>& lpms) {
      lpm_cache_.Put(exact_key, site, fingerprint, matches, lpms,
                     lpm_generation);
    };
  }

  executed_.fetch_add(1, std::memory_order_relaxed);
  QueryOutcome outcome = engine_->Run({query, mode, ctx});
  lpm_hits_.fetch_add(outcome.stats.lpm_cache_hits,
                      std::memory_order_relaxed);
  if (options_.post_execute_hook) options_.post_execute_hook();

  if (options_.use_result_cache && CleanRun(outcome)) {
    result_cache_.Put(exact_key, mode, outcome, result_generation);
  }
  if (options_.coalesce_inflight) {
    ResolveFollowers(coalesce_key, outcome);
  }
  CompleteTicket(ticket, std::move(outcome));
}

void ServingEngine::ResolveFollowers(const std::string& key,
                                     const QueryOutcome& outcome) {
  std::vector<std::shared_ptr<QueryTicket>> followers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(key);
    GSTORED_CHECK(it != inflight_.end());
    followers.swap(it->second);
    inflight_.erase(it);
  }
  if (followers.empty()) return;

  if (CleanRun(outcome)) {
    // Fan out: each follower gets a copy of the leader's answer with fresh,
    // hit-scoped stats (mirroring a result-cache hit — the leader's timings
    // describe its run, not the follower's). A follower cancelled while
    // parked detaches with a cancelled outcome; its cancellation never
    // propagated to the leader.
    for (const auto& follower : followers) {
      if (follower->cancel_.cancelled()) {
        CompleteTicket(follower, CancelledOutcome());
        continue;
      }
      QueryOutcome copy = outcome;
      copy.stats = QueryStats();
      copy.stats.coalesced_hit = true;
      copy.stats.exact = copy.exact;
      copy.stats.num_matches = copy.matches.size();
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      CompleteTicket(follower, std::move(copy));
    }
    return;
  }

  // Unclean leader (degraded, hedged, retried, or cancelled): its outcome is
  // a sound subset at best, and sharing a subset would silently lose
  // matches for callers who never opted into the leader's fate. Release the
  // followers to execute themselves — front of their lanes, so they don't
  // requeue behind traffic that arrived after them. (The leader's entry is
  // already erased, so one of them may become the key's next leader.)
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto follower = followers.rbegin(); follower != followers.rend();
         ++follower) {
      lanes_[(*follower)->lane_].push_front(*follower);
      ++queued_;
      coalesce_released_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  cv_.notify_all();
}

void ServingEngine::CompleteTicket(const std::shared_ptr<QueryTicket>& ticket,
                                   QueryOutcome outcome) {
  {
    std::lock_guard<std::mutex> lock(ticket->mu_);
    ticket->outcome_ = std::move(outcome);
    ticket->latency_ms_ = MillisSince(ticket->submitted_);
    ticket->done_ = true;
  }
  ticket->cv_.notify_all();
}

uint64_t ServingEngine::StoreEpochSum() const {
  uint64_t sum = 0;
  for (const Fragment& fragment : engine_->partitioning().fragments()) {
    sum += fragment.graph().finalize_epoch();
  }
  return sum;
}

void ServingEngine::MaybeFlushOnEpochChange() {
  const uint64_t sum = StoreEpochSum();
  uint64_t last = last_epoch_sum_.load(std::memory_order_relaxed);
  if (sum == last) return;
  if (last_epoch_sum_.compare_exchange_strong(last, sum,
                                              std::memory_order_relaxed)) {
    epoch_flushes_.fetch_add(1, std::memory_order_relaxed);
    InvalidateCaches();
  }
}

void ServingEngine::InvalidateCaches() {
  plan_cache_.Clear();
  result_cache_.Clear();
  lpm_cache_.Clear();
}

ServingEngine::Counters ServingEngine::counters() const {
  Counters c;
  c.executed = executed_.load(std::memory_order_relaxed);
  c.result_hits = result_hits_.load(std::memory_order_relaxed);
  c.plan_hits = plan_hits_.load(std::memory_order_relaxed);
  c.plan_misses = plan_misses_.load(std::memory_order_relaxed);
  c.lpm_hits = lpm_hits_.load(std::memory_order_relaxed);
  c.epoch_flushes = epoch_flushes_.load(std::memory_order_relaxed);
  c.coalesce_attached = coalesce_attached_.load(std::memory_order_relaxed);
  c.coalesced = coalesced_.load(std::memory_order_relaxed);
  c.coalesce_released = coalesce_released_.load(std::memory_order_relaxed);
  return c;
}

size_t ServingEngine::active_lanes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lanes_.size();
}

}  // namespace gstored::serve
