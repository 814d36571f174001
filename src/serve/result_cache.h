#ifndef GSTORED_SERVE_RESULT_CACHE_H_
#define GSTORED_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/local_partial_match.h"
#include "serve/lru_cache.h"
#include "sparql/query_graph.h"

namespace gstored::serve {

/// Exact, order-sensitive encoding of a query instance: vertex labels
/// verbatim (constants included) and the edge list in input order. Binding
/// columns are indexed by the instance's own vertex numbering, which the
/// key fixes, so equal keys mean byte-identical queries and a result- or
/// LPM-cache hit is byte-identical to recomputing.
std::string ExactQueryKey(const QueryGraph& query);

/// The plan cache's key: ExactQueryKey's encoding without the vertex labels
/// and predicate-variable names. The variable/constant flags, the vertex
/// numbering, the edge order and every constant predicate label stay, so
/// two queries share a key only when they are one template written in one
/// vertex numbering, and a cached plan replays as is. One template written
/// with its patterns in another order gets other vertex numbers, and so
/// another key.
std::string QueryShapeKey(const QueryGraph& query);

/// An exact key qualified by the engine mode: the result cache's key and
/// the coalescing identity. Modes differ in pruning/exchange strategy, so
/// their stats — and under faults their degradation — are not
/// interchangeable.
std::string ExactModeKey(const std::string& exact_key, EngineMode mode);

/// Whole-outcome cache for hot (query instance, mode) pairs. Only exact,
/// fault-free, non-cancelled outcomes are admitted (the scheduler checks the
/// stats), so a hit always replays the one deterministic answer. Invalidated
/// explicitly or by the scheduler's store-epoch check on Finalize().
///
/// Admission is generation-stamped: the scheduler reads generation() at
/// dispatch and hands it back to Put. A query that started before a
/// Finalize() computed its answer on the old store; if the epoch flush ran
/// while it executed, the stamped generation no longer matches and the
/// stale Put is dropped instead of poisoning the flushed cache.
///
/// Bounded by bytes when `capacity_bytes != 0` (the same weigher-backed
/// bound the LPM cache got): entries are weighed by their resident match
/// payload plus the per-site reports, so one unselective template's huge
/// answer cannot squeeze out thousands of small ones the way a pure entry
/// count lets it. The entry-count capacity remains a second ceiling.
class ResultCache {
 public:
  explicit ResultCache(size_t capacity, size_t capacity_bytes = 0)
      : cache_(capacity, capacity_bytes, &WeighOutcome) {}

  bool Get(const std::string& key, EngineMode mode, QueryOutcome* outcome) {
    return cache_.Get(ExactModeKey(key, mode), outcome);
  }
  /// Inserts only when the cache has not been flushed since `generation`
  /// was read (see class comment). Returns whether the insert happened.
  bool Put(const std::string& key, EngineMode mode,
           const QueryOutcome& outcome, uint64_t generation) {
    return cache_.PutIfGeneration(ExactModeKey(key, mode), outcome,
                                  generation);
  }

  /// Flush counter to stamp into Put; bumped by every Clear().
  uint64_t generation() const { return cache_.generation(); }

  void Clear() { cache_.Clear(); }
  size_t size() const { return cache_.size(); }
  /// Resident payload bytes (0 unless byte-bounded).
  size_t bytes() const { return cache_.bytes(); }

 private:
  /// Resident bytes of one cached outcome: the match rows (dominant for
  /// unselective templates) plus the per-site report vector; the stats
  /// struct rides in sizeof(QueryOutcome).
  static size_t WeighOutcome(const QueryOutcome& outcome) {
    size_t bytes = sizeof(QueryOutcome);
    for (const Binding& binding : outcome.matches) {
      bytes += sizeof(Binding) + binding.capacity() * sizeof(TermId);
    }
    bytes += outcome.sites.capacity() * sizeof(SiteReport);
    return bytes;
  }

  LruCache<QueryOutcome> cache_;
};

/// One site's stage-B computation: its complete local matches plus its local
/// partial matches.
struct SitePartialEval {
  std::vector<Binding> matches;
  std::vector<LocalPartialMatch> lpms;
};

/// Per-(query instance, site, filter fingerprint) cache of stage-B results,
/// feeding QueryContext::lpm_cache_get/put. The fingerprint covers the
/// candidate-exchange filters the site enumerated under (0 = unfiltered), so
/// the same template keys differently under different exchanged filters; the
/// mode is deliberately *not* part of the key — given equal filters, matches
/// and LPM sets are mode-independent, so kBasic..kFull share entries.
///
/// Bounded by bytes when `capacity_bytes != 0`: entries are weighed by their
/// resident binding/LPM payload, so one unselective template's huge stage-B
/// sets cannot squeeze out thousands of small ones the way a pure entry
/// count lets it. The entry-count capacity remains a second ceiling.
class LpmCache {
 public:
  explicit LpmCache(size_t capacity, size_t capacity_bytes = 0)
      : cache_(capacity, capacity_bytes, &WeighEntry) {}

  bool Get(const std::string& query_key, int site, uint64_t fingerprint,
           std::vector<Binding>* matches,
           std::vector<LocalPartialMatch>* lpms) {
    SitePartialEval value;
    if (!cache_.Get(SiteKey(query_key, site, fingerprint), &value)) {
      return false;
    }
    *matches = std::move(value.matches);
    *lpms = std::move(value.lpms);
    return true;
  }
  /// Generation-stamped like ResultCache::Put: a stage-B result computed
  /// before an epoch flush must not re-enter the flushed cache. Returns
  /// whether the insert happened.
  bool Put(const std::string& query_key, int site, uint64_t fingerprint,
           std::vector<Binding> matches, std::vector<LocalPartialMatch> lpms,
           uint64_t generation) {
    return cache_.PutIfGeneration(
        SiteKey(query_key, site, fingerprint),
        SitePartialEval{std::move(matches), std::move(lpms)}, generation);
  }

  /// Flush counter to stamp into Put; bumped by every Clear().
  uint64_t generation() const { return cache_.generation(); }

  void Clear() { cache_.Clear(); }
  size_t size() const { return cache_.size(); }
  /// Resident payload bytes (0 unless byte-bounded).
  size_t bytes() const { return cache_.bytes(); }

 private:
  /// Resident bytes of one stage-B entry: binding rows plus each LPM's
  /// serialized payload (LocalPartialMatch::ByteSize covers binding,
  /// crossing mappings and signature words).
  static size_t WeighEntry(const SitePartialEval& value) {
    size_t bytes = sizeof(SitePartialEval);
    for (const Binding& binding : value.matches) {
      bytes += sizeof(Binding) + binding.capacity() * sizeof(TermId);
    }
    for (const LocalPartialMatch& lpm : value.lpms) {
      bytes += sizeof(LocalPartialMatch) + lpm.ByteSize();
    }
    return bytes;
  }

  static std::string SiteKey(const std::string& query_key, int site,
                             uint64_t fingerprint) {
    std::string out = query_key;
    out.push_back('\x1f');
    for (int shift = 0; shift < 32; shift += 8) {
      out.push_back(static_cast<char>((static_cast<uint32_t>(site) >> shift) &
                                      0xff));
    }
    for (int shift = 0; shift < 64; shift += 8) {
      out.push_back(static_cast<char>((fingerprint >> shift) & 0xff));
    }
    return out;
  }

  LruCache<SitePartialEval> cache_;
};

}  // namespace gstored::serve

#endif  // GSTORED_SERVE_RESULT_CACHE_H_
