// Ablation: Algorithm 4's fixed bit-vector length. The paper argues the
// fixed length bounds communication while "smaller search space can speed up
// evaluating" — this bench sweeps the length and reports the trade-off
// between candidate shipment and the LPM population the filter leaves
// behind (shrinks, then saturates once the false-positive rate is
// negligible). Each site ships a variable's candidates as ids while they
// encode shorter than the vector (fewer than bits / 32 of them), so the
// bench also prints how many site entries went in each form. Shipment grows
// linearly with bits only while entries go as vectors; once every entry
// (and so every union) goes as ids, it stops growing with the length.
// Expected shape: LPM counts drop steeply up to a few KB per vector and
// flatten; shipment grows, then levels off as the entries turn into ids.

#include <cstdio>
#include <vector>

#include "core/candidate_exchange.h"
#include "core/local_partial_match.h"
#include "core/query_context.h"
#include "partition/partitioners.h"
#include "workload/lubm.h"

using namespace gstored;  // NOLINT — bench-local convenience

int main() {
  Workload w = MakeLubmWorkload(LubmScale(1));
  Partitioning p = HashPartitioner().Partition(*w.dataset, 6);
  std::vector<std::unique_ptr<LocalStore>> stores;
  std::vector<const LocalStore*> store_ptrs;
  for (const Fragment& f : p.fragments()) {
    stores.push_back(std::make_unique<LocalStore>(&f.graph()));
    store_ptrs.push_back(stores.back().get());
  }

  std::printf("=== Ablation: Alg. 4 bit-vector length (LUBM-style, LQ7) ===\n");
  std::printf("%-12s | %14s | %10s %10s | %10s | %12s\n", "bits/vector",
              "shipment KB", "id entries", "vectors", "#lpm", "fill ratio");

  const QueryGraph& query = w.queries[6].query;  // LQ7
  ResolvedQuery rq = ResolveQuery(query, w.dataset->dict());

  // Baseline without any filter.
  size_t unfiltered = 0;
  for (size_t s = 0; s < stores.size(); ++s) {
    unfiltered += EnumerateLocalPartialMatches(p.fragments()[s], *stores[s],
                                               rq).size();
  }
  std::printf("%-12s | %14s | %10s %10s | %10zu | %12s\n", "none", "0.0",
              "-", "-", unfiltered, "-");

  for (size_t bits : {1u << 8, 1u << 10, 1u << 12, 1u << 14, 1u << 16,
                      1u << 18}) {
    QuerySession session(static_cast<int>(p.num_fragments()));
    // The fixed-length Alg. 4 as written, broadcasting every union: this
    // sweep measures the raw bit-length trade-off, and withholding
    // saturated unions would drop exactly the small-vector rows it exists
    // to show.
    CandidateExchangeOptions exchange_options;
    exchange_options.filter_bits = bits;
    exchange_options.use_statistics = false;
    CandidateExchange exchange =
        ExchangeInternalCandidates(p, store_ptrs, rq, session.transport,
                                   session.ledger, exchange_options);
    EnumerateOptions options;
    options.extended_filter = [&](QVertexId v, TermId u) {
      if (!query.vertex(v).is_variable) return true;
      if (!exchange.exchanged[v]) return true;
      return exchange.filters[v].MayContain(u);
    };
    size_t lpms = 0;
    for (size_t s = 0; s < stores.size(); ++s) {
      lpms += EnumerateLocalPartialMatches(p.fragments()[s], *stores[s], rq,
                                           options).size();
    }
    double max_fill = 0;
    for (const auto& f : exchange.filters) {
      max_fill = std::max(max_fill, f.FillRatio());
    }
    std::printf("%-12zu | %14.1f | %10zu %10zu | %10zu | %12.3f\n", bits,
                static_cast<double>(exchange.shipment_bytes) / 1024.0,
                exchange.id_entries, exchange.vector_entries, lpms, max_fill);
  }
  return 0;
}
