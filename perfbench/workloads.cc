#include "workloads.h"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>

#include "baselines/systems.h"
#include "partition/partitioners.h"
#include "sparql/parser.h"
#include "store/local_store.h"
#include "store/matcher.h"
#include "util/rng.h"
#include "workload/lubm.h"
#include "workload/yago.h"

namespace perfbench {
namespace {

using gstored::QueryGraph;

constexpr int kSites = 4;
constexpr int kLubmComplexUniversities = 16;  // ~22.5k triples
constexpr int kServeZipfUniversities = 128;   // ~180k triples
constexpr int kYagoPersons = 2000;            // ~14.5k triples
constexpr double kZipfExponent = 0.6;
/// Generator seed of every dataset. The run seed does not reach the data:
/// with seeded datasets yago-lossy's per-query cost and shipment spread
/// about 20% across seeds (YQ3's result size follows the random influence
/// hubs), which would drown any change to the engine.
constexpr uint64_t kDataSeed = 1;
constexpr size_t kOracleCrossChecks = 8;

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Heap bytes in use across every malloc arena, mmapped chunks included.
double HeapBytes() {
  struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

constexpr double kMiB = 1024.0 * 1024.0;

/// Pins the calling thread, for the object's lifetime, to the n-th CPU it
/// may run on (modulo their count). Threads started while pinned would
/// inherit the pin.
class PinToNthCpu {
 public:
  explicit PinToNthCpu(size_t n) {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    std::vector<int> allowed;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) allowed.push_back(cpu);
    }
    if (allowed.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(allowed[n % allowed.size()], &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinToNthCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinToNthCpu(const PinToNthCpu&) = delete;
  PinToNthCpu& operator=(const PinToNthCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

gstored::LubmConfig LubmFor(WorkloadKind kind) {
  gstored::LubmConfig config;
  config.universities = kind == WorkloadKind::kServeZipf
                            ? kServeZipfUniversities
                            : kLubmComplexUniversities;
  config.seed = kDataSeed;
  return config;
}

/// yago-lossy's transport: 5% drop, 5% duplicate, reordering and virtual
/// latency. Hedging stays on (the EngineOptions default), so every answer
/// is still exact.
gstored::FaultPlan LossyPlan(uint64_t seed) {
  gstored::FaultPlan plan;
  plan.seed = seed;
  plan.reorder = true;
  plan.default_fault.drop_prob = 0.05;
  plan.default_fault.duplicate_prob = 0.05;
  plan.default_fault.latency_mean_ms = 5.0;
  plan.default_fault.latency_jitter_ms = 2.0;
  return plan;
}

gstored::QueryGraph MustParse(const std::string& text) {
  gstored::Result<QueryGraph> parsed = gstored::ParseSparql(text);
  if (!parsed.ok()) Fail("cannot parse " + text);
  return std::move(parsed).value();
}

void SortUnique(std::vector<Binding>* rows) {
  std::sort(rows->begin(), rows->end());
  rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
}

const QueryGraph& FindQuery(const gstored::Workload& workload,
                            const std::string& name) {
  for (const gstored::BenchmarkQuery& q : workload.queries) {
    if (q.name == name) return q.query;
  }
  Fail("workload has no query " + name);
}

template <typename T>
void Shuffle(std::vector<T>* items, gstored::Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->Uniform(i)]);
  }
}

std::string Replace(std::string text, const std::string& from,
                    const std::string& to) {
  size_t pos = text.find(from);
  if (pos == std::string::npos) Fail("template lacks constant " + from);
  return text.replace(pos, from.size(), to);
}

std::string DeptIri(int u, int d, const std::string& local) {
  return "<http://www.univ" + std::to_string(u) + ".edu/dept" +
         std::to_string(d) + "#" + local + ">";
}

/// Class mix of a single-client stream: (query name, copies per block).
std::vector<std::pair<std::string, int>> ClassMix(WorkloadKind kind) {
  if (kind == WorkloadKind::kLubmComplex) {
    return {{"LQ7", 12}, {"LQ1", 4}, {"LQ6", 4}};  // 60/20/20
  }
  // 75/25, with enough positions to average over many fault patterns.
  return {{"YQ3", 36}, {"YQ1", 4}, {"YQ2", 4}, {"YQ4", 4}};
}

/// Single-client workloads: S2RDF relational analogue over the whole graph.
void BuildBlockMix(WorkloadKind kind, uint64_t seed,
                   const Deployment& deployment, QueryMix* mix) {
  const gstored::Dataset& dataset = *deployment.workload.dataset;
  gstored::S2RdfAnalog oracle(&dataset);
  mix->oracle = "s2rdf";
  for (const auto& [name, copies] : ClassMix(kind)) {
    DistinctQuery q;
    q.name = name;
    q.sparql = ToSparql(FindQuery(deployment.workload, name));
    q.graph = MustParse(q.sparql);
    q.reference = oracle.Execute(q.graph, nullptr);
    SortUnique(&q.reference);
    const uint32_t index = static_cast<uint32_t>(mix->distinct.size());
    mix->block.insert(mix->block.end(), copies, index);
    mix->distinct.push_back(std::move(q));
  }
  gstored::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  Shuffle(&mix->block, &rng);
}

/// serve-zipf: LQ3 per full professor, LQ4 and LQ5 per department. The
/// reference is a centralized MatchQuery over one whole-graph store (S2RDF
/// is too slow for 2560 instances); a sample is cross-checked with S2RDF.
void BuildZipfMix(uint64_t seed, const Deployment& deployment,
                  QueryMix* mix) {
  const gstored::Workload& workload = deployment.workload;
  const gstored::LubmConfig config = LubmFor(WorkloadKind::kServeZipf);
  const std::string lq3 = ToSparql(FindQuery(workload, "LQ3"));
  const std::string lq4 = ToSparql(FindQuery(workload, "LQ4"));
  const std::string lq5 = ToSparql(FindQuery(workload, "LQ5"));
  const std::string prof0 = DeptIri(0, 0, "FullProfessor0");
  const std::string dept0 = DeptIri(0, 0, "dept");
  auto add = [&](std::string name, std::string text) {
    DistinctQuery q;
    q.name = std::move(name);
    q.sparql = std::move(text);
    mix->distinct.push_back(std::move(q));
  };
  for (int u = 0; u < config.universities; ++u) {
    for (int d = 0; d < config.depts_per_university; ++d) {
      const std::string where = "u" + std::to_string(u) + "d" +
                                std::to_string(d);
      for (int p = 0; p < config.full_professors_per_dept; ++p) {
        const std::string prof =
            DeptIri(u, d, "FullProfessor" + std::to_string(p));
        add("LQ3@" + where + "p" + std::to_string(p),
            Replace(lq3, prof0, prof));
      }
      const std::string dept = DeptIri(u, d, "dept");
      add("LQ4@" + where, Replace(lq4, dept0, dept));
      add("LQ5@" + where, Replace(lq5, dept0, dept));
    }
  }

  const gstored::Dataset& dataset = *workload.dataset;
  gstored::LocalStore whole(&dataset.graph());
  mix->oracle = "centralized-match";
  for (DistinctQuery& q : mix->distinct) {
    q.graph = MustParse(q.sparql);
    gstored::ResolvedQuery rq = gstored::ResolveQuery(q.graph, dataset.dict());
    if (rq.impossible) Fail("instance " + q.name + " names a missing term");
    q.reference = gstored::MatchQuery(whole, rq);
    SortUnique(&q.reference);
  }
  gstored::S2RdfAnalog s2rdf(&dataset);
  const size_t stride = mix->distinct.size() / kOracleCrossChecks;
  for (size_t i = 0; i < mix->distinct.size(); i += stride) {
    const DistinctQuery& q = mix->distinct[i];
    std::vector<Binding> other = s2rdf.Execute(q.graph, nullptr);
    SortUnique(&other);
    if (other != q.reference) Fail("oracles disagree on " + q.name);
  }

  // Popularity ranks cycle through the classes in their 3:1:1 proportion
  // (LQ3, LQ4, LQ3, LQ5, LQ3, ...) and the seed permutes the instances
  // within each class. Every seed then sees the same class mix at every
  // popularity level; only which professor or department is hot moves.
  std::vector<std::vector<uint32_t>> by_class(3);
  for (uint32_t i = 0; i < mix->distinct.size(); ++i) {
    by_class[mix->distinct[i].name[2] - '3'].push_back(i);
  }
  gstored::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  for (std::vector<uint32_t>& instances : by_class) Shuffle(&instances, &rng);
  constexpr int kRankPattern[] = {0, 1, 0, 2, 0};
  std::vector<size_t> next(by_class.size(), 0);
  for (size_t rank = 0; rank < mix->distinct.size(); ++rank) {
    const int c = kRankPattern[rank % 5];
    mix->zipf_order.push_back(by_class[c][next[c]++]);
  }
  double sum = 0.0;
  for (size_t rank = 0; rank < mix->zipf_order.size(); ++rank) {
    sum += 1.0 / std::pow(static_cast<double>(rank + 1), kZipfExponent);
    mix->zipf_cdf.push_back(sum);
  }
  for (double& c : mix->zipf_cdf) c /= sum;
}

}  // namespace

bool ParseWorkloadKind(const std::string& name, WorkloadKind* kind) {
  if (name == "lubm-complex") {
    *kind = WorkloadKind::kLubmComplex;
  } else if (name == "yago-lossy") {
    *kind = WorkloadKind::kYagoLossy;
  } else if (name == "serve-zipf") {
    *kind = WorkloadKind::kServeZipf;
  } else {
    return false;
  }
  return true;
}

size_t BenchThreads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency() / 2);
}

std::unique_ptr<Deployment> BuildDeployment(WorkloadKind kind, uint64_t seed,
                                            size_t build,
                                            SetupTiming* timing) {
  *timing = SetupTiming();
  const double heap_start = HeapBytes();
  const auto setup_start = std::chrono::steady_clock::now();
  auto d = std::make_unique<Deployment>();
  std::optional<PinToNthCpu> pin(std::in_place, build);

  auto start = std::chrono::steady_clock::now();
  if (kind == WorkloadKind::kYagoLossy) {
    gstored::YagoConfig config;
    config.persons = kYagoPersons;
    config.seed = kDataSeed;
    d->workload = gstored::MakeYagoWorkload(config);
  } else {
    d->workload = gstored::MakeLubmWorkload(LubmFor(kind));
  }
  timing->generate_s = SecondsSince(start);

  start = std::chrono::steady_clock::now();
  d->partitioning = std::make_unique<gstored::Partitioning>(
      gstored::HashPartitioner().Partition(*d->workload.dataset, kSites));
  timing->partition_s = SecondsSince(start);

  gstored::EngineOptions options;
  if (kind != WorkloadKind::kServeZipf) options.num_threads = BenchThreads();
  if (kind == WorkloadKind::kYagoLossy) options.fault_plan = LossyPlan(seed);
  d->fault_plan = options.fault_plan;
  const double heap_before_stores = HeapBytes();
  start = std::chrono::steady_clock::now();
  d->engine = std::make_unique<gstored::DistributedEngine>(
      d->partitioning.get(), options);
  timing->store_s = SecondsSince(start);
  timing->store_mb = (HeapBytes() - heap_before_stores) / kMiB;
  pin.reset();  // the dispatcher threads must not inherit the pin

  if (kind == WorkloadKind::kServeZipf) {
    gstored::serve::ServeOptions serve_options;
    serve_options.max_inflight = BenchThreads();
    serve_options.total_slots = serve_options.max_inflight;
    start = std::chrono::steady_clock::now();
    d->server = std::make_unique<gstored::serve::ServingEngine>(
        d->engine.get(), serve_options);
    timing->serve_s = SecondsSince(start);
  }
  timing->total_s = SecondsSince(setup_start);
  timing->heap_mb = (HeapBytes() - heap_start) / kMiB;
  return d;
}

QueryMix BuildQueryMix(WorkloadKind kind, uint64_t seed,
                       const Deployment& deployment) {
  QueryMix mix;
  if (kind == WorkloadKind::kServeZipf) {
    BuildZipfMix(seed, deployment, &mix);
  } else {
    BuildBlockMix(kind, seed, deployment, &mix);
  }
  return mix;
}

gstored::FaultPlan SessionFaultPlan(const gstored::FaultPlan& plan,
                                    uint32_t session_id) {
  gstored::FaultPlan session = plan;
  session.seed = plan.seed * 0x9e3779b97f4a7c15ULL + session_id;
  return session;
}

uint32_t DrawZipf(const QueryMix& mix, uint64_t random_bits) {
  const double u =
      static_cast<double>(random_bits >> 11) * (1.0 / 9007199254740992.0);
  size_t rank = static_cast<size_t>(
      std::upper_bound(mix.zipf_cdf.begin(), mix.zipf_cdf.end(), u) -
      mix.zipf_cdf.begin());
  rank = std::min(rank, mix.zipf_order.size() - 1);
  return mix.zipf_order[rank];
}

std::string ToSparql(const QueryGraph& query) {
  std::string text = "SELECT";
  for (const std::string& var : query.select_vars()) text += " " + var;
  if (query.select_vars().empty()) text += " *";
  text += " WHERE {";
  for (const gstored::QueryEdge& e : query.edges()) {
    text += " " + query.vertex(e.from).label + " " + e.pred_label + " " +
            query.vertex(e.to).label + " .";
  }
  return text + " }";
}

}  // namespace perfbench
