// gstored_shell: a small command-line front end for the library — load an
// N-Triples file (or a built-in generated workload), pick a partitioning
// strategy and site count, then run SPARQL queries (the compound subset:
// UNION / DISTINCT / LIMIT) from the command line or standard input.
//
// Usage:
//   gstored_shell --data FILE.nt|lubm|yago|btc [--sites N]
//                 [--strategy hash|semantic|metis|multilevel]
//                 [--mode basic|la|lo|full] [--threads N] [QUERY]
// With no QUERY argument, reads one query per line from stdin (';' also
// separates queries). Prints rows plus the per-stage statistics.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "core/compound_exec.h"
#include "core/engine.h"
#include "partition/multilevel.h"
#include "partition/partitioners.h"
#include "sparql/compound.h"
#include "workload/btc.h"
#include "workload/lubm.h"
#include "workload/yago.h"

namespace {

using namespace gstored;  // NOLINT — example brevity

std::unique_ptr<Partitioner> MakePartitioner(const std::string& name) {
  if (name == "semantic") return std::make_unique<SemanticHashPartitioner>();
  if (name == "metis") return std::make_unique<MetisLikePartitioner>();
  if (name == "multilevel") return std::make_unique<MultilevelPartitioner>();
  return std::make_unique<HashPartitioner>();
}

EngineMode ParseMode(const std::string& name) {
  if (name == "basic") return EngineMode::kBasic;
  if (name == "la") return EngineMode::kLecAssembly;
  if (name == "lo") return EngineMode::kLecPruning;
  return EngineMode::kFull;
}

void RunQuery(DistributedEngine& engine, const TermDict& dict,
              const std::string& text, EngineMode mode) {
  Result<CompoundQuery> query = ParseCompoundSparql(text);
  if (!query.ok()) {
    std::printf("parse error: %s\n", query.status().ToString().c_str());
    return;
  }
  CompoundResult result = ExecuteCompound(engine, *query, mode);
  for (size_t c = 0; c < result.columns.size(); ++c) {
    std::printf("%s%s", c ? "\t" : "", result.columns[c].c_str());
  }
  std::printf("\n");
  for (const auto& row : result.rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::printf("%s%s", c ? "\t" : "",
                  row[c] == kNullTerm ? "UNBOUND" : dict.lexical(row[c]).c_str());
    }
    std::printf("\n");
  }
  std::printf("-- %zu row(s)\n", result.rows.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string data = "lubm";
  std::string strategy = "hash";
  std::string mode_name = "full";
  int sites = 6;
  size_t threads = 1;
  std::string inline_query;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return (i + 1 < argc) ? argv[++i] : "";
    };
    if (arg == "--data") data = next();
    else if (arg == "--sites") sites = std::stoi(next());
    else if (arg == "--strategy") strategy = next();
    else if (arg == "--mode") mode_name = next();
    else if (arg == "--threads") threads = std::stoul(next());
    else if (arg == "--help") {
      std::printf("usage: %s --data FILE.nt|lubm|yago|btc [--sites N] "
                  "[--strategy hash|semantic|metis|multilevel] "
                  "[--mode basic|la|lo|full] [--threads N] [QUERY]\n",
                  argv[0]);
      return 0;
    } else {
      inline_query = arg;
    }
  }

  // Load or generate the dataset.
  std::unique_ptr<Dataset> owned;
  Workload workload;
  if (data == "lubm") {
    workload = MakeLubmWorkload(LubmScale(1));
  } else if (data == "yago") {
    workload = MakeYagoWorkload(YagoConfig{});
  } else if (data == "btc") {
    workload = MakeBtcWorkload(BtcConfig{});
  } else {
    std::ifstream file(data);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", data.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    owned = std::make_unique<Dataset>();
    Status status = ParseNTriples(buffer.str(), owned.get());
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    owned->Finalize();
    workload.dataset = std::move(owned);
    workload.name = data;
  }
  const Dataset& dataset = *workload.dataset;
  std::printf("loaded %s: %zu triples, %zu vertices\n", workload.name.c_str(),
              dataset.graph().num_triples(), dataset.graph().num_vertices());

  Partitioning partitioning =
      MakePartitioner(strategy)->Partition(dataset, sites);
  std::printf("%s partitioning over %d sites: %zu crossing edges\n",
              partitioning.strategy_name().c_str(), sites,
              partitioning.num_crossing_edges());
  EngineOptions engine_options;
  engine_options.num_threads = threads;
  DistributedEngine engine(&partitioning, engine_options);
  EngineMode mode = ParseMode(mode_name);

  if (!inline_query.empty()) {
    RunQuery(engine, dataset.dict(), inline_query, mode);
    return 0;
  }
  std::printf("enter SPARQL queries (one per line, ';' also separates; "
              "Ctrl-D to exit)\n> ");
  std::string line;
  std::string pending;
  while (std::getline(std::cin, line)) {
    pending += line;
    size_t semi;
    while ((semi = pending.find(';')) != std::string::npos) {
      std::string one = pending.substr(0, semi);
      pending = pending.substr(semi + 1);
      if (!one.empty()) RunQuery(engine, dataset.dict(), one, mode);
    }
    if (!pending.empty() && pending.find('{') != std::string::npos &&
        pending.rfind('}') != std::string::npos &&
        pending.rfind('}') > pending.find('{')) {
      RunQuery(engine, dataset.dict(), pending, mode);
      pending.clear();
    }
    std::printf("> ");
  }
  return 0;
}
