// Workload definitions and input preparation.

#include <fstream>
#include <random>
#include <utility>

#include "bench.h"
#include "datasets/synthetic.h"
#include "graph/io.h"

namespace perfbench {
namespace {

scpm::ScpmOptions TopKOptions(std::size_t threads) {
  scpm::ScpmOptions o;
  o.quasi_clique = {.gamma = 0.5, .min_size = 8};
  o.min_support = 25;
  o.min_epsilon = 0.1;
  o.min_delta = 1.0;  // > 0 builds the max-exp null model
  o.top_k = 5;
  o.pattern_scope = scpm::PatternScope::kTopK;
  o.num_threads = threads;
  return o;
}

scpm::SyntheticConfig Preset(const std::string& kind, double scale) {
  if (kind == "dblp") return scpm::DblpLikeConfig(scale);
  if (kind == "lastfm") return scpm::LastFmLikeConfig(scale);
  return scpm::CiteSeerLikeConfig(scale);
}

/// Fisher-Yates on a seeded mt19937_64, so the order is the same on every
/// standard library (std::shuffle's is not).
template <typename T>
void Shuffle(std::vector<T>* v, std::mt19937_64* rng) {
  for (std::size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[(*rng)() % i]);
  }
}

/// Writes the graph with the repository's own writer, then rewrites the
/// edge list in a seed-shuffled line order with each edge's endpoints in a
/// seed-drawn orientation.
std::string WriteInputs(const scpm::AttributedGraph& graph,
                        const std::string& prefix, std::mt19937_64* rng) {
  const std::string edges_path = prefix + ".edges";
  scpm::Status status =
      scpm::SaveAttributedGraph(graph, edges_path, prefix + ".attrs");
  if (!status.ok()) return status.ToString();
  std::vector<scpm::Edge> edges = graph.graph().Edges();
  Shuffle(&edges, rng);
  std::ofstream out(edges_path, std::ios::trunc);
  out << "# scpm edge list: " << graph.NumVertices() << " vertices, "
      << edges.size() << " edges\n";
  for (const scpm::Edge& e : edges) {
    if ((*rng)() & 1) {
      out << e.v << ' ' << e.u << '\n';
    } else {
      out << e.u << ' ' << e.v << '\n';
    }
  }
  if (!out) return "cannot write " + edges_path;
  return "";
}

}  // namespace

bool FindMiningWorkload(const std::string& name, MiningWorkload* out) {
  if (name == "dblp") {
    *out = {"dblp", "dblp", 1.0, 7, TopKOptions(1)};
  } else if (name == "citeseer20") {
    *out = {"citeseer20", "citeseer", 20.0, 7, TopKOptions(4)};
  } else if (name == "scorp") {
    scpm::ScpmOptions o;
    o.quasi_clique = {.gamma = 0.5, .min_size = 3};
    o.min_support = 3;
    o.min_epsilon = 0.0;
    o.pattern_scope = scpm::PatternScope::kAllMaximal;
    o.num_threads = 1;
    *out = {"scorp", "citeseer", 2.0, 42, o};
  } else {
    return false;
  }
  return true;
}

std::vector<SimTopology> SimTopologies() {
  // The (gamma, min_size) of paper Figs. 4, 7 and 9.
  return {{"dblp", {.gamma = 0.5, .min_size = 8}},
          {"lastfm", {.gamma = 0.5, .min_size = 5}},
          {"citeseer", {.gamma = 0.5, .min_size = 5}}};
}

std::vector<std::size_t> SimSupports(std::size_t num_vertices) {
  std::vector<std::size_t> supports;
  for (std::size_t i = 1; i <= 6; ++i) {
    supports.push_back(num_vertices * i / 10);
  }
  return supports;
}

std::string PrepareInputs(const std::string& workload, std::uint64_t seed,
                          const std::string& dir) {
  std::mt19937_64 rng(seed);
  std::vector<std::pair<scpm::SyntheticConfig, std::string>> jobs;
  MiningWorkload mining;
  if (FindMiningWorkload(workload, &mining)) {
    scpm::SyntheticConfig config = Preset(mining.kind, mining.scale);
    config.seed = mining.generator_seed;
    jobs.push_back({config, dir + "/graph"});
  } else if (workload == "simexp") {
    for (const SimTopology& t : SimTopologies()) {
      scpm::SyntheticConfig config = Preset(t.kind, 1.0);
      config.seed = kSimGeneratorSeed;
      jobs.push_back({config, dir + "/" + t.kind});
    }
  } else {
    return "unknown workload: " + workload;
  }
  for (const auto& [config, prefix] : jobs) {
    scpm::Result<scpm::SyntheticDataset> dataset =
        scpm::GenerateSynthetic(config);
    if (!dataset.ok()) return "generation failed: " + dataset.status().ToString();
    std::string error = WriteInputs(dataset->graph, prefix, &rng);
    if (!error.empty()) return error;
  }
  return "";
}

}  // namespace perfbench
