// Shared declarations of the SCPM benchmark program (scpmbench).

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/scpm.h"
#include "graph/attributed_graph.h"
#include "trace.h"

namespace perfbench {

/// A mining workload: one generated dataset mined with fixed thresholds.
struct MiningWorkload {
  std::string name;
  std::string kind;  // generator preset: dblp | citeseer
  double scale = 1.0;
  std::uint64_t generator_seed = 7;
  scpm::ScpmOptions options;
};

/// The dblp, citeseer20 and scorp workloads; false for any other name.
bool FindMiningWorkload(const std::string& name, MiningWorkload* out);

/// sim-exp workload: the scale-1 topologies, their (gamma, min_size), and
/// the six supports |V| i / 10, i = 1..6, each estimated from r samples.
struct SimTopology {
  std::string kind;  // dblp | lastfm | citeseer
  scpm::QuasiCliqueParams params;
};
std::vector<SimTopology> SimTopologies();
inline constexpr std::uint64_t kSimGeneratorSeed = 7;
inline constexpr std::size_t kSimSamples = 15;
/// The Monte-Carlo seed of paper Figs. 4/7/9's bench. It is fixed: which
/// samples are drawn moves the work by a quarter from seed to seed.
inline constexpr std::uint64_t kSimModelSeed = 12345;
std::vector<std::size_t> SimSupports(std::size_t num_vertices);

/// Writes the workload's input files into `dir` (which must exist). The
/// generator seed is fixed per workload; `seed` shuffles the order of the
/// edge lines and the orientation of each edge. The loader canonicalises
/// edges, so every seed gives the same graph, attribute ids and work.
/// Returns an empty string on success, else the error.
std::string PrepareInputs(const std::string& workload, std::uint64_t seed,
                          const std::string& dir);

/// Reported output of one attribute set, from the engine or from a JSONL
/// line.
struct SetOutput {
  scpm::AttributeSetStats stats;
  std::vector<scpm::VertexSet> patterns;  // as emitted, global ids
};

/// Keyed by the attribute set's ids.
using OutputMap = std::map<scpm::AttributeSet, SetOutput>;

/// Parses the JSONL sink's output; false on a malformed line.
bool ParseJsonl(const std::string& text, OutputMap* out);

/// Per-layer accumulators filled by the replay.
struct ReplayStats {
  std::uint64_t coverage_candidates = 0;
  std::uint64_t search_candidates = 0;  // MineTopK or MineMaximal
  std::uint64_t patterns = 0;           // patterns the searches returned
};

/// Checks that need no replay: for each reported S, support against
/// VerticesWithAll(S), epsilon, delta against a fresh max-exp model, and
/// every pattern a gamma-quasi-clique of G(S) of at least min_size
/// vertices. Appends one message per failure.
void CheckReported(const scpm::AttributedGraph& graph,
                   const scpm::ScpmOptions& options, const OutputMap& output,
                   std::vector<std::string>* failures);

/// SCORP checks: the reported sets and supports equal Eclat's frequent
/// itemsets; per set, the union of the maximal patterns has exactly
/// `covered` vertices and no pattern contains another.
void CheckMaximal(const scpm::AttributedGraph& graph,
                  const scpm::ScpmOptions& options, const OutputMap& output,
                  Tracer& tracer, std::uint64_t* itemsets,
                  std::vector<std::string>* failures);

/// The sets to replay, by position in key order: those whose position is
/// congruent to `offset` modulo `stride`, and always the set with the
/// largest support (the first in key order among equals), whose searches
/// are the heaviest of the run.
std::vector<bool> ChooseReplay(const OutputMap& output, std::size_t stride,
                               std::size_t offset);

/// Replays one evaluation per chosen S through the public functions
/// (tidset, G(S) build, MineCoverage, then MineTopK or MineMaximal) on a
/// fresh QuasiCliqueMiner, with no lattice and no Theorem-3 universes,
/// and compares `covered` and the patterns.
void Replay(const scpm::AttributedGraph& graph,
            const scpm::ScpmOptions& options, const OutputMap& output,
            const std::vector<bool>& chosen, Tracer& tracer,
            ReplayStats* stats, std::vector<std::string>* failures);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
