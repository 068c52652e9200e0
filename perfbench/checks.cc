// Output checks. Each one recomputes what it checks through public
// functions of the library other than the mining engine, so a wrong
// engine result cannot also be the reference it is compared against.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <sstream>

#include "bench.h"
#include "fim/eclat.h"
#include "graph/subgraph.h"
#include "nullmodel/expectation.h"
#include "qclique/miner.h"

namespace perfbench {
namespace {

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

/// Every vertex of q has at least gamma (|q| - 1) neighbours in q.
bool IsQuasiClique(const scpm::Graph& graph, const scpm::VertexSet& q,
                   double gamma) {
  const double need = gamma * static_cast<double>(q.size() - 1);
  for (scpm::VertexId v : q) {
    std::size_t degree = 0;
    for (scpm::VertexId u : graph.Neighbors(v)) {
      degree += std::binary_search(q.begin(), q.end(), u) ? 1 : 0;
    }
    if (static_cast<double>(degree) + 1e-9 < need) return false;
  }
  return true;
}

std::vector<scpm::VertexSet> Sorted(std::vector<scpm::VertexSet> sets) {
  std::sort(sets.begin(), sets.end());
  return sets;
}

void Fail(std::vector<std::string>* failures, const std::string& check,
          const std::string& label, const std::string& detail) {
  failures->push_back(check + " " + label + ": " + detail);
}

std::string Pair(double got, double want) {
  std::ostringstream os;
  os.precision(17);
  os << "reported " << got << ", expected " << want;
  return os.str();
}

/// Parses the integer array that follows `key` at or after `*pos`.
bool ParseIds(const std::string& line, const char* key, std::size_t* pos,
              std::vector<std::uint32_t>* out) {
  std::size_t at = line.find(key, *pos);
  if (at == std::string::npos) return false;
  at += std::char_traits<char>::length(key);
  out->clear();
  const char* p = line.c_str() + at;
  while (*p != ']') {
    char* end = nullptr;
    const unsigned long value = std::strtoul(p, &end, 10);
    if (end == p) return false;
    out->push_back(static_cast<std::uint32_t>(value));
    p = end;
    if (*p == ',') ++p;
  }
  *pos = static_cast<std::size_t>(p - line.c_str()) + 1;
  return true;
}

bool ParseNumber(const std::string& line, const char* key, double* out) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return false;
  const char* start = line.c_str() + at + std::char_traits<char>::length(key);
  char* end = nullptr;
  *out = std::strtod(start, &end);
  return end != start;
}

}  // namespace

bool ParseJsonl(const std::string& text, OutputMap* out) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    SetOutput set;
    std::size_t pos = 0;
    double support = 0, covered = 0;
    if (!ParseIds(line, "\"attributes\":[", &pos, &set.stats.attributes) ||
        !ParseNumber(line, "\"support\":", &support) ||
        !ParseNumber(line, "\"covered\":", &covered) ||
        !ParseNumber(line, "\"epsilon\":", &set.stats.epsilon) ||
        !ParseNumber(line, "\"expected_epsilon\":",
                     &set.stats.expected_epsilon) ||
        !ParseNumber(line, "\"delta\":", &set.stats.delta)) {
      return false;
    }
    set.stats.support = static_cast<std::size_t>(support);
    set.stats.covered = static_cast<std::size_t>(covered);
    pos = line.find("\"patterns\":[");
    if (pos == std::string::npos) return false;
    scpm::VertexSet vertices;
    while (ParseIds(line, "\"vertices\":[", &pos, &vertices)) {
      set.patterns.push_back(vertices);
    }
    if (!out->emplace(set.stats.attributes, std::move(set)).second) {
      return false;  // an attribute set reported twice
    }
  }
  return true;
}

void CheckReported(const scpm::AttributedGraph& graph,
                   const scpm::ScpmOptions& options, const OutputMap& output,
                   std::vector<std::string>* failures) {
  std::optional<scpm::MaxExpectationModel> max_exp;
  if (options.min_delta > 0) {
    max_exp.emplace(graph.graph(), options.quasi_clique);
  }
  const bool topk = options.pattern_scope == scpm::PatternScope::kTopK;
  for (const auto& [key, set] : output) {
    const std::string label = graph.FormatAttributeSet(key);
    const scpm::AttributeSetStats& st = set.stats;
    const scpm::VertexSet tidset = graph.VerticesWithAll(key);
    if (st.support != tidset.size()) {
      Fail(failures, "support", label, Pair(st.support, tidset.size()));
    }
    if (st.support < options.min_support) {
      Fail(failures, "support", label, "below sigma_min");
    }
    const double eps = st.support == 0 ? 0.0
                                       : static_cast<double>(st.covered) /
                                             static_cast<double>(st.support);
    if (st.covered > st.support || !Near(st.epsilon, eps)) {
      Fail(failures, "epsilon", label, Pair(st.epsilon, eps));
    }
    if (st.epsilon < options.min_epsilon) {
      Fail(failures, "epsilon", label, "below eps_min");
    }
    if (max_exp) {
      const double expected = max_exp->Expectation(st.support);
      if (!Near(st.expected_epsilon, expected) ||
          !Near(st.delta, st.epsilon / expected)) {
        Fail(failures, "delta", label,
             Pair(st.delta, st.epsilon / expected));
      }
      if (st.delta < options.min_delta) {
        Fail(failures, "delta", label, "below delta_min");
      }
    }
    if (topk && set.patterns.size() > options.top_k) {
      Fail(failures, "topk", label, "more than k patterns");
    }
    for (const scpm::VertexSet& q : set.patterns) {
      const bool sorted = std::adjacent_find(q.begin(), q.end(),
                                             std::greater_equal<>()) ==
                          q.end();
      if (!sorted || q.size() < options.quasi_clique.min_size ||
          !std::includes(tidset.begin(), tidset.end(), q.begin(), q.end()) ||
          !IsQuasiClique(graph.graph(), q, options.quasi_clique.gamma)) {
        Fail(failures, "quasi-clique", label,
             "pattern of " + std::to_string(q.size()) +
                 " vertices is not a gamma-quasi-clique of G(S) with at "
                 "least min_size vertices");
      }
    }
  }
}

void CheckMaximal(const scpm::AttributedGraph& graph,
                  const scpm::ScpmOptions& options, const OutputMap& output,
                  Tracer& tracer, std::uint64_t* itemsets,
                  std::vector<std::string>* failures) {
  std::map<scpm::AttributeSet, std::size_t> frequent;
  {
    Span span(tracer, "fim.eclat");
    scpm::EclatOptions eclat;
    eclat.min_support = options.min_support;
    scpm::Status status = scpm::Eclat(eclat).Mine(
        graph, [&](const scpm::AttributeSet& items,
                   const scpm::VertexSet& tidset) {
          frequent.emplace(items, tidset.size());
          return true;
        });
    if (!status.ok()) Fail(failures, "eclat", "", status.ToString());
  }
  *itemsets = frequent.size();
  if (frequent.size() != output.size()) {
    Fail(failures, "eclat", "",
         std::to_string(output.size()) + " sets reported, Eclat finds " +
             std::to_string(frequent.size()));
  }
  for (const auto& [key, set] : output) {
    const std::string label = graph.FormatAttributeSet(key);
    auto it = frequent.find(key);
    if (it == frequent.end() || it->second != set.stats.support) {
      Fail(failures, "eclat", label, "not a frequent itemset of that support");
    }
    scpm::VertexSet united;
    for (const scpm::VertexSet& q : set.patterns) {
      united.insert(united.end(), q.begin(), q.end());
    }
    std::sort(united.begin(), united.end());
    united.erase(std::unique(united.begin(), united.end()), united.end());
    if (united.size() != set.stats.covered) {
      Fail(failures, "union", label,
           Pair(set.stats.covered, united.size()));
    }
    for (std::size_t i = 0; i < set.patterns.size(); ++i) {
      for (std::size_t j = 0; j < set.patterns.size(); ++j) {
        const scpm::VertexSet& a = set.patterns[i];
        const scpm::VertexSet& b = set.patterns[j];
        if (i != j && a.size() >= b.size() &&
            std::includes(a.begin(), a.end(), b.begin(), b.end())) {
          Fail(failures, "containment", label,
               "pattern " + std::to_string(j) + " lies inside pattern " +
                   std::to_string(i));
        }
      }
    }
  }
}

std::vector<bool> ChooseReplay(const OutputMap& output, std::size_t stride,
                               std::size_t offset) {
  std::vector<bool> chosen(output.size(), false);
  std::size_t position = 0, largest = 0, largest_support = 0;
  for (const auto& [key, set] : output) {
    chosen[position] = position % stride == offset;
    if (set.stats.support > largest_support) {
      largest = position;
      largest_support = set.stats.support;
    }
    ++position;
  }
  if (!chosen.empty()) chosen[largest] = true;
  return chosen;
}

void Replay(const scpm::AttributedGraph& graph,
            const scpm::ScpmOptions& options, const OutputMap& output,
            const std::vector<bool>& chosen, Tracer& tracer,
            ReplayStats* stats, std::vector<std::string>* failures) {
  const bool topk = options.pattern_scope == scpm::PatternScope::kTopK;
  scpm::SubgraphWorkspace workspace;
  std::size_t position = 0;
  for (const auto& [key, set] : output) {
    if (!chosen[position++]) continue;
    const std::string label = graph.FormatAttributeSet(key);
    Span replay(tracer, "replay", label);
    scpm::VertexSet tidset;
    {
      Span span(tracer, "util.tidset");
      tidset = graph.VerticesWithAll(key);
    }
    scpm::Result<scpm::InducedSubgraph> sub = [&] {
      Span span(tracer, "graph.induce");
      return workspace.Build(graph.graph(), std::move(tidset));
    }();
    if (!sub.ok()) {
      Fail(failures, "replay", label, sub.status().ToString());
      continue;
    }
    scpm::QuasiCliqueMiner coverage_miner(options.miner_options());
    scpm::Result<scpm::VertexSet> covered = [&] {
      Span span(tracer, "qclique.coverage", label);
      return coverage_miner.MineCoverage(sub->graph());
    }();
    stats->coverage_candidates += coverage_miner.stats().candidates_processed;
    if (!covered.ok() || covered->size() != set.stats.covered) {
      Fail(failures, "covered", label,
           covered.ok() ? Pair(set.stats.covered, covered->size())
                        : covered.status().ToString());
    }

    scpm::QuasiCliqueMiner search_miner(options.miner_options());
    std::vector<scpm::VertexSet> found;
    scpm::Status status;
    if (topk) {
      Span span(tracer, "qclique.topk", label);
      auto ranked = search_miner.MineTopK(sub->graph(), options.top_k);
      if (ranked.ok()) {
        for (const scpm::RankedQuasiClique& q : *ranked) {
          found.push_back(sub->ToGlobal(q.vertices));
        }
      } else {
        status = ranked.status();
      }
    } else {
      Span span(tracer, "qclique.maximal", label);
      auto maximal = search_miner.MineMaximal(sub->graph());
      if (maximal.ok()) {
        for (const scpm::VertexSet& q : *maximal) {
          found.push_back(sub->ToGlobal(q));
        }
      } else {
        status = maximal.status();
      }
    }
    stats->search_candidates += search_miner.stats().candidates_processed;
    stats->patterns += found.size();
    if (!status.ok() || Sorted(found) != Sorted(set.patterns)) {
      Fail(failures, topk ? "topk" : "maximal", label,
           status.ok() ? std::to_string(set.patterns.size()) +
                             " patterns reported, " +
                             std::to_string(found.size()) +
                             " found by the replay, or different vertices"
                       : status.ToString());
    }
    workspace.Recycle(std::move(sub).value());
  }
}

}  // namespace perfbench
