// scpmbench: the SCPM benchmark program. perfbench/run.py builds it and
// drives it; see perfbench/README.md for the workloads and metrics.
//
//   scpmbench prepare <workload> <seed> <input_dir>
//   scpmbench run <workload> <seed> <input_dir> <out_dir> <seconds>
//             <trace 0|1> [corrupt]
//
// `run` loads the prepared inputs (set-up), then repeats whole rounds of
// the workload's operations until `seconds` have passed (one round when
// tracing), checks the first round's output, and prints one JSON object
// as its last line. setup_s is the process's one cold set-up, timed from
// the entry into main(). `corrupt` names one output value to falsify
// before the checks, to show that the check guarding it fails.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "core/engine.h"
#include "core/sink.h"
#include "core/statistics.h"
#include "fim/eclat.h"
#include "graph/io.h"
#include "nullmodel/expectation.h"

namespace perfbench {
namespace {

// ------------------------------------------------------------ measurement

/// When main() began: setup_s counts from here.
std::int64_t main_entered_ns = 0;

double Seconds(const timeval& t) {
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return Seconds(ru.ru_utime) + Seconds(ru.ru_stime);
}

/// Returns setup_s, and prints it with the process's CPU time, page
/// faults and preemptions so far: user time that tracks setup_s at equal
/// faults and preemptions means a slow set-up ran on a slow CPU.
double FinishSetup() {
  const double setup_s = (NowNs() - main_entered_ns) * 1e-9;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::cerr << "setup: " << setup_s << " s; user " << Seconds(ru.ru_utime)
            << " s, sys " << Seconds(ru.ru_stime) << " s, " << ru.ru_minflt
            << " minor faults, " << ru.ru_nivcsw << " preemptions\n";
  return setup_s;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

int Emit(const Report& report) {
  for (const std::string& f : report.failures) {
    std::cerr << "check failed: " << f << "\n";
  }
  const bool correct = report.failures.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}

/// The per-layer metrics, in BENCHMARK.json order. A layer the workload
/// does not run reads 0.
const char* const kLayerMetrics[][2] = {
    {"graph.load_s", "s"},
    {"graph.induce_s", "s"},
    {"graph.induce_calls", "count"},
    {"util.tidset_s", "s"},
    {"fim.eclat_s", "s"},
    {"fim.itemsets", "count"},
    {"qclique.coverage_s", "s"},
    {"qclique.coverage_calls", "count"},
    {"qclique.coverage_candidates", "count"},
    {"qclique.coverage_max_s", "s"},
    {"qclique.topk_s", "s"},
    {"qclique.topk_candidates", "count"},
    {"qclique.maximal_s", "s"},
    {"qclique.maximal_candidates", "count"},
    {"qclique.maximal_sets", "count"},
    {"qclique.reported_per_kcandidate", "1/kcand"},
    {"nullmodel.maxexp_s", "s"},
    {"nullmodel.simexp_s", "s"},
    {"nullmodel.simexp_samples", "count"},
    {"nullmodel.simexp_max_s", "s"},
    {"core.mine_s", "s"},
    {"core.evaluated", "count"},
    {"core.extended", "count"},
    {"core.coverage_candidates", "count"},
    {"core.evaluation_batches", "count"},
    {"core.intra_branch_tasks", "count"},
    {"core.chunked_intersections", "count"},
    {"core.bitmap_intersections", "count"},
    {"core.sink_s", "s"},
    {"core.sink_calls", "count"},
    {"core.jsonl_bytes", "B"},
    {"core.ckpt_encode_s", "s"},
    {"core.ckpt_decode_s", "s"},
    {"core.ckpt_bytes", "B"},
};

/// Fills every per-layer metric: span sums from the tracer, the rest from
/// `values` (name -> value), 0 where neither has it.
void AddLayerMetrics(const Tracer& tracer,
                     const std::map<std::string, double>& values,
                     Report* report) {
  for (const auto& [name, unit] : kLayerMetrics) {
    const std::string n = name;
    double value = 0.0;
    if (auto it = values.find(n); it != values.end()) {
      value = it->second;
    } else if (n.size() > 2 && n.compare(n.size() - 2, 2, "_s") == 0) {
      const std::string span = n.substr(0, n.size() - 2);
      value = tracer.Sum(span).seconds;
    }
    report->Add(n, value, unit);
  }
}

void FinishTrace(const Tracer& tracer, const std::string& out_dir,
                 const std::string& workload, std::uint64_t seed) {
  const std::string path = out_dir + "/trace-" + workload + "-seed" +
                           std::to_string(seed) + ".json";
  if (!tracer.WriteChromeTrace(path)) {
    std::cerr << "cannot write span file " << path << "\n";
  } else {
    std::cerr << "spans: " << tracer.spans().size() << " written to " << path
              << "\n";
  }
  std::cerr << tracer.SelfTimeTable();
}

// ------------------------------------------------------- traced wrappers

/// Times each Emit into the wrapped sink.
class TracedSink : public scpm::PatternSink {
 public:
  TracedSink(scpm::PatternSink* inner, Tracer& tracer, std::int64_t parent)
      : inner_(inner), tracer_(tracer), parent_(parent) {}
  scpm::Status Emit(const scpm::SinkKey& key,
                    scpm::AttributeSetOutput output) override {
    Span span(tracer_, "core.sink", "", parent_);
    return inner_->Emit(key, std::move(output));
  }

 private:
  scpm::PatternSink* inner_;
  Tracer& tracer_;
  const std::int64_t parent_;
};

/// Times each null-model query.
class TracedModel : public scpm::ExpectationModel {
 public:
  TracedModel(scpm::ExpectationModel* inner, Tracer& tracer,
              std::int64_t parent)
      : inner_(inner), tracer_(tracer), parent_(parent) {}
  double Expectation(std::size_t support) override {
    Span span(tracer_, "nullmodel.maxexp", "", parent_);
    return inner_->Expectation(support);
  }
  std::string name() const override { return inner_->name(); }

 private:
  scpm::ExpectationModel* inner_;
  Tracer& tracer_;
  const std::int64_t parent_;
};

// ----------------------------------------------------------------- mining

struct MineCall {
  scpm::Status status;
  scpm::MiningRun run;
  scpm::ScpmResult result;  // top-k scope
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// One engine call. Top-k results accumulate in memory; maximal-scope
/// results stream through the JSONL sink into `jsonl_path`. With a
/// tracing tracer, every sink emit and null-model query is a span.
MineCall Mine(const scpm::AttributedGraph& graph,
              const scpm::ScpmOptions& options,
              scpm::ExpectationModel* model, const std::string& jsonl_path,
              Tracer& tracer, scpm::EngineBudget budget = {},
              const scpm::EngineCheckpoint* resume = nullptr) {
  MineCall call;
  const bool maximal =
      options.pattern_scope == scpm::PatternScope::kAllMaximal;
  std::ofstream file;
  std::optional<scpm::JsonlSink> jsonl;
  scpm::AccumulatingSink accumulate;
  scpm::PatternSink* sink = &accumulate;
  if (maximal) {
    file.open(jsonl_path, std::ios::trunc | std::ios::binary);
    jsonl.emplace(&file, &graph);
    sink = &*jsonl;
  }
  Span span(tracer, "core.mine");
  TracedSink traced_sink(sink, tracer, span.index());
  std::optional<TracedModel> traced_model;
  if (tracer.enabled()) {
    sink = &traced_sink;
    if (model != nullptr) {
      traced_model.emplace(model, tracer, span.index());
      model = &*traced_model;
    }
  }
  scpm::ScpmEngine engine(options, model);
  engine.set_budget(budget);

  const std::int64_t start = NowNs();
  const double cpu = CpuSeconds();
  scpm::Result<scpm::MiningRun> run =
      resume != nullptr ? engine.Resume(graph, *resume, sink)
                        : engine.Run(graph, sink);
  if (maximal) file.close();
  call.wall_s = (NowNs() - start) * 1e-9;
  call.cpu_s = CpuSeconds() - cpu;

  if (!run.ok()) {
    call.status = run.status();
  } else {
    call.run = std::move(run).value();
    if (maximal && !file) call.status = scpm::Status::IoError("jsonl write");
  }
  if (!maximal) call.result = accumulate.TakeResult();
  return call;
}

OutputMap ToOutputMap(const scpm::ScpmResult& result) {
  OutputMap out;
  for (const scpm::AttributeSetStats& stats : result.attribute_sets) {
    out[stats.attributes].stats = stats;
  }
  for (const scpm::StructuralCorrelationPattern& p : result.patterns) {
    out[p.attributes].patterns.push_back(p.vertices);
  }
  return out;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::string> SortedLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// Every counter, in the library's own field order.
std::string CounterFields(const scpm::ScpmCounters& counters) {
  std::ostringstream os;
  scpm::WriteScpmCountersFields(os, counters);
  return os.str();
}

bool SameOutput(const OutputMap& a, const OutputMap& b) {
  if (a.size() != b.size()) return false;
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    const scpm::AttributeSetStats& x = ia->second.stats;
    const scpm::AttributeSetStats& y = ib->second.stats;
    if (ia->first != ib->first || x.support != y.support ||
        x.covered != y.covered || x.epsilon != y.epsilon ||
        x.expected_epsilon != y.expected_epsilon || x.delta != y.delta ||
        ia->second.patterns != ib->second.patterns) {
      return false;
    }
  }
  return true;
}

/// Replay selection of the timed runs: a quarter of the sets, chosen by
/// the seed, so four consecutive seeds replay every set, plus the set with
/// the largest support (see ChooseReplay). The traced run replays all.
constexpr std::size_t kTimedReplayStride = 4;

/// Falsifies one value of `output` (see the file comment). The victim is
/// the first chosen set that has a pattern. Returns false for a name this
/// workload does not know.
bool CorruptOutput(const std::string& what,
                   const scpm::AttributedGraph& graph,
                   const std::vector<bool>& chosen, OutputMap* output) {
  auto it = output->begin();
  std::size_t position = 0;
  while (it != output->end() &&
         (!chosen[position] || it->second.patterns.empty())) {
    ++it;
    ++position;
  }
  if (it == output->end()) return false;
  SetOutput& victim = it->second;
  if (what == "support") {
    ++victim.stats.support;
  } else if (what == "covered" || what == "union") {
    ++victim.stats.covered;
    victim.stats.epsilon = static_cast<double>(victim.stats.covered) /
                           static_cast<double>(victim.stats.support);
    victim.stats.delta = victim.stats.epsilon / victim.stats.expected_epsilon;
  } else if (what == "epsilon") {
    victim.stats.epsilon += 1e-6;
  } else if (what == "delta") {
    victim.stats.delta *= 1.001;
  } else if (what == "quasi-clique") {
    // All of V(S): sorted, inside V(S), large enough, but far too sparse.
    victim.patterns.front() = graph.VerticesWithAll(it->first);
  } else if (what == "topk" || what == "maximal") {
    victim.patterns.pop_back();
  } else if (what == "containment") {
    scpm::VertexSet inner = victim.patterns.front();
    inner.pop_back();
    victim.patterns.push_back(inner);
  } else if (what == "eclat") {
    output->erase(it);
  } else {
    return false;
  }
  return true;
}

int RunMining(const MiningWorkload& w, std::uint64_t seed,
              const std::string& in_dir, const std::string& out_dir,
              double seconds, bool trace, const std::string& corrupt) {
  Tracer tracer(trace);
  Report report;
  scpm::ScpmOptions options = w.options;
  const bool maximal =
      options.pattern_scope == scpm::PatternScope::kAllMaximal;
  // The traced run mines single-threaded; it must match the timed runs.
  if (trace) options.num_threads = 1;

  std::optional<scpm::Result<scpm::AttributedGraph>> loaded;
  {
    Span span(tracer, "graph.load");
    loaded.emplace(scpm::LoadAttributedGraph(in_dir + "/graph.edges",
                                             in_dir + "/graph.attrs"));
  }
  if (!loaded->ok()) {
    std::cerr << "load failed: " << loaded->status() << "\n";
    return 1;
  }
  const scpm::AttributedGraph& graph = loaded->value();
  std::unique_ptr<scpm::MaxExpectationModel> model;
  if (options.min_delta > 0) {
    Span span(tracer, "nullmodel.maxexp", "build");
    model = std::make_unique<scpm::MaxExpectationModel>(graph.graph(),
                                                        options.quasi_clique);
  }
  const double setup_s = FinishSetup();

  const std::string jsonl_path = out_dir + "/" + w.name + ".jsonl";
  std::vector<double> walls, cpus;
  double peak_rss = 0.0;
  OutputMap output;
  std::string first_jsonl;
  scpm::MiningRun first_run;
  const std::int64_t timing_start = NowNs();
  do {
    MineCall call = Mine(graph, options, model.get(), jsonl_path, tracer);
    ++report.attempted;
    if (!call.status.ok()) {
      ++report.failed;
      std::cerr << "mining failed: " << call.status << "\n";
      continue;
    }
    walls.push_back(call.wall_s);
    cpus.push_back(call.cpu_s);
    if (walls.size() == 1) {
      peak_rss = PeakRssMib();  // before any check allocates
      first_run = call.run;
      if (maximal) {
        first_jsonl = ReadFile(jsonl_path);
      } else {
        output = ToOutputMap(call.result);
      }
    } else {
      const bool same = maximal ? ReadFile(jsonl_path) == first_jsonl
                                : SameOutput(ToOutputMap(call.result), output);
      if (!same) report.failures.push_back("rounds: output changed");
    }
  } while (!trace && (NowNs() - timing_start) * 1e-9 < seconds);
  if (walls.empty()) {
    report.failures.push_back("mining: no round succeeded");
    return Emit(report);
  }

  if (maximal && !ParseJsonl(first_jsonl, &output)) {
    report.failures.push_back("jsonl: malformed output line");
  }
  const std::size_t stride = trace ? 1 : kTimedReplayStride;
  const std::vector<bool> chosen = ChooseReplay(output, stride, seed % stride);
  // "threads" and "resume" falsify the second run of a traced check.
  const bool second_run =
      (corrupt == "threads" && trace && w.options.num_threads > 1) ||
      (corrupt == "resume" && trace && maximal);
  if (!corrupt.empty() && !second_run &&
      !CorruptOutput(corrupt, graph, chosen, &output)) {
    std::cerr << "unknown --corrupt value for " << w.name << ": " << corrupt
              << "\n";
    return 2;
  }

  // Checks, outside every timing.
  std::map<std::string, double> layer;
  ReplayStats replay;
  CheckReported(graph, options, output, &report.failures);
  std::uint64_t itemsets = 0;
  if (maximal) {
    CheckMaximal(graph, options, output, tracer, &itemsets, &report.failures);
  } else if (trace) {
    Span span(tracer, "fim.eclat");
    scpm::EclatOptions eclat;
    eclat.min_support = options.min_support;
    scpm::Status status = scpm::Eclat(eclat).Mine(
        graph, [&](const scpm::AttributeSet&, const scpm::VertexSet&) {
          ++itemsets;
          return true;
        });
    if (!status.ok()) report.failures.push_back("eclat: " + status.ToString());
  }
  Replay(graph, options, output, chosen, tracer, &replay, &report.failures);

  if (trace && w.options.num_threads > 1) {
    // The timed runs' thread count must give the same sets, patterns and
    // counters as this single-threaded traced run.
    Tracer off(false);
    MineCall call = Mine(graph, w.options, model.get(), jsonl_path, off);
    if (corrupt == "threads") ++call.run.counters.attribute_sets_evaluated;
    if (!call.status.ok() || !SameOutput(ToOutputMap(call.result), output) ||
        CounterFields(call.run.counters) != CounterFields(first_run.counters)) {
      report.failures.push_back(
          "threads: " + std::to_string(w.options.num_threads) +
          "-thread run differs from the 1-thread traced run");
    }
  }

  if (trace && maximal) {
    // One cut-and-resume through the binary checkpoint codec; the two
    // halves' output together must equal the uncut output.
    Tracer off(false);
    scpm::EngineBudget budget;
    budget.max_evaluations = first_run.counters.attribute_sets_evaluated / 2;
    const std::string cut_path = out_dir + "/" + w.name + "-cut.jsonl";
    const std::string resumed_path = out_dir + "/" + w.name + "-resumed.jsonl";
    MineCall cut = Mine(graph, options, nullptr, cut_path, off, budget);
    std::string bytes;
    {
      Span span(tracer, "core.ckpt_encode");
      bytes = cut.run.checkpoint.Serialize(scpm::CheckpointFormat::kBinary);
    }
    std::optional<scpm::Result<scpm::EngineCheckpoint>> decoded;
    {
      Span span(tracer, "core.ckpt_decode");
      decoded.emplace(scpm::EngineCheckpoint::Parse(bytes));
    }
    layer["core.ckpt_bytes"] = static_cast<double>(bytes.size());
    if (!cut.status.ok() || cut.run.exhausted || !decoded->ok()) {
      report.failures.push_back("resume: the budget did not cut the run");
    } else {
      MineCall rest = Mine(graph, options, nullptr, resumed_path, off, {},
                           &decoded->value());
      std::string resumed = ReadFile(resumed_path);
      if (corrupt == "resume") resumed.erase(0, resumed.find('\n') + 1);
      if (!rest.status.ok() ||
          SortedLines(ReadFile(cut_path) + resumed) !=
              SortedLines(first_jsonl)) {
        report.failures.push_back(
            "resume: cut + resumed output differs from the uncut output");
      }
    }
  }

  if (trace) {
    const scpm::ScpmCounters& c = first_run.counters;
    layer["fim.itemsets"] = static_cast<double>(itemsets);
    layer["qclique.coverage_calls"] =
        static_cast<double>(tracer.Sum("qclique.coverage").count);
    layer["graph.induce_calls"] =
        static_cast<double>(tracer.Sum("graph.induce").count);
    const Tracer::Totals slowest = tracer.Sum("qclique.coverage");
    layer["qclique.coverage_max_s"] = slowest.max_seconds;
    if (slowest.max_index >= 0) {
      std::cerr << "slowest coverage search: "
                << tracer.spans()[slowest.max_index].label << " "
                << slowest.max_seconds << " s\n";
    }
    layer["qclique.coverage_candidates"] =
        static_cast<double>(replay.coverage_candidates);
    layer[maximal ? "qclique.maximal_candidates" : "qclique.topk_candidates"] =
        static_cast<double>(replay.search_candidates);
    if (maximal) layer["qclique.maximal_sets"] = replay.patterns;
    const double attempts =
        static_cast<double>(replay.coverage_candidates +
                            replay.search_candidates) /
        1000.0;
    layer["qclique.reported_per_kcandidate"] =
        attempts > 0 ? static_cast<double>(replay.patterns) / attempts : 0.0;
    layer["core.evaluated"] = c.attribute_sets_evaluated;
    layer["core.extended"] = c.attribute_sets_extended;
    layer["core.coverage_candidates"] = c.coverage_candidates;
    layer["core.evaluation_batches"] = c.evaluation_batches;
    layer["core.intra_branch_tasks"] = c.intra_branch_tasks;
    layer["core.chunked_intersections"] = c.chunked_intersections;
    layer["core.bitmap_intersections"] = c.bitmap_intersections;
    layer["core.sink_calls"] =
        static_cast<double>(tracer.Sum("core.sink").count);
    if (maximal) {
      layer["core.jsonl_bytes"] = static_cast<double>(first_jsonl.size());
    }
    AddLayerMetrics(tracer, layer, &report);
    FinishTrace(tracer, out_dir, w.name, seed);
  } else {
    report.Add("setup_s", setup_s, "s");
    report.Add("work_s", Median(walls), "s");
    report.Add("cpu_s", Median(cpus), "s");
    report.Add("peak_rss_mib", peak_rss, "MiB");
  }
  std::cerr << w.name << ": " << output.size() << " attribute sets ("
            << std::count(chosen.begin(), chosen.end(), true)
            << " replayed), " << walls.size() << " round(s), work " << Median(walls)
            << " s, counters " << first_run.counters.attribute_sets_evaluated
            << " evaluated\n";
  return Emit(report);
}

// ----------------------------------------------------------------- simexp

int RunSimExp(std::uint64_t seed, const std::string& in_dir,
              const std::string& out_dir, double seconds, bool trace,
              const std::string& corrupt) {
  Tracer tracer(trace);
  Report report;
  const std::vector<SimTopology> topologies = SimTopologies();
  std::vector<scpm::Graph> graphs;
  std::vector<std::unique_ptr<scpm::MaxExpectationModel>> max_models;
  for (const SimTopology& t : topologies) {
    std::optional<scpm::Result<scpm::Graph>> g;
    {
      Span span(tracer, "graph.load", t.kind);
      g.emplace(scpm::LoadEdgeList(in_dir + "/" + t.kind + ".edges"));
    }
    if (!g->ok()) {
      std::cerr << "load failed: " << g->status() << "\n";
      return 1;
    }
    graphs.push_back(std::move(*g).value());
  }
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    Span span(tracer, "nullmodel.maxexp", "build");
    max_models.push_back(std::make_unique<scpm::MaxExpectationModel>(
        graphs[i], topologies[i].params));
  }
  const double setup_s = FinishSetup();

  // values[round][graph][support index] = sim-exp mean.
  using Curve = std::vector<std::vector<double>>;
  std::vector<Curve> sim_rounds;
  Curve max_exp(graphs.size());
  std::vector<double> walls, cpus;
  double peak_rss = 0.0;
  const std::int64_t timing_start = NowNs();
  // Each round queries the supports in ascending order on fresh models.
  auto run_round = [&] {
    Curve sim(graphs.size());
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      scpm::SimExpectationModel model(graphs[g], topologies[g].params,
                                      kSimSamples, kSimModelSeed);
      const std::vector<std::size_t> supports =
          SimSupports(graphs[g].NumVertices());
      sim[g].assign(supports.size(), 0.0);
      max_exp[g].assign(supports.size(), 0.0);
      for (std::size_t i = 0; i < supports.size(); ++i) {
        {
          Span span(tracer, "nullmodel.simexp",
                    topologies[g].kind + " sigma=" +
                        std::to_string(supports[i]));
          sim[g][i] = model.EstimateWithStddev(supports[i]).mean;
        }
        Span span(tracer, "nullmodel.maxexp");
        max_exp[g][i] = max_models[g]->Expectation(supports[i]);
      }
    }
    return sim;
  };
  do {
    const std::int64_t start = NowNs();
    const double cpu = CpuSeconds();
    sim_rounds.push_back(run_round());
    walls.push_back((NowNs() - start) * 1e-9);
    cpus.push_back(CpuSeconds() - cpu);
    if (walls.size() == 1) peak_rss = PeakRssMib();
    for (const auto& curve : sim_rounds.back()) report.attempted += curve.size();
  } while (!trace && (NowNs() - timing_start) * 1e-9 < seconds);

  // Checks. The order check queries a fresh model per curve in descending
  // support order, untimed: all supports when traced, else the two
  // smallest of each curve (the cheap ones).
  Curve sim = sim_rounds.front();
  Curve reverse(graphs.size());
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    scpm::SimExpectationModel model(graphs[g], topologies[g].params,
                                    kSimSamples, kSimModelSeed);
    const std::vector<std::size_t> supports =
        SimSupports(graphs[g].NumVertices());
    reverse[g] = sim[g];
    const std::size_t count = trace ? supports.size() : 2;
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t i = count - 1 - k;
      reverse[g][i] = model.EstimateWithStddev(supports[i]).mean;
    }
  }
  if (corrupt == "theorem2") {
    sim[0][0] = max_exp[0][0] + 0.1;
  } else if (corrupt == "monotone") {
    max_exp[0][5] = max_exp[0][4] - 1e-3;
  } else if (corrupt == "order") {
    reverse[0][0] += 1e-12;
  } else if (!corrupt.empty()) {
    std::cerr << "unknown --corrupt value for simexp: " << corrupt << "\n";
    return 2;
  }
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    const std::string& kind = topologies[g].kind;
    for (std::size_t i = 0; i < sim[g].size(); ++i) {
      const std::string at = kind + " point " + std::to_string(i + 1) + ": ";
      if (!(0.0 <= sim[g][i] && sim[g][i] <= max_exp[g][i] &&
            max_exp[g][i] <= 1.0)) {
        report.failures.push_back("theorem2 " + at +
                                  "not 0 <= sim-exp <= max-exp <= 1");
      }
      if (i > 0 && max_exp[g][i] < max_exp[g][i - 1]) {
        report.failures.push_back("monotone " + at +
                                  "max-exp decreased with support");
      }
      if (reverse[g][i] != sim[g][i]) {
        report.failures.push_back("order " + at +
                                  "reverse-order query gave another value");
      }
    }
    for (std::size_t r = 1; r < sim_rounds.size(); ++r) {
      if (sim_rounds[r][g] != sim_rounds[0][g]) {
        report.failures.push_back("rounds " + kind + ": estimates changed");
      }
    }
  }

  if (trace) {
    const Tracer::Totals slowest = tracer.Sum("nullmodel.simexp");
    std::map<std::string, double> layer;
    layer["nullmodel.simexp_samples"] =
        static_cast<double>(slowest.count * kSimSamples);
    layer["nullmodel.simexp_max_s"] = slowest.max_seconds;
    if (slowest.max_index >= 0) {
      std::cerr << "slowest support: "
                << tracer.spans()[slowest.max_index].label << " "
                << slowest.max_seconds << " s\n";
    }
    AddLayerMetrics(tracer, layer, &report);
    FinishTrace(tracer, out_dir, "simexp", seed);
  } else {
    report.Add("setup_s", setup_s, "s");
    report.Add("work_s", Median(walls), "s");
    report.Add("cpu_s", Median(cpus), "s");
    report.Add("peak_rss_mib", peak_rss, "MiB");
  }
  std::cerr << "simexp: " << walls.size() << " round(s), work "
            << Median(walls) << " s\n";
  return Emit(report);
}

int Usage() {
  std::cerr << "usage: scpmbench prepare <workload> <seed> <input_dir>\n"
               "       scpmbench run <workload> <seed> <input_dir> <out_dir>"
               " <seconds> <trace 0|1> [corrupt]\n"
               "workloads: dblp citeseer20 scorp simexp\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  main_entered_ns = NowNs();
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 4 && args[0] == "prepare") {
    const std::string error =
        PrepareInputs(args[1], std::stoull(args[2]), args[3]);
    if (!error.empty()) {
      std::cerr << error << "\n";
      return 1;
    }
    return 0;
  }
  if ((args.size() != 7 && args.size() != 8) || args[0] != "run") {
    return Usage();
  }
  const std::string& workload = args[1];
  const std::uint64_t seed = std::stoull(args[2]);
  const double seconds = std::stod(args[5]);
  const bool trace = args[6] == "1";
  const std::string corrupt = args.size() == 8 ? args[7] : "";
  if (workload == "simexp") {
    return RunSimExp(seed, args[3], args[4], seconds, trace, corrupt);
  }
  MiningWorkload w;
  if (!FindMiningWorkload(workload, &w)) return Usage();
  return RunMining(w, seed, args[3], args[4], seconds, trace, corrupt);
}
