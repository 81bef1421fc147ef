// ssb_design and apb_design: CORADD designs a workload over a 7-point
// budget grid (0-8x the fact heap), then the designs are evaluated cold.
// Only the data generation, statistics, discovery (APB), design and
// evaluation layers do work here; nothing is served.
//
// Every repetition builds a fresh fixture: the design context owns the
// candidate-generation cache and the designer owns the memoized cost
// model, so a second DesignMany on the same objects would measure cache
// hits instead of design work.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apb/apb.h"
#include "common/thread_pool.h"
#include "core/coradd_designer.h"
#include "core/evaluator.h"
#include "exec/materialize.h"
#include "spans.h"
#include "ssb/ssb.h"
#include "storage/layout.h"
#include "workloads.h"

namespace perfbench {

using namespace coradd;

namespace {

constexpr double kSsbScale = 0.005;
constexpr double kApbScale = 0.004;
constexpr uint32_t kPageSize = 1024;
/// Set-ups timed per run, counting the ones the repetitions make: at least
/// kMinSetups, and up to kMaxSetups while they take under kSetupSeconds
/// (SSB's ~40 ms set-up is the noisiest figure; APB's mining is not cheap).
constexpr size_t kMinSetups = 5;
constexpr size_t kMaxSetups = 41;
constexpr double kSetupSeconds = 1.5;
const std::vector<double> kBudgetMultiples = {0.0, 0.25, 0.5, 1.0,
                                              2.0, 4.0, 8.0};

/// The figure benches' turnaround options, except that the solver's
/// wall-clock limit is set far beyond any solve: only the wave-deterministic
/// node cap may stop a search, so designs and counts repeat exactly.
CoraddOptions BenchOptions() {
  CoraddOptions options;
  options.candidates.grouping.alphas = {0.0, 0.25, 0.5};
  options.candidates.grouping.restarts = 1;
  options.feedback.max_iterations = 1;
  options.feedback.max_new_per_iteration = 250;
  options.solver.max_nodes = 60000;
  options.solver.time_limit_seconds = 3600.0;
  return options;
}

struct Fixture {
  std::unique_ptr<Catalog> catalog;
  Workload workload;
  std::unique_ptr<DesignContext> context;
  std::vector<uint64_t> budgets;
  double datagen_s = 0.0;
  double context_s = 0.0;
  double mine_s = 0.0;
  double dependencies = 0.0;
  double setup_s() const { return datagen_s + context_s + mine_s; }
};

uint64_t FactHeapBytes(const DesignContext& context, const Workload& workload) {
  uint64_t total = 0;
  for (const auto& fact : workload.FactTables()) {
    const UniverseStats* stats = context.StatsForFact(fact);
    HeapLayout layout;
    layout.num_rows = stats->num_rows();
    layout.row_width_bytes =
        stats->universe().fact_table().schema().RowWidthBytes();
    layout.page_size_bytes = stats->options().disk.page_size_bytes;
    total += layout.SizeBytes();
  }
  return total;
}

Fixture MakeFixture(bool apb, Tracer* tracer, int parent) {
  Fixture f;
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(tracer, "catalog.datagen", parent);
    if (apb) {
      apb::ApbOptions options;
      options.scale = kApbScale;
      f.catalog = apb::MakeCatalog(options);
      f.workload = apb::MakeWorkload(options);
    } else {
      ssb::SsbOptions options;
      options.scale_factor = kSsbScale;
      f.catalog = ssb::MakeCatalog(options);
      f.workload = ssb::MakeAugmentedWorkload();
    }
  }
  const int64_t t1 = NowNs();
  {
    ScopedSpan span(tracer, "stats.context", parent);
    f.context = std::make_unique<DesignContext>(f.catalog.get(), f.workload,
                                                BenchStats(kPageSize));
  }
  const int64_t t2 = NowNs();
  if (apb) {
    ScopedSpan span(tracer, "discovery.mine", parent);
    f.context->MineAllDependencies();
  }
  const int64_t t3 = NowNs();
  f.datagen_s = Seconds(t0, t1);
  f.context_s = Seconds(t1, t2);
  f.mine_s = Seconds(t2, t3);
  if (apb) {
    for (const auto& fact : f.workload.FactTables()) {
      const DiscoveredDependencies* deps = f.context->DependenciesForFact(fact);
      if (deps == nullptr) continue;
      f.dependencies +=
          static_cast<double>(deps->fds().size() + deps->soft_correlations().size());
    }
  }
  const double heap = static_cast<double>(FactHeapBytes(*f.context, f.workload));
  for (double m : kBudgetMultiples) {
    f.budgets.push_back(static_cast<uint64_t>(m * heap));
  }
  return f;
}

/// Everything that identifies a design: objects, their CMs, routing, and
/// the designer's own cost and size figures.
std::string Fingerprint(const DatabaseDesign& d) {
  std::string out = d.designer + "|" + std::to_string(d.budget_bytes) + "|" +
                    std::to_string(d.object_bytes) + "|";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a|", d.expected_seconds);
  out += buf;
  for (const DesignedObject& o : d.objects) {
    out += MvSpecSignature(o.spec) + "{";
    for (const CmSpec& cm : o.cms) out += cm.ToString() + ";";
    out += "}";
  }
  for (int oi : d.object_for_query) out += std::to_string(oi) + ",";
  return out;
}

struct Evaluation {
  double sim_s = 0.0;  ///< frequency-weighted simulated runtime, all designs
  double eval_s = 0.0;
  double materialize_s = 0.0;  ///< traced runs only
};

/// Cold evaluation of every grid design in one RunMany sweep. Checks that
/// each query's aggregate and row count agree across the grid's designs.
Evaluation Evaluate(const Fixture& f, const std::vector<DatabaseDesign>& designs,
                    const CostModel& planner, Tally* tally, Tracer* tracer) {
  Evaluation ev;
  if (tracer->enabled()) {
    // Materialization happens inside RunMany; a traced run also times it
    // on its own, outside the evaluation span.
    ScopedSpan span(tracer, "core.materialize");
    const int64_t t0 = NowNs();
    std::set<std::string> seen;
    for (const DatabaseDesign& d : designs) {
      for (const DesignedObject& o : d.objects) {
        if (!seen.insert(MvSpecSignature(o.spec) + std::to_string(o.cms.size()))
                 .second) {
          continue;
        }
        Materializer m(f.context->UniverseForFact(o.spec.fact_table),
                       f.context->stats_options().disk);
        m.Materialize(o.spec, o.cms, o.btree_columns);
      }
    }
    ev.materialize_s = Seconds(t0, NowNs());
  }
  ScopedSpan span(tracer, "core.eval");
  const int64_t t0 = NowNs();
  DesignEvaluator evaluator(f.context.get(), /*cache_capacity=*/64);
  std::vector<EvalJob> jobs;
  for (const DatabaseDesign& d : designs) {
    jobs.push_back(EvalJob{&d, &f.workload, &planner});
  }
  const std::vector<WorkloadRunResult> results = evaluator.RunMany(jobs);
  ev.eval_s = Seconds(t0, NowNs());

  for (const WorkloadRunResult& r : results) ev.sim_s += r.total_seconds;
  const std::vector<QueryRunRecord>& ref = results.front().per_query;
  for (size_t j = 1; j < results.size(); ++j) {
    const std::vector<QueryRunRecord>& got = results[j].per_query;
    tally->Check(got.size() == ref.size(), "evaluated query count");
    for (size_t q = 0; q < std::min(got.size(), ref.size()); ++q) {
      // Designs order rows differently, so sums agree to rounding only.
      const double want = ref[q].aggregate;
      const bool ok =
          got[q].rows_output == ref[q].rows_output &&
          std::abs(got[q].aggregate - want) <= std::abs(want) * 1e-9 + 1e-6;
      tally->Check(ok, "aggregate of " + ref[q].query_id + " differs on grid design " +
                           std::to_string(j));
    }
  }
  return ev;
}

/// Exact counts of one design pass (the determinism pin).
std::map<std::string, double> DesignCounts(
    const Fixture& f, const std::vector<DatabaseDesign>& designs,
    size_t candidates, size_t after_domination, const CandGenStats& cg,
    const SolverStats& solver, double optimal_points, double added) {
  std::map<std::string, double> c;
  double cms = 0.0;
  for (const DatabaseDesign& d : designs) {
    for (const DesignedObject& o : d.objects) cms += static_cast<double>(o.cms.size());
  }
  c["mv.candidates"] = static_cast<double>(candidates);
  c["mv.trials_priced"] = static_cast<double>(cg.trials_priced);
  c["mv.trials_pruned"] = static_cast<double>(cg.trials_pruned);
  c["mv.groups_designed"] = static_cast<double>(cg.groups_designed);
  c["ilp.kept_ratio"] = candidates > 0 ? static_cast<double>(after_domination) /
                                             static_cast<double>(candidates)
                                       : 0.0;
  c["solver.solves"] = static_cast<double>(solver.solves);
  c["solver.nodes"] = static_cast<double>(solver.nodes_expanded);
  c["solver.optimal_ratio"] = optimal_points / static_cast<double>(designs.size());
  c["solver.warm_win_ratio"] =
      solver.warm_solves > 0 ? static_cast<double>(solver.warm_wins) /
                                   static_cast<double>(solver.warm_solves)
                             : 0.0;
  c["feedback.candidates_added"] = added;
  c["cm.count"] = cms;
  c["discovery.dependencies"] = f.dependencies;
  double rows = 0.0;
  for (const auto& fact : f.workload.FactTables()) {
    rows += static_cast<double>(f.context->StatsForFact(fact)->num_rows());
  }
  c["rows"] = rows;
  return c;
}

struct DesignPass {
  std::vector<DatabaseDesign> designs;
  double design_s = 0.0;  ///< untraced pass only
  double cpu_s = 0.0;     ///< untraced pass only
  double steal_share = 0.0;  ///< of host CPU time during the pass
  std::map<std::string, double> counts;
};

/// The measured path: one CoraddDesigner::DesignMany over the grid.
DesignPass DesignUntraced(const Fixture& f) {
  DesignPass p;
  CoraddDesigner designer(f.context.get(), BenchOptions());
  std::vector<CoraddRunInfo> infos;
  const double cpu0 = ProcessCpuSeconds();
  const HostCpu host0 = ReadHostCpu();
  const int64_t t0 = NowNs();
  p.designs = designer.DesignMany(f.workload, f.budgets, &infos);
  p.design_s = Seconds(t0, NowNs());
  StealMeter steal;
  steal.Add(host0, ReadHostCpu());
  p.steal_share = steal.share();
  p.cpu_s = ProcessCpuSeconds() - cpu0;

  SolverStats solver;
  double optimal = 0.0, added = 0.0;
  for (const CoraddRunInfo& info : infos) {
    solver.Accumulate(info.solver_stats);
    if (info.solver_stats.proved_optimal) optimal += 1.0;
    added += static_cast<double>(info.feedback_candidates_added);
  }
  p.counts = DesignCounts(f, p.designs, infos.front().candidates_enumerated,
                          infos.front().candidates_after_domination,
                          designer.candgen_stats(), solver, optimal, added);
  return p;
}

/// The traced path: the public layer calls DesignMany makes, in its order,
/// each under a span. Must reproduce DesignUntraced's designs exactly.
DesignPass DesignTraced(const Fixture& f, Tracer* tracer) {
  DesignPass p;
  const CoraddOptions options = BenchOptions();
  const StatsRegistry& registry = f.context->registry();
  CorrelationCostModel model(&registry, options.cost_model);
  MvCandidateGenerator generator(&f.context->catalog(), &registry, &model,
                                 options.candidates);
  CmDesigner cm_designer(&registry, &model, options.cm);

  const int root = tracer->Begin("design");
  CandidateSet candidates;
  {
    ScopedSpan span(tracer, "mv.candgen", root);
    candidates = generator.Generate(f.workload);
  }
  BuiltProblem base;
  {
    ScopedSpan span(tracer, "ilp.price", root);
    base = BuildSelectionProblem(f.workload, candidates.mvs, model, registry,
                                 f.budgets.front());
  }
  if (options.prune_dominated) {
    ScopedSpan span(tracer, "ilp.dominate", root);
    PruneDominated(&base);
  }
  const size_t after_domination = base.specs.size();

  WarmStartSession warm;
  GroupDesignMemo memo;
  SolverStats solver;
  double optimal = 0.0, added = 0.0;
  for (uint64_t budget : f.budgets) {
    BuiltProblem per_budget;
    std::vector<int> warm_chosen;
    {
      ScopedSpan span(tracer, "solver.warm", root);
      per_budget = base;
      per_budget.problem.budget_bytes = budget;
      warm_chosen = warm.WarmChosen(per_budget);
    }
    FeedbackOutcome fb;
    {
      ScopedSpan span(tracer, "feedback", root);
      fb = RunIlpFeedback(f.workload, generator, model, registry,
                          std::move(per_budget), budget, options.feedback,
                          options.solver,
                          warm_chosen.empty() ? nullptr : &warm_chosen, &memo);
    }
    {
      ScopedSpan span(tracer, "solver.warm", root);
      warm.Record(fb.problem, fb.result);
    }
    solver.Accumulate(fb.solver_stats);
    if (fb.solver_stats.proved_optimal) optimal += 1.0;
    added += static_cast<double>(fb.candidates_added);

    // Packaging, as CoraddDesigner does it: CMs on each chosen object for
    // the queries routed to it.
    DatabaseDesign design;
    design.designer = "CORADD";
    design.budget_bytes = budget;
    design.expected_seconds = fb.result.expected_cost;
    design.object_bytes = fb.result.used_bytes;
    std::vector<int> object_index(fb.problem.specs.size(), -1);
    for (int m : fb.result.chosen) {
      const MvSpec& spec = fb.problem.specs[static_cast<size_t>(m)];
      std::vector<const Query*> served;
      for (size_t q = 0; q < fb.result.best_for_query.size(); ++q) {
        if (fb.result.best_for_query[q] == m) served.push_back(&f.workload.queries[q]);
      }
      DesignedObject obj;
      obj.spec = spec;
      {
        ScopedSpan span(tracer, "cm.design", root);
        obj.cms = cm_designer.Design(spec, served);
      }
      object_index[static_cast<size_t>(m)] = static_cast<int>(design.objects.size());
      design.objects.push_back(std::move(obj));
    }
    design.object_for_query.resize(f.workload.queries.size(), -1);
    for (size_t q = 0; q < fb.result.best_for_query.size(); ++q) {
      const int m = fb.result.best_for_query[q];
      if (m >= 0) design.object_for_query[q] = object_index[static_cast<size_t>(m)];
    }
    p.designs.push_back(std::move(design));
  }
  tracer->End(root);
  p.counts = DesignCounts(f, p.designs, candidates.mvs.size(), after_domination,
                          generator.stats(), solver, optimal, added);
  return p;
}

/// Checks that a repetition's exact counts and simulated runtime match the
/// first repetition's bit for bit.
void CheckRepeats(const std::map<std::string, double>& first,
                  const std::map<std::string, double>& again, Tally* tally,
                  const char* what) {
  for (const auto& [name, value] : first) {
    const auto it = again.find(name);
    tally->Check(it != again.end() && BitEqual(it->second, value),
                 std::string(what) + ": " + name + " drifted");
  }
}

}  // namespace

RunOutput RunDesignWorkload(const RunArgs& args, bool apb) {
  RunOutput out;
  Tracer off(false);
  std::vector<double> setup_s, design_s, design_cpu_s, steal_share;
  std::map<std::string, double> first_counts;
  std::vector<DatabaseDesign> reference;
  StealMeter setup_steal;
  auto timed_setup = [&] {
    const HostCpu host0 = ReadHostCpu();
    Fixture f = MakeFixture(apb, &off, -1);
    setup_steal.Add(host0, ReadHostCpu());
    setup_s.push_back(f.setup_s());
    return f;
  };

  // Untraced repetitions: until the measured time is spent (at least one;
  // a traced run makes exactly one, as the reference for the traced pass).
  const int64_t start = NowNs();
  for (int rep = 0;; ++rep) {
    const int64_t rep_start = NowNs();
    Fixture f = timed_setup();
    DesignPass pass = DesignUntraced(f);
    design_s.push_back(pass.design_s);
    design_cpu_s.push_back(pass.cpu_s);
    steal_share.push_back(pass.steal_share);
    const CorrelationCostModel planner(&f.context->registry(),
                                       BenchOptions().cost_model);
    const Evaluation ev = Evaluate(f, pass.designs, planner, &out.tally, &off);
    pass.counts["design_sim_s"] = ev.sim_s;
    if (rep == 0) {
      first_counts = pass.counts;
      reference = std::move(pass.designs);
    } else {
      CheckRepeats(first_counts, pass.counts, &out.tally, "repetition");
    }
    // Stop when another repetition would end more than half of one past
    // the measured time, so a run lasts about --seconds.
    const int64_t now = NowNs();
    if (args.trace || Seconds(start, now) + Seconds(rep_start, now) / 2 >= args.seconds) {
      break;
    }
  }
  double extra_s = 0.0;
  while (!args.trace && (setup_s.size() < kMinSetups ||
                         (setup_s.size() < kMaxSetups && extra_s < kSetupSeconds))) {
    timed_setup();
    extra_s += setup_s.back();
  }
  out.counts = first_counts;
  out.counts["host_steal_share"] = Median(steal_share);
  out.counts["raw_setup_s"] = Median(setup_s);
  out.counts["raw_op_p50_ms"] = 1e3 * Median(design_s);

  if (!args.trace) {
    // Times net of the CPU time the hypervisor gave to other guests.
    std::vector<double> net_design_s;
    double total = 0.0;
    for (size_t i = 0; i < design_s.size(); ++i) {
      net_design_s.push_back(design_s[i] * (1.0 - steal_share[i]));
      total += net_design_s.back();
    }
    out.metrics["setup_s"] = Median(setup_s) * (1.0 - setup_steal.share());
    out.metrics["op_p50_ms"] = 1e3 * Median(net_design_s);
    out.metrics["op_per_s"] = static_cast<double>(design_s.size()) / total;
    out.metrics["design_sim_s"] = first_counts.at("design_sim_s");
    out.metrics["peak_rss_mb"] = PeakRssMb();
    return out;
  }

  // Traced pass on a fresh fixture: spans around every public layer call.
  Tracer tracer(true);
  const int setup_root = tracer.Begin("setup");
  Fixture f = MakeFixture(apb, &tracer, setup_root);
  tracer.End(setup_root);
  DesignPass traced = DesignTraced(f, &tracer);
  out.tally.Check(traced.designs.size() == reference.size(),
                  "traced design count");
  for (size_t i = 0; i < std::min(traced.designs.size(), reference.size()); ++i) {
    out.tally.Check(Fingerprint(traced.designs[i]) == Fingerprint(reference[i]),
                    "traced design differs at budget " + std::to_string(i));
  }
  CorrelationCostModel planner(&f.context->registry(), BenchOptions().cost_model);
  const Evaluation ev = Evaluate(f, traced.designs, planner, &out.tally, &tracer);
  traced.counts["design_sim_s"] = ev.sim_s;
  CheckRepeats(first_counts, traced.counts, &out.tally, "traced pass");

  const std::vector<Span> spans = tracer.spans();
  const std::map<std::string, double> self = SelfSecondsByName(spans);
  auto self_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  double root_s = 0.0;
  for (const Span& s : spans) {
    if (s.name == "design") root_s = s.seconds();
  }
  std::map<std::string, double>& m = out.metrics;
  m["catalog.datagen_s"] = self_of("catalog.datagen");
  m["stats.context_s"] = self_of("stats.context");
  m["discovery.mine_s"] = self_of("discovery.mine");
  m["mv.candgen_s"] = self_of("mv.candgen");
  m["ilp.price_s"] = self_of("ilp.price");
  m["ilp.dominate_s"] = self_of("ilp.dominate");
  m["solver.warm_s"] = self_of("solver.warm");
  m["feedback.s"] = self_of("feedback");
  m["cm.design_s"] = self_of("cm.design");
  m["core.materialize_s"] = ev.materialize_s;
  m["core.eval_s"] = ev.eval_s;
  m["design.traced_s"] = root_s;
  m["design.untraced_s"] = design_s.front();
  const double threads =
      static_cast<double>(ThreadPool::Shared().participant_capacity());
  m["common.design_cpu_s"] = design_cpu_s.front();
  m["common.parallel_eff"] = design_cpu_s.front() / (design_s.front() * threads);
  m["trace.unattributed_ratio"] = root_s > 0.0 ? self_of("design") / root_s : 1.0;
  m["trace.overhead_ratio"] = root_s / design_s.front();
  for (const auto& [name, value] : first_counts) m[name] = value;
  m.erase("design_sim_s");
  m.erase("rows");
  out.tally.Check(m["trace.unattributed_ratio"] <= kTraceTolerance,
                  "layer self times leave more than the tolerance unattributed");
  if (!args.trace_path.empty()) tracer.WriteChromeJson(args.trace_path);
  return out;
}

}  // namespace perfbench
