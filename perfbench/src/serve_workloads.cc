// ssb_serve and ssb_mixed: closed-loop clients read through the serving
// engine over a fixed design of augmented SSB (SF 0.05 for ssb_serve, 0.01
// for ssb_mixed). No designer runs: the benchmark builds the design itself
// (the base table, plus one MV clustered on its predicate columns for each
// odd-indexed query), so half the queries are full scans of the base and
// half narrow clustered MV scans. ssb_serve is read-only with no page pool; ssb_mixed adds a writer
// session submitting insert batches and sizes the engine's shared buffer
// pool to the read working set, which the inserts push past capacity.
//
// The seed drives only the client streams and the writer's batch sizes;
// the data and the design are the same for every seed.
//
// Every caller is closed-loop and nothing waits on a clock: the writer
// submits its next batch as soon as the last one is applied, like
// bench_serving's maintenance row. How much writing a run does then follows
// from the engine's alternation of read and writer epochs, not from a pause
// that would give writers a larger share of the window on a slower host.
#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "cost/correlation_cost_model.h"
#include "serving/client_driver.h"
#include "serving/serving.h"
#include "spans.h"
#include "ssb/ssb.h"
#include "workloads.h"

namespace perfbench {

using namespace coradd;
using serving::ServingEngine;
using serving::ServingOptions;
using serving::TicketResult;

namespace {

constexpr double kScale = 0.05;
/// ssb_mixed's writer epochs keep the maintenance pool and the engine's
/// pool (one page entry per working-set page) hot. At SF 0.01 both fit in
/// a core's private cache instead of the cache shared with other guests,
/// which made the workload steadier on a shared host.
constexpr double kMixedScale = 0.01;
constexpr uint32_t kPageSize = 1024;
/// Set-ups timed per run (the median is reported); SF 0.01's are cheap.
constexpr int kServeSetups = 5;
constexpr int kMixedSetups = 9;
constexpr double kZipf = 1.2;
constexpr size_t kStreamLength = 8192;
constexpr double kWarmupSeconds = 1.0;
/// Throughput is the median over this many equal slices of the window, so a
/// short burst of interference from outside the process moves it little.
constexpr size_t kRateSlices = 20;
/// A traced run alternates untraced and traced parts of the window, this
/// many in all, so host drift during the run lands on both sides of
/// trace.overhead_ratio alike.
constexpr size_t kTraceParts = 8;
constexpr size_t kServeClients = 4;
constexpr size_t kMixedReaders = 3;
/// Insert batch sizes: seeded, uniform around bench_serving's maintenance
/// row (2,500 inserts per SubmitMaintenance), from half to 1.5 times it.
constexpr uint64_t kMeanBatch = 2500;

struct Fixture {
  std::unique_ptr<Catalog> catalog;
  Workload workload;
  std::unique_ptr<DesignContext> context;
  DatabaseDesign design;
  std::unique_ptr<CorrelationCostModel> planner;
  std::unique_ptr<ServingEngine> engine;  // last: destroyed first
  double datagen_s = 0.0;
  double context_s = 0.0;
  double engine_s = 0.0;
  double setup_s() const { return datagen_s + context_s + engine_s; }
};

DatabaseDesign FixedDesign(const Fixture& f) {
  DatabaseDesign d;
  d.designer = "fixed";
  DesignedObject base;
  base.spec.name = "base";
  base.spec.fact_table = "lineorder";
  const Universe* u = f.context->UniverseForFact("lineorder");
  for (size_t c = 0; c < u->fact_table().schema().NumColumns(); ++c) {
    base.spec.columns.push_back(u->fact_table().schema().Column(c).name);
  }
  base.spec.clustered_key = {"lo_orderkey", "lo_linenumber"};
  base.spec.is_fact_recluster = true;
  base.spec.is_base = true;
  d.objects.push_back(base);
  for (size_t qi = 0; qi < f.workload.queries.size(); ++qi) {
    if (qi % 2 == 0) {
      d.object_for_query.push_back(0);
      continue;
    }
    const Query& q = f.workload.queries[qi];
    DesignedObject mv;
    mv.spec.name = "mv_q" + std::to_string(qi);
    mv.spec.fact_table = q.fact_table;
    mv.spec.columns = q.AllColumns();
    mv.spec.clustered_key = q.PredicateColumns();
    d.object_for_query.push_back(static_cast<int>(d.objects.size()));
    d.objects.push_back(std::move(mv));
  }
  return d;
}

std::unique_ptr<Fixture> MakeFixture(bool mixed, Tracer* tracer, int parent) {
  auto f = std::make_unique<Fixture>();
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(tracer, "catalog.datagen", parent);
    ssb::SsbOptions options;
    options.scale_factor = mixed ? kMixedScale : kScale;
    f->catalog = ssb::MakeCatalog(options);
    f->workload = ssb::MakeAugmentedWorkload();
  }
  const int64_t t1 = NowNs();
  {
    ScopedSpan span(tracer, "stats.context", parent);
    f->context = std::make_unique<DesignContext>(f->catalog.get(), f->workload,
                                                 BenchStats(kPageSize));
  }
  const int64_t t2 = NowNs();
  {
    ScopedSpan span(tracer, "serving.materialize", parent);
    f->design = FixedDesign(*f);
    f->planner = std::make_unique<CorrelationCostModel>(&f->context->registry());
    ServingOptions options;
    if (mixed) options.pool_fraction = 1.0;
    f->engine = std::make_unique<ServingEngine>(f->context.get(), &f->design,
                                                &f->workload, f->planner.get(),
                                                options);
  }
  const int64_t t3 = NowNs();
  f->datagen_s = Seconds(t0, t1);
  f->context_s = Seconds(t1, t2);
  f->engine_s = Seconds(t2, t3);
  return f;
}

/// Reference results, computed before serving and never timed.
struct Reference {
  std::vector<QueryRunResult> solo;
  std::vector<double> solo_wall_s;
  double sim_s = 0.0;  ///< frequency-weighted simulated runtime of the workload
};

Reference ComputeReference(const Fixture& f) {
  Reference ref;
  for (size_t qi = 0; qi < f.workload.queries.size(); ++qi) {
    const int64_t t0 = NowNs();
    ref.solo.push_back(f.engine->RunSolo(qi));
    ref.solo_wall_s.push_back(Seconds(t0, NowNs()));
    ref.sim_s += f.workload.queries[qi].frequency * ref.solo.back().seconds;
  }
  return ref;
}

/// One closed-loop client's record of a measurement window.
struct ClientLog {
  std::vector<double> latency_s;
  std::vector<int64_t> done_ns;
  std::vector<double> wait_s;  ///< latency minus the query's solo execution
  uint64_t pages_read = 0;
  uint64_t ok = 0;
  std::vector<std::string> failures;
  std::vector<Span> spans;
};

/// Submits queries from `stream` (cyclically, starting at *cursor) until
/// `end_ns`, each after the previous one's result arrived. Results are
/// checked against the solo reference; latencies are kept for requests
/// submitted at or after `window_ns` that completed by `end_ns`.
void RunClient(ServingEngine* engine, const std::vector<size_t>& stream,
               size_t* cursor, const Reference& ref, int64_t window_ns,
               int64_t end_ns, int trace_parent, ClientLog* log) {
  while (NowNs() < end_ns) {
    const size_t qi = stream[(*cursor)++ % stream.size()];
    const int64_t t0 = NowNs();
    const TicketResult r = engine->Submit(qi).get();
    const int64_t t1 = NowNs();
    const QueryRunResult& want = ref.solo[qi];
    if (BitEqual(r.aggregate, want.aggregate) && r.rows_output == want.rows_output) {
      ++log->ok;
    } else {
      log->failures.push_back("served " + r.query_id + " differs from RunSolo");
    }
    if (t0 < window_ns || t1 > end_ns) continue;
    const double latency = Seconds(t0, t1);
    log->latency_s.push_back(latency);
    log->done_ns.push_back(t1);
    log->wait_s.push_back(latency - ref.solo_wall_s[qi]);
    log->pages_read += r.pages_read;
    if (trace_parent >= 0) {
      Span span;
      span.name = "serving.ticket";
      span.start_ns = t0;
      span.end_ns = t1;
      span.parent = trace_parent;
      span.tag = static_cast<int64_t>(r.epoch);
      log->spans.push_back(std::move(span));
    }
  }
}

/// Reads measured over one or more parts of the window.
struct Window {
  double seconds = 0.0;
  double cpu_s = 0.0;
  std::vector<double> slice_rates;  ///< reads per second in each slice
  std::vector<double> latency_s;
  std::vector<double> wait_s;
  std::vector<int64_t> done_ns;  ///< when each kept read's result arrived
  uint64_t pages_read = 0;
  /// Traced parts: the root span of each and its interval.
  std::vector<std::pair<int, std::pair<int64_t, int64_t>>> roots;

  /// Median of the slice throughputs, reads per second.
  double rate() const { return Median(slice_rates); }
  void Add(Window part) {
    seconds += part.seconds;
    cpu_s += part.cpu_s;
    slice_rates.insert(slice_rates.end(), part.slice_rates.begin(),
                       part.slice_rates.end());
    latency_s.insert(latency_s.end(), part.latency_s.begin(), part.latency_s.end());
    wait_s.insert(wait_s.end(), part.wait_s.begin(), part.wait_s.end());
    done_ns.insert(done_ns.end(), part.done_ns.begin(), part.done_ns.end());
    pages_read += part.pages_read;
    roots.insert(roots.end(), part.roots.begin(), part.roots.end());
  }
};

/// Runs one client thread per stream until `end_ns`, keeping the reads
/// submitted from `window_ns` on; throughput is counted in `slices` equal
/// slices of the window.
Window RunReaders(ServingEngine* engine,
                  const std::vector<std::vector<size_t>>& streams,
                  std::vector<size_t>* cursors, const Reference& ref,
                  int64_t window_ns, int64_t end_ns, size_t slices,
                  Tracer* tracer, Tally* tally) {
  Window w;
  const int root = tracer->Begin("serve.window");
  std::vector<ClientLog> logs(streams.size());
  const double cpu0 = ProcessCpuSeconds();
  {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < streams.size(); ++c) {
      clients.emplace_back(RunClient, engine, std::cref(streams[c]),
                           &(*cursors)[c], std::cref(ref), window_ns, end_ns,
                           root, &logs[c]);
    }
    for (std::thread& t : clients) t.join();
  }
  w.cpu_s = ProcessCpuSeconds() - cpu0;
  tracer->End(root);
  if (root >= 0) w.roots.push_back({root, {window_ns, end_ns}});
  w.seconds = Seconds(window_ns, end_ns);
  for (ClientLog& log : logs) {
    tally->Pass(log.ok);
    for (const std::string& what : log.failures) tally->Check(false, what);
    w.latency_s.insert(w.latency_s.end(), log.latency_s.begin(), log.latency_s.end());
    w.wait_s.insert(w.wait_s.end(), log.wait_s.begin(), log.wait_s.end());
    w.done_ns.insert(w.done_ns.end(), log.done_ns.begin(), log.done_ns.end());
    w.pages_read += log.pages_read;
    tracer->Append(std::move(log.spans));
  }
  w.slice_rates.assign(slices, 0.0);
  const double slice_ns = static_cast<double>(end_ns - window_ns) / slices;
  for (const ClientLog& log : logs) {
    for (int64_t t : log.done_ns) {
      const auto k = static_cast<size_t>(static_cast<double>(t - window_ns) / slice_ns);
      w.slice_rates[std::min(k, slices - 1)] += 1.0;
    }
  }
  for (double& n : w.slice_rates) n /= 1e-9 * slice_ns;
  return w;
}

/// The ssb_mixed writer session: submits a seeded-size insert batch, waits
/// for it, and submits the next; from `start_ns` until `end_ns`.
struct WriterLog {
  std::vector<std::pair<int64_t, int64_t>> batches;  ///< submit, applied
  uint64_t inserts = 0;

  std::vector<double> latency_s() const {
    std::vector<double> out;
    for (const auto& [t0, t1] : batches) out.push_back(Seconds(t0, t1));
    return out;
  }
};

void RunWriter(ServingEngine* engine, uint64_t seed, int64_t start_ns,
               int64_t end_ns, WriterLog* log) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(start_ns)));
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<uint64_t> batch(kMeanBatch / 2, kMeanBatch * 3 / 2);
  while (NowNs() < end_ns) {
    const uint64_t n = batch(rng);
    const int64_t t0 = NowNs();
    engine->SubmitMaintenance(n).get();
    log->batches.push_back({t0, NowNs()});
    log->inserts += n;
  }
}

/// Share of the window spent in writer epochs, estimated from the client
/// side: a batch runs from the end of the read epoch it waited behind (the
/// last read result before the batch was applied) until it is applied.
double WriterShare(const WriterLog& log, std::vector<int64_t> reads_done_ns,
                   double window_s) {
  std::sort(reads_done_ns.begin(), reads_done_ns.end());
  double writing_s = 0.0;
  for (const auto& [t0, t1] : log.batches) {
    const auto it = std::lower_bound(reads_done_ns.begin(), reads_done_ns.end(), t1);
    const int64_t from =
        it == reads_done_ns.begin() ? t0 : std::max(t0, *std::prev(it));
    writing_s += Seconds(from, t1);
  }
  return writing_s / window_s;
}

/// Writer batches as spans under the traced part that holds their start.
std::vector<Span> WriterSpans(const WriterLog& log, const Window& traced) {
  std::vector<Span> spans;
  for (const auto& [t0, t1] : log.batches) {
    for (const auto& [root, part] : traced.roots) {
      if (t0 < part.first || t0 >= part.second) continue;
      Span span;
      span.name = "maintenance.batch";
      span.start_ns = t0;
      span.end_ns = t1;
      span.parent = root;
      spans.push_back(std::move(span));
    }
  }
  return spans;
}

double Ms(std::optional<double> seconds) {
  return seconds ? 1e3 * *seconds : 0.0;
}

}  // namespace

RunOutput RunServeWorkload(const RunArgs& args, bool mixed) {
  RunOutput out;
  Tracer tracer(args.trace);
  Tracer off(false);
  std::vector<double> setup_s;
  StealMeter setup_steal;
  std::unique_ptr<Fixture> f;
  const int setups = mixed ? kMixedSetups : kServeSetups;
  for (int i = 0; i < setups; ++i) {
    f.reset();
    const bool last = i == setups - 1;
    const int root = last ? tracer.Begin("setup") : -1;
    const HostCpu host0 = ReadHostCpu();
    f = MakeFixture(mixed, last ? &tracer : &off, root);
    setup_steal.Add(host0, ReadHostCpu());
    tracer.End(root);
    setup_s.push_back(f->setup_s());
  }
  ServingEngine* engine = f->engine.get();
  const Reference ref = ComputeReference(*f);

  const size_t readers = mixed ? kMixedReaders : kServeClients;
  std::vector<std::vector<size_t>> streams;
  for (size_t c = 0; c < readers; ++c) {
    streams.push_back(serving::MakeLookalikeStream(
        f->workload.queries.size(), kStreamLength, args.seed * 1000003 + c, kZipf));
  }
  std::vector<size_t> cursors(readers, 0);

  std::vector<MaintainedObject> maintained;
  MaintenanceOptions mopt;
  if (mixed) {
    maintained = engine->DerivedMaintainedObjects();
    mopt.buffer_pool_pages = engine->page_pool()->capacity_pages();
    mopt.disk = f->context->stats_options().disk;
    engine->ConfigureMaintenance(maintained, mopt);
  }
  engine->Start();

  // Warm-up, then the measured window. A traced run alternates untraced and
  // traced parts of the window, for the tracing overhead. The writer runs
  // through the whole window.
  const int64_t warm_start = NowNs();
  const int64_t window_start =
      warm_start + static_cast<int64_t>(kWarmupSeconds * 1e9);
  const int64_t window_end = window_start + static_cast<int64_t>(args.seconds * 1e9);
  WriterLog writer_log;
  std::thread writer;
  if (mixed) {
    writer = std::thread(RunWriter, engine, args.seed * 7919 + 17, window_start,
                         window_end, &writer_log);
  }
  RunReaders(engine, streams, &cursors, ref, warm_start, window_start, 1, &off,
             &out.tally);
  Window measured, traced;
  const HostCpu host0 = ReadHostCpu();
  const size_t parts = args.trace ? kTraceParts : 1;
  auto part_start = [&](size_t part) {
    return window_start + (window_end - window_start) * static_cast<int64_t>(part) /
                              static_cast<int64_t>(parts);
  };
  for (size_t part = 0; part < parts; ++part) {
    const bool traced_part = part % 2 == 1;
    (traced_part ? traced : measured)
        .Add(RunReaders(engine, streams, &cursors, ref, part_start(part),
                        part_start(part + 1), kRateSlices / parts,
                        traced_part ? &tracer : &off, &out.tally));
  }
  StealMeter window_steal;
  window_steal.Add(host0, ReadHostCpu());
  const double steal_share = window_steal.share();
  if (writer.joinable()) writer.join();

  MaintenanceResult totals;
  if (mixed) {
    totals = engine->FinishMaintenance();
    MaintenanceOptions iso = mopt;
    iso.num_inserts = writer_log.inserts;
    const MaintenanceResult isolated = SimulateInsertions(maintained, iso);
    out.tally.Check(BitEqual(totals.seconds, isolated.seconds) &&
                        totals.dirty_evictions == isolated.dirty_evictions &&
                        totals.pool_misses == isolated.pool_misses &&
                        totals.pages_written == isolated.pages_written,
                    "served maintenance totals differ from SimulateInsertions");
  }
  const serving::ServingStats stats = engine->stats();
  engine->Stop();

  const std::vector<double> write_s = writer_log.latency_s();
  Window all = measured;
  all.Add(traced);
  const double writer_share =
      WriterShare(writer_log, all.done_ns, Seconds(window_start, window_end));
  const std::optional<double> p99 = TailPercentile(measured.latency_s, 99.0);
  const std::optional<double> w95 = TailPercentile(write_s, 95.0);
  out.counts["design_sim_s"] = ref.sim_s;
  out.counts["rows"] = static_cast<double>(f->catalog->GetTable("lineorder")->NumRows());
  out.counts["working_set_pages"] = static_cast<double>(engine->WorkingSetPages());
  out.counts["pool_pages"] =
      mixed ? static_cast<double>(engine->page_pool()->capacity_pages()) : 0.0;
  // Workload-specific end-to-end figures, reported beside the result line.
  out.counts["serve_p99_ms"] = Ms(p99);
  out.counts["serve_samples"] = static_cast<double>(measured.latency_s.size());
  out.counts["host_steal_share"] = steal_share;
  out.counts["raw_setup_s"] = Median(setup_s);
  out.counts["raw_op_p50_ms"] = 1e3 * Median(measured.latency_s);
  out.counts["raw_op_per_s"] = measured.rate();
  if (mixed) {
    out.counts["write_p50_ms"] = 1e3 * Median(write_s);
    out.counts["write_p95_ms"] = Ms(w95);
    out.counts["write_samples"] = static_cast<double>(write_s.size());
    out.counts["writer_share"] = writer_share;
  }

  if (!args.trace) {
    out.tally.Check(p99.has_value(), "too few reads for a p99");
    if (mixed) out.tally.Check(w95.has_value(), "too few insert batches for a p95");
    // Net of the CPU time the hypervisor gave to other guests.
    out.metrics["setup_s"] = Median(setup_s) * (1.0 - setup_steal.share());
    out.metrics["op_p50_ms"] = 1e3 * Median(measured.latency_s) * (1.0 - steal_share);
    out.metrics["op_per_s"] = measured.rate() / (1.0 - steal_share);
    out.metrics["design_sim_s"] = ref.sim_s;
    out.metrics["peak_rss_mb"] = PeakRssMb();
    return out;
  }

  tracer.Append(WriterSpans(writer_log, traced));
  const std::vector<Span> spans = tracer.spans();
  const std::map<std::string, double> self = SelfSecondsByName(spans);
  auto self_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double completed = static_cast<double>(stats.completed);
  const double traced_n = static_cast<double>(traced.latency_s.size());
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  std::map<std::string, double>& m = out.metrics;
  m["catalog.datagen_s"] = self_of("catalog.datagen");
  m["stats.context_s"] = self_of("stats.context");
  m["serving.materialize_s"] = self_of("serving.materialize");
  m["exec.solo_p50_ms"] = 1e3 * Median(ref.solo_wall_s);
  m["exec.pages_read"] = ratio(static_cast<double>(traced.pages_read), traced_n);
  m["serving.epochs"] = static_cast<double>(stats.epochs);
  m["serving.tickets_per_epoch"] = ratio(completed, static_cast<double>(stats.epochs));
  m["serving.shared_ratio"] = ratio(static_cast<double>(stats.shared_executed), completed);
  m["serving.dedup_ratio"] = ratio(static_cast<double>(stats.lookalike_hits), completed);
  m["serving.queue_hwm"] = static_cast<double>(stats.queue_depth_high_water);
  m["serving.wait_p50_ms"] = 1e3 * Median(traced.wait_s);
  m["serving.p50_ms"] = 1e3 * Median(traced.latency_s);
  m["serving.p99_ms"] = Ms(TailPercentile(traced.latency_s, 99.0));
  m["serving.qps"] = traced.rate();
  m["serving.samples"] = traced_n;
  m["common.serve_cpu_s"] = traced.cpu_s;
  m["common.parallel_eff"] =
      ratio(traced.cpu_s,
            traced.seconds *
                static_cast<double>(ThreadPool::Shared().participant_capacity()));
  m["storage.pool_hit_ratio"] = stats.pool.hit_rate();
  m["storage.pool_touches_per_query"] =
      ratio(static_cast<double>(stats.pool.touches), completed);
  m["storage.pool_evictions"] = static_cast<double>(stats.pool.evictions);
  m["storage.pool_writebacks"] = static_cast<double>(stats.pool.dirty_writebacks);
  m["maintenance.sim_s"] = totals.seconds;
  m["maintenance.pages_written"] = static_cast<double>(totals.pages_written);
  m["maintenance.dirty_evictions"] = static_cast<double>(totals.dirty_evictions);
  m["maintenance.batches"] = static_cast<double>(write_s.size());
  m["maintenance.write_p50_ms"] = 1e3 * Median(write_s);
  m["maintenance.write_p95_ms"] = Ms(w95);
  m["maintenance.writer_share"] = writer_share;
  // Untraced over traced throughput of the alternating parts.
  m["trace.overhead_ratio"] = ratio(measured.rate(), traced.rate());
  // Serving has no additive self-time check: client tickets overlap (several
  // are always in flight), so their spans attribute nothing to layers. The
  // serving figures come from the engine's stats structs instead.
  m["trace.unattributed_ratio"] = 0.0;
  if (!args.trace_path.empty()) tracer.WriteChromeJson(args.trace_path);
  return out;
}

}  // namespace perfbench
