// Concurrent query-serving bench (ROADMAP item 1, docs/SERVING.md): N
// closed-loop client sessions stream Zipf-skewed ("lookalike-heavy") SSB
// queries into the ServingEngine over a base-only design, with shared-scan
// batching on vs off, across a (threads x clients) grid. Reports served
// QPS and p50/p95/p99 latency per cell; --json emits schema-v2
// BENCH_serving.json with per-repetition qps_*/spq_*/p95_* samples (spq =
// seconds per query, the lower-is-better form bench_compare gates on).
//
// The batching win is WORK REDUCTION, not parallelism, so it survives
// 1-core CI runners: one cooperative pass gathers each batch's provenance
// columns once for the whole group, and lookalike dedup executes each
// DISTINCT query once per group — duplicates (frequent under Zipf skew)
// receive the bit-identical result without re-running filter/aggregate.
// `--assert-shared-speedup=X` gates batching-on vs off QPS at the largest
// client count: exit 1 unless the speedup is >= X and Welch-significant at
// the 5% level.
//
// A maintenance row routes insert batches through the engine concurrently
// with a single reading client (writer epochs interleave with read epochs)
// and cross-checks the engine's cumulative cost against the isolated
// SimulateInsertions run of the same total — split invariance makes the
// ratio exactly 1.
//
// A pooled section switches to a per-query MV design (selective clustered
// plans, so the working set is cacheable — the base-only full scans above
// would just cycle any pool) and sweeps the engine's shared buffer pool
// size, reporting warm hit rate, served QPS, and warm simulated
// seconds-per-query vs the cold solo cost. `--assert-hit-rate=X` gates the
// warm hit rate at `--pool-frac` (default 0.25: pool = 25% of the working
// set): exit 1 unless the mean rate is >= X and Welch-distinguishable from
// it. `--pool-pages=N` pins an absolute capacity instead of the sweep.
// The gate quotes a deterministic replay of the same streams (ReplayRounds),
// not the concurrent clients' rate: with racing client threads the touch
// order, and so the rate, moves from rep to rep (docs/SERVING.md,
// "Determinism"), which a 3-rep Welch arm cannot tell from a miss. The
// replay's rate is the same in every rep and at any pool thread count; the
// concurrent rate is still reported beside it.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cost/correlation_cost_model.h"
#include "exec/maintenance.h"
#include "serving/client_driver.h"
#include "serving/serving.h"

using namespace coradd;
using namespace coradd::bench;

namespace {

using serving::ArrivalMode;
using serving::ClientRunOptions;
using serving::MakeLookalikeStream;
using serving::RunClients;
using serving::ServingEngine;
using serving::ServingOptions;
using serving::ServingRunStats;
using serving::ServingStats;

/// Base-only design: every query routed to the PK-clustered base, so every
/// plan is a full scan of the same object — the maximal-sharing regime a
/// lookalike-heavy stream produces (richer designs group per (object,
/// ranges); the base-only case isolates the batching effect itself).
DatabaseDesign BaseOnlyDesign(const Fixture& f) {
  DatabaseDesign d;
  d.designer = "base-only";
  DesignedObject obj;
  obj.spec.name = "base";
  obj.spec.fact_table = "lineorder";
  const Universe* u = f.context->UniverseForFact("lineorder");
  for (size_t c = 0; c < u->fact_table().schema().NumColumns(); ++c) {
    obj.spec.columns.push_back(u->fact_table().schema().Column(c).name);
  }
  obj.spec.clustered_key = {"lo_orderkey", "lo_linenumber"};
  obj.spec.is_fact_recluster = true;
  obj.spec.is_base = true;
  d.objects.push_back(obj);
  d.object_for_query.assign(f.workload.queries.size(), 0);
  return d;
}

/// Per-query MV design: one materialized view per query, clustered on the
/// query's predicate columns, so selected plans are narrow clustered range
/// scans. This is the regime where a shared pool pays off: a Zipf-skewed
/// stream concentrates touches on the hot queries' page ranges.
DatabaseDesign PerQueryMvDesign(const Fixture& f) {
  DatabaseDesign d;
  d.designer = "per-query-mv";
  for (size_t qi = 0; qi < f.workload.queries.size(); ++qi) {
    const Query& q = f.workload.queries[qi];
    DesignedObject obj;
    obj.spec.name = "mv_q" + std::to_string(qi);
    obj.spec.fact_table = q.fact_table;
    obj.spec.columns = q.AllColumns();
    obj.spec.clustered_key = q.PredicateColumns();
    d.objects.push_back(obj);
    d.object_for_query.push_back(qi);
  }
  return d;
}

/// Pool touches and hits a pass over `streams` added to an engine's pool.
struct PoolDelta {
  uint64_t touches = 0;
  uint64_t hits = 0;
  double rate() const {
    return touches > 0 ? static_cast<double>(hits) /
                             static_cast<double>(touches)
                       : 0.0;
  }
};

/// Deterministic replay of closed-loop `streams` on a started engine: round
/// i admits query i of every stream as one SubmitBatch and waits for all of
/// its results before the next round — RunClients' protocol (each client
/// has one ticket outstanding) with the client interleaving fixed. With
/// ServingOptions::deterministic the epoch of each round runs its units in
/// formation order, so the pool sees the same touch sequence at any pool
/// thread count.
PoolDelta ReplayRounds(ServingEngine* engine,
                       const std::vector<std::vector<size_t>>& streams) {
  const BufferPoolStats before = engine->stats().pool;
  const size_t rounds = streams.front().size();
  std::vector<size_t> batch(streams.size());
  for (size_t i = 0; i < rounds; ++i) {
    for (size_t c = 0; c < streams.size(); ++c) batch[c] = streams[c][i];
    for (auto& f : engine->SubmitBatch(batch)) f.get();
  }
  const BufferPoolStats after = engine->stats().pool;
  return {after.touches - before.touches, after.hits - before.hits};
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("serving", argc, argv);
  // Fast mode keeps the full scale: below ~0.01 per-query work shrinks to
  // the engine's dispatch overhead and the batching A/B loses resolution.
  const double scale = FlagDouble(argc, argv, "scale", 0.01);
  const size_t per_client = static_cast<size_t>(
      FlagDouble(argc, argv, "queries", h.fast() ? 32 : 64));
  const double zipf_s = FlagDouble(argc, argv, "zipf", 1.2);
  const double assert_shared_speedup =
      FlagDouble(argc, argv, "assert-shared-speedup", 0.0);
  const double pool_frac = FlagDouble(argc, argv, "pool-frac", 0.25);
  const int pool_pages_flag = FlagInt(argc, argv, "pool-pages", 0);
  const double assert_hit_rate = FlagDouble(argc, argv, "assert-hit-rate", 0.0);
  const std::vector<size_t> thread_grid =
      h.fast() ? std::vector<size_t>{2} : std::vector<size_t>{1, 2, 4};
  const std::vector<size_t> client_grid =
      h.fast() ? std::vector<size_t>{1, 4} : std::vector<size_t>{1, 4, 8};

  BenchJson& json = h.json();
  json.Config("scale", scale);
  json.Config("queries_per_client", static_cast<double>(per_client));
  json.Config("zipf_s", zipf_s);

  // Gate samples: QPS per measured pass at the largest client count, and
  // the replayed warm pool hit rate at the gate pool size.
  const size_t gate_clients = client_grid.back();
  std::vector<double> gate_qps_on, gate_qps_off;
  std::vector<double> gate_hit_rate;

  PrintHeader(
      "served QPS and latency: threads x clients x shared-scan batching",
      {"threads", "clients", "batching", "qps", "p50[ms]", "p95[ms]",
       "p99[ms]", "shared", "groups", "dedup"});

  h.Run([&](const RunPass& pass) {
    Fixture f = MakeSsbFixture(scale, /*page_size=*/1024);
    const DatabaseDesign design = BaseOnlyDesign(f);
    CorrelationCostModel planner(&f.context->registry());
    if (pass.reporting) {
      std::printf("SSB scale %.3g: %zu workload queries, %zu-row stream "
                  "per client (zipf s=%.2f)\n",
                  scale, f.workload.queries.size(), per_client, zipf_s);
    }

    for (size_t threads : thread_grid) {
      ThreadPool pool(threads);
      for (size_t clients : client_grid) {
        std::vector<std::vector<size_t>> streams;
        for (size_t c = 0; c < clients; ++c) {
          streams.push_back(MakeLookalikeStream(
              f.workload.queries.size(), per_client, 100 + c, zipf_s));
        }
        for (const bool batching : {true, false}) {
          ServingOptions options;
          options.shared_scan = batching;
          options.exec.pool = &pool;
          ServingEngine engine(f.context.get(), &design, &f.workload,
                               &planner, options);
          engine.Start();
          const ServingRunStats run = RunClients(&engine, streams);
          engine.Stop();
          const ServingStats stats = engine.stats();

          const std::string tag = StrFormat(
              "t%zu_c%zu_%s", threads, clients, batching ? "on" : "off");
          h.Sample("qps_" + tag, run.qps);
          h.Sample("spq_" + tag,
                   run.qps > 0.0 ? 1.0 / run.qps : 0.0);
          h.Sample("p95_" + tag, run.p95_latency_seconds);
          if (clients == gate_clients && !pass.warmup) {
            (batching ? gate_qps_on : gate_qps_off).push_back(run.qps);
          }
          if (!pass.reporting) continue;
          PrintRow({std::to_string(threads), std::to_string(clients),
                    batching ? "on" : "off", StrFormat("%.0f", run.qps),
                    StrFormat("%.3f", 1e3 * run.p50_latency_seconds),
                    StrFormat("%.3f", 1e3 * run.p95_latency_seconds),
                    StrFormat("%.3f", 1e3 * run.p99_latency_seconds),
                    std::to_string(run.shared),
                    std::to_string(stats.groups),
                    std::to_string(stats.lookalike_hits)});
          json.Row(
              {{"threads", BenchJson::Num(static_cast<double>(threads))},
               {"clients", BenchJson::Num(static_cast<double>(clients))},
               {"batching", batching ? std::string("true")
                                     : std::string("false")},
               {"qps", BenchJson::Num(run.qps)},
               {"p50_seconds", BenchJson::Num(run.p50_latency_seconds)},
               {"p95_seconds", BenchJson::Num(run.p95_latency_seconds)},
               {"p99_seconds", BenchJson::Num(run.p99_latency_seconds)},
               {"shared", BenchJson::Num(static_cast<double>(run.shared))},
               {"solo", BenchJson::Num(static_cast<double>(run.solo))},
               {"groups",
                BenchJson::Num(static_cast<double>(stats.groups))},
               {"lookalike_hits",
                BenchJson::Num(static_cast<double>(stats.lookalike_hits))},
               {"epochs",
                BenchJson::Num(static_cast<double>(stats.epochs))}});
        }
      }
    }

    // --- Maintenance interleaved with a single reading client: writer
    // epochs alternate with read epochs; the engine's cumulative simulated
    // cost must equal the isolated run of the same insert total exactly.
    {
      ThreadPool pool(2);
      ServingOptions options;
      options.exec.pool = &pool;
      ServingEngine engine(f.context.get(), &design, &f.workload, &planner,
                           options);
      MaintenanceOptions mopt;
      mopt.buffer_pool_pages = 2000;
      const std::vector<MaintainedObject> objects =
          engine.DerivedMaintainedObjects();
      engine.ConfigureMaintenance(objects, mopt);
      engine.Start();
      constexpr uint64_t kBatches = 8;
      constexpr uint64_t kPerBatch = 2500;
      const std::vector<size_t> stream =
          MakeLookalikeStream(f.workload.queries.size(), 16, 999, zipf_s);
      const WallTimer timer;
      std::thread reader([&] {
        for (size_t qi : stream) engine.Submit(qi).get();
      });
      for (uint64_t b = 0; b < kBatches; ++b) {
        engine.SubmitMaintenance(kPerBatch).get();
      }
      reader.join();
      const MaintenanceResult served = engine.FinishMaintenance();
      const double wall = timer.Seconds();
      engine.Stop();

      MaintenanceOptions iso = mopt;
      iso.num_inserts = kBatches * kPerBatch;
      const MaintenanceResult isolated = SimulateInsertions(objects, iso);
      const double ratio =
          isolated.seconds > 0.0 ? served.seconds / isolated.seconds : 0.0;
      const double inserts_per_second =
          wall > 0.0 ? static_cast<double>(kBatches * kPerBatch) / wall : 0.0;
      h.Sample("maintenance_inserts_per_second", inserts_per_second);
      if (pass.reporting) {
        std::printf(
            "\nmaintenance interleaved with 1 reading client: %llu inserts "
            "in %.3fs wall (%.0f inserts/s), simulated %.2fs vs isolated "
            "%.2fs (ratio %.3f, exact split invariance)\n",
            static_cast<unsigned long long>(kBatches * kPerBatch), wall,
            inserts_per_second, served.seconds, isolated.seconds, ratio);
        json.Config("maintenance_simulated_seconds", served.seconds);
        json.Config("maintenance_isolated_seconds", isolated.seconds);
        json.Config("maintenance_ratio", ratio);
      }
    }

    // --- Pooled serving: warm hit rate + served QPS vs pool size. The
    // base-only design above full-scans one object, which cycles any pool
    // smaller than the object; the per-query MV design gives selective
    // clustered plans, so the Zipf stream revisits a cacheable working set
    // and the shared pool's hit rate becomes the experiment.
    {
      const DatabaseDesign mv_design = PerQueryMvDesign(f);
      ThreadPool pool(2);
      std::vector<std::vector<size_t>> streams;
      for (size_t c = 0; c < gate_clients; ++c) {
        streams.push_back(MakeLookalikeStream(
            f.workload.queries.size(), per_client, 700 + c, zipf_s));
      }
      const std::vector<double> fracs =
          h.fast() ? std::vector<double>{pool_frac}
                   : std::vector<double>{0.10, pool_frac, 0.50, 1.0};
      if (pass.reporting) {
        PrintHeader(
            "pooled serving (per-query MV design): warm hit rate vs pool "
            "size",
            {"pool_frac", "pages", "wset", "hit_rate", "replay_hit", "qps",
             "warm_spq[ms]", "cold_spq[ms]"});
      }
      for (const double frac : fracs) {
        ServingOptions options;
        options.exec.pool = &pool;
        if (pool_pages_flag > 0) {
          options.pool_pages = static_cast<uint64_t>(pool_pages_flag);
        } else {
          options.pool_fraction = frac;
        }
        ServingEngine engine(f.context.get(), &mv_design, &f.workload,
                             &planner, options);
        const uint64_t ws = engine.WorkingSetPages();
        const uint64_t pages = engine.page_pool()->capacity_pages();
        engine.Start();
        // Warm pass fills the pool; the measured pass quotes steady state.
        RunClients(&engine, streams);
        const BufferPoolStats w0 = engine.stats().pool;
        const ServingRunStats run = RunClients(&engine, streams);
        const BufferPoolStats w1 = engine.stats().pool;
        const double hit_rate =
            PoolDelta{w1.touches - w0.touches, w1.hits - w0.hits}.rate();
        // Warm simulated seconds-per-query vs the cold solo reference, over
        // one client's stream (sequential, so hits are the steady state's).
        double warm_sim = 0.0, cold_sim = 0.0;
        for (size_t qi : streams[0]) {
          warm_sim += engine.Submit(qi).get().simulated_seconds;
          cold_sim += engine.RunSolo(qi).seconds;
        }
        engine.Stop();
        const double warm_spq = warm_sim / static_cast<double>(streams[0].size());
        const double cold_spq = cold_sim / static_cast<double>(streams[0].size());

        // The gated rate: the same warm-then-measured protocol replayed
        // deterministically on a fresh engine. The concurrent rate above
        // moves with how the client threads interleave (docs/SERVING.md,
        // "Determinism"); the replay's is the same in every rep and at any
        // pool thread count.
        ServingOptions replay_options = options;
        replay_options.deterministic = true;
        ServingEngine replay_engine(f.context.get(), &mv_design, &f.workload,
                                    &planner, replay_options);
        replay_engine.Start();
        ReplayRounds(&replay_engine, streams);
        const PoolDelta replay = ReplayRounds(&replay_engine, streams);
        replay_engine.Stop();

        const std::string tag =
            pool_pages_flag > 0 ? std::string("pinned")
                                : StrFormat("f%.0f", 100.0 * frac);
        h.Sample("pool_hit_rate_" + tag, hit_rate);
        h.Sample("pool_replay_hit_rate_" + tag, replay.rate());
        h.Sample("pool_qps_" + tag, run.qps);
        h.Sample("pool_sim_spq_" + tag, warm_spq);
        h.Sample("cold_sim_spq_" + tag, cold_spq);
        const bool is_gate_size = pool_pages_flag > 0 || frac == pool_frac;
        if (is_gate_size && !pass.warmup) {
          gate_hit_rate.push_back(replay.rate());
        }
        if (!pass.reporting) continue;
        PrintRow({StrFormat("%.2f", frac), std::to_string(pages),
                  std::to_string(ws), StrFormat("%.3f", hit_rate),
                  StrFormat("%.4f", replay.rate()),
                  StrFormat("%.0f", run.qps), StrFormat("%.3f", 1e3 * warm_spq),
                  StrFormat("%.3f", 1e3 * cold_spq)});
        json.Row({{"pool_frac", BenchJson::Num(frac)},
                  {"pool_pages", BenchJson::Num(static_cast<double>(pages))},
                  {"working_set_pages",
                   BenchJson::Num(static_cast<double>(ws))},
                  {"hit_rate", BenchJson::Num(hit_rate)},
                  {"replay_hit_rate", BenchJson::Num(replay.rate())},
                  {"replay_touches",
                   BenchJson::Num(static_cast<double>(replay.touches))},
                  {"replay_hits",
                   BenchJson::Num(static_cast<double>(replay.hits))},
                  {"pool_qps", BenchJson::Num(run.qps)},
                  {"warm_spq_seconds", BenchJson::Num(warm_spq)},
                  {"cold_spq_seconds", BenchJson::Num(cold_spq)}});
      }
    }

    // --- One open-loop row (fixed-interval arrivals): latency under an
    // offered load the engine must absorb rather than pace.
    if (pass.reporting) {
      ThreadPool pool(2);
      ServingOptions options;
      options.exec.pool = &pool;
      ServingEngine engine(f.context.get(), &design, &f.workload, &planner,
                           options);
      engine.Start();
      std::vector<std::vector<size_t>> streams;
      for (size_t c = 0; c < gate_clients; ++c) {
        streams.push_back(MakeLookalikeStream(
            f.workload.queries.size(), per_client, 500 + c, zipf_s));
      }
      ClientRunOptions copt;
      copt.mode = ArrivalMode::kOpenLoop;
      copt.think_seconds = 0.0005;
      const ServingRunStats run = RunClients(&engine, streams, copt);
      engine.Stop();
      std::printf(
          "open-loop (%zu clients, 0.5ms inter-arrival): %.0f qps, "
          "p95 %.3f ms\n",
          gate_clients, run.qps, 1e3 * run.p95_latency_seconds);
      json.Config("openloop_qps", run.qps);
      json.Config("openloop_p95_seconds", run.p95_latency_seconds);
    }
  });

  const int rc = h.Finish();
  if (rc != 0) return rc;
  if (assert_shared_speedup > 0.0 && !gate_qps_on.empty() &&
      !gate_qps_off.empty()) {
    const double on_mean = Summarize(gate_qps_on).mean;
    const double off_mean = Summarize(gate_qps_off).mean;
    const double speedup = off_mean > 0.0 ? on_mean / off_mean : 0.0;
    const benchkit::WelchResult w =
        benchkit::WelchTTest(gate_qps_off, gate_qps_on);
    if (speedup < assert_shared_speedup || !w.significant) {
      std::fprintf(stderr,
                   "FAIL: shared-scan batching QPS speedup %.2fx at %zu "
                   "clients (need >= %.2fx, Welch %ssignificant, t=%.2f "
                   "df=%.1f)\n",
                   speedup, gate_clients, assert_shared_speedup,
                   w.significant ? "" : "NOT ", w.t, w.df);
      return 1;
    }
    std::printf(
        "shared-scan batching speedup %.2fx at %zu clients (>= %.2fx, "
        "Welch t=%.2f df=%.1f, significant)\n",
        speedup, gate_clients, assert_shared_speedup, w.t, w.df);
  }
  if (assert_hit_rate > 0.0 && !gate_hit_rate.empty()) {
    const double mean = Summarize(gate_hit_rate).mean;
    const std::vector<double> threshold(gate_hit_rate.size(),
                                        assert_hit_rate);
    const benchkit::WelchResult w =
        benchkit::WelchTTest(threshold, gate_hit_rate);
    if (mean < assert_hit_rate || !w.significant) {
      std::fprintf(stderr,
                   "FAIL: replayed warm pool hit rate %.4f at pool-frac "
                   "%.2f (need >= %.3f, Welch %ssignificant, t=%.2f "
                   "df=%.1f)\n",
                   mean, pool_frac, assert_hit_rate,
                   w.significant ? "" : "NOT ", w.t, w.df);
      return 1;
    }
    std::printf(
        "replayed warm pool hit rate %.4f at pool-frac %.2f (>= %.3f, "
        "Welch t=%.2f df=%.1f, significant)\n",
        mean, pool_frac, assert_hit_rate, w.t, w.df);
  }
  return 0;
}
