// Tests for src/exec: materialization with row provenance, plan-by-plan
// executor correctness against reference scans, and maintenance simulation.
#include <gtest/gtest.h>

#include <algorithm>

#include "cost/correlation_cost_model.h"
#include "exec/executor.h"
#include "common/rng.h"
#include "exec/maintenance.h"
#include "exec/scan_kernels.h"
#include "ssb/ssb.h"

namespace coradd {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ssb::SsbOptions options;
    // Big enough that a selective clustered scan beats a sequential scan
    // even with per-fragment seeks (the paper-scale geometry).
    options.scale_factor = 0.02;
    catalog_ = ssb::MakeCatalog(options).release();
    universe_ = new Universe(*catalog_, *catalog_->GetFactInfo("lineorder"));
    StatsOptions sopt;
    sopt.sample_rows = 4096;
    sopt.disk.page_size_bytes = 1024;
    stats_ = new UniverseStats(universe_, sopt);
    registry_ = new StatsRegistry();
    registry_->Register(stats_);
    model_ = new CorrelationCostModel(registry_);
    workload_ = new Workload(ssb::MakeWorkload());
  }
  static void TearDownTestSuite() {
    delete workload_;
    delete model_;
    delete registry_;
    delete stats_;
    delete universe_;
    delete catalog_;
  }

  static DiskParams Disk() { return stats_->options().disk; }

  /// Reference result: brute-force filter + aggregate over the universe.
  static std::pair<double, uint64_t> Reference(const Query& q) {
    double agg = 0.0;
    uint64_t rows = 0;
    std::vector<std::pair<const Predicate*, int>> preds;
    for (const auto& p : q.predicates) {
      preds.emplace_back(&p, universe_->ColumnIndex(p.column));
    }
    std::vector<std::pair<int, int>> aggs;
    for (const auto& a : q.aggregates) {
      aggs.emplace_back(universe_->ColumnIndex(a.col_a),
                        a.col_b.empty() ? -1 : universe_->ColumnIndex(a.col_b));
    }
    for (RowId r = 0; r < universe_->NumRows(); ++r) {
      bool ok = true;
      for (const auto& [p, c] : preds) {
        if (!p->Matches(universe_->Value(r, c))) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      ++rows;
      for (const auto& [a, b] : aggs) {
        const double va = static_cast<double>(universe_->Value(r, a));
        agg += b >= 0 ? va * static_cast<double>(universe_->Value(r, b)) : va;
      }
    }
    return {agg, rows};
  }

  static MvSpec BaseSpec() {
    MvSpec spec;
    spec.name = "base";
    spec.fact_table = "lineorder";
    for (size_t c = 0; c < universe_->fact_table().schema().NumColumns(); ++c) {
      spec.columns.push_back(universe_->fact_table().schema().Column(c).name);
    }
    spec.clustered_key = {"lo_orderkey", "lo_linenumber"};
    spec.is_fact_recluster = true;
    spec.is_base = true;
    return spec;
  }

  static Catalog* catalog_;
  static Universe* universe_;
  static UniverseStats* stats_;
  static StatsRegistry* registry_;
  static CorrelationCostModel* model_;
  static Workload* workload_;
};

Catalog* ExecTest::catalog_ = nullptr;
Universe* ExecTest::universe_ = nullptr;
UniverseStats* ExecTest::stats_ = nullptr;
StatsRegistry* ExecTest::registry_ = nullptr;
CorrelationCostModel* ExecTest::model_ = nullptr;
Workload* ExecTest::workload_ = nullptr;

// ---------- Materializer ----------

TEST_F(ExecTest, MaterializeSortsByClusteredKey) {
  Materializer mat(universe_, Disk());
  MvSpec spec;
  spec.name = "mv";
  spec.fact_table = "lineorder";
  spec.columns = {"d_year", "lo_discount", "lo_revenue"};
  spec.clustered_key = {"d_year", "lo_discount"};
  auto obj = mat.Materialize(spec);
  const Table& t = obj->table->table();
  for (RowId r = 1; r < t.NumRows(); ++r) {
    const int64_t prev = t.Value(r - 1, 0) * 1000 + t.Value(r - 1, 1);
    const int64_t cur = t.Value(r, 0) * 1000 + t.Value(r, 1);
    EXPECT_LE(prev, cur);
  }
}

TEST_F(ExecTest, MaterializeProvenanceIsCorrect) {
  Materializer mat(universe_, Disk());
  MvSpec spec;
  spec.name = "mv";
  spec.fact_table = "lineorder";
  spec.columns = {"lo_revenue", "d_year"};
  spec.clustered_key = {"d_year"};
  auto obj = mat.Materialize(spec);
  const int rev = universe_->ColumnIndex("lo_revenue");
  for (RowId r = 0; r < 500; ++r) {
    EXPECT_EQ(obj->table->table().Value(r, 0),
              universe_->Value(obj->fact_row_of[r], rev));
  }
}

TEST_F(ExecTest, ProvenanceColumnHasZeroWidth) {
  Materializer mat(universe_, Disk());
  MvSpec spec;
  spec.name = "mv";
  spec.fact_table = "lineorder";
  spec.columns = {"d_year", "lo_revenue"};
  spec.clustered_key = {"d_year"};
  auto obj = mat.Materialize(spec);
  // Row width = 4 + 4; the hidden provenance column adds nothing.
  EXPECT_EQ(obj->table->layout().row_width_bytes, 8u);
}

TEST_F(ExecTest, MaterializedSizeMatchesEstimate) {
  Materializer mat(universe_, Disk());
  MvSpec spec;
  spec.name = "mv";
  spec.fact_table = "lineorder";
  spec.columns = {"d_year", "lo_discount", "lo_quantity", "lo_extendedprice"};
  spec.clustered_key = {"d_year"};
  auto obj = mat.Materialize(spec);
  EXPECT_EQ(obj->size_bytes, EstimateMvSizeBytes(spec, *stats_, Disk()));
}

TEST_F(ExecTest, MaterializeBuildsCmsAndBtrees) {
  Materializer mat(universe_, Disk());
  MvSpec spec = BaseSpec();
  spec.is_base = false;
  spec.clustered_key = {"lo_orderdate"};
  CmSpec cm;
  cm.key_columns = {"d_year"};  // universe column, not stored: provenance
  cm.bucketing = {1, 8};
  auto obj = mat.Materialize(spec, {cm}, {"lo_discount"});
  ASSERT_EQ(obj->cms.size(), 1u);
  ASSERT_EQ(obj->btrees.size(), 1u);
  EXPECT_GT(obj->cm_bytes, 0u);
  EXPECT_GT(obj->btree_bytes, 0u);
  // d_year co-occurs with one year's orderdates: compact CM.
  EXPECT_LT(obj->cms[0]->NumPairs(), 4000u);
}

// ---------- Executor correctness across plans ----------

TEST_F(ExecTest, FullScanMatchesReference) {
  Materializer mat(universe_, Disk());
  auto base = mat.Materialize(BaseSpec());
  QueryExecutor exec(registry_, model_);
  for (const auto& q : workload_->queries) {
    DiskModel disk(Disk());
    const QueryRunResult run = exec.Run(q, *base, &disk);
    const auto [ref_agg, ref_rows] = Reference(q);
    EXPECT_EQ(run.rows_output, ref_rows) << q.id;
    EXPECT_NEAR(run.aggregate, ref_agg, std::abs(ref_agg) * 1e-9 + 1e-6)
        << q.id;
  }
}

TEST_F(ExecTest, ClusteredScanMatchesReferenceAndReadsLess) {
  Materializer mat(universe_, Disk());
  const Query& q11 = workload_->queries[0];
  MvSpec spec;
  spec.name = "mv_q11";
  spec.fact_table = "lineorder";
  spec.columns = q11.AllColumns();
  spec.clustered_key = {"d_year", "lo_discount", "lo_quantity"};
  auto obj = mat.Materialize(spec);
  QueryExecutor exec(registry_, model_);
  DiskModel disk(Disk());
  const QueryRunResult run = exec.Run(q11, *obj, &disk);
  const auto [ref_agg, ref_rows] = Reference(q11);
  EXPECT_EQ(run.rows_output, ref_rows);
  EXPECT_NEAR(run.aggregate, ref_agg, std::abs(ref_agg) * 1e-9 + 1e-6);
  EXPECT_EQ(run.path, AccessPath::kClusteredScan);
  EXPECT_LT(run.pages_read, obj->table->NumPages() / 2);
}

TEST_F(ExecTest, CmPlanMatchesReference) {
  Materializer mat(universe_, Disk());
  MvSpec spec = BaseSpec();
  spec.is_base = false;
  spec.name = "recluster_od";
  spec.clustered_key = {"lo_orderdate"};
  CmSpec cm;
  cm.key_columns = {"d_yearmonthnum"};
  cm.bucketing = {1, 8};
  auto obj = mat.Materialize(spec, {cm});
  QueryExecutor exec(registry_, model_);
  const Query& q12 = workload_->queries[1];  // predicates d_yearmonthnum
  DiskModel disk(Disk());
  const QueryRunResult run = exec.Run(q12, *obj, &disk);
  const auto [ref_agg, ref_rows] = Reference(q12);
  EXPECT_EQ(run.rows_output, ref_rows);
  EXPECT_NEAR(run.aggregate, ref_agg, std::abs(ref_agg) * 1e-9 + 1e-6);
  EXPECT_EQ(run.path, AccessPath::kSecondary);
  // Correlated CM touches a small slice of the heap.
  EXPECT_LT(run.pages_read, obj->table->NumPages() / 4);
}

TEST_F(ExecTest, BTreePlanMatchesReference) {
  Materializer mat(universe_, Disk());
  const Query& q11 = workload_->queries[0];
  MvSpec spec;
  spec.name = "mv_bt";
  spec.fact_table = "lineorder";
  spec.columns = q11.AllColumns();
  spec.clustered_key = {"lo_quantity"};  // weakly useful clustering
  auto obj = mat.Materialize(spec, {}, {"d_year"});
  QueryExecutor exec(registry_, model_);
  DiskModel disk(Disk());
  const QueryRunResult run = exec.Run(q11, *obj, &disk);
  const auto [ref_agg, ref_rows] = Reference(q11);
  EXPECT_EQ(run.rows_output, ref_rows);
  EXPECT_NEAR(run.aggregate, ref_agg, std::abs(ref_agg) * 1e-9 + 1e-6);
}

TEST_F(ExecTest, EveryQuerySameAnswerOnBaseAndRecluster) {
  Materializer mat(universe_, Disk());
  auto base = mat.Materialize(BaseSpec());
  MvSpec re = BaseSpec();
  re.is_base = false;
  re.name = "re_od";
  re.clustered_key = {"lo_orderdate"};
  CmSpec cm_y;
  cm_y.key_columns = {"d_year"};
  auto reclustered = mat.Materialize(re, {cm_y});
  QueryExecutor exec(registry_, model_);
  for (const auto& q : workload_->queries) {
    DiskModel d1(Disk()), d2(Disk());
    const QueryRunResult a = exec.Run(q, *base, &d1);
    const QueryRunResult b = exec.Run(q, *reclustered, &d2);
    EXPECT_EQ(a.rows_output, b.rows_output) << q.id;
    EXPECT_NEAR(a.aggregate, b.aggregate, std::abs(a.aggregate) * 1e-9 + 1e-6)
        << q.id;
  }
}

TEST_F(ExecTest, CorrelatedClusteringRunsFasterThanBase) {
  // The Fig 13 effect, end to end: Q1.2 (yearmonth predicate) on a fact
  // table clustered by orderdate with a CM runs much faster than a full
  // scan of the PK-clustered base.
  Materializer mat(universe_, Disk());
  auto base = mat.Materialize(BaseSpec());
  MvSpec re = BaseSpec();
  re.is_base = false;
  re.name = "re_od";
  re.clustered_key = {"lo_orderdate"};
  CmSpec cm;
  cm.key_columns = {"d_yearmonthnum"};
  auto reclustered = mat.Materialize(re, {cm});
  QueryExecutor exec(registry_, model_);
  const Query& q12 = workload_->queries[1];
  DiskModel d1(Disk()), d2(Disk());
  const double base_s = exec.Run(q12, *base, &d1).seconds;
  const double re_s = exec.Run(q12, *reclustered, &d2).seconds;
  EXPECT_LT(re_s * 3, base_s);
}

// ---------- Determinism across thread counts and batch sizes ----------

// The batched executor's contract (docs/EXECUTION.md): for a fixed
// partition_rows, every thread count and every batch size yields
// bit-identical aggregates, I/O counters, and row counts — partials are
// computed per fixed partition and merged in partition order.
TEST_F(ExecTest, DeterministicAcrossThreadsAndBatchSizes) {
  Materializer mat(universe_, Disk());
  auto base = mat.Materialize(BaseSpec());
  MvSpec re = BaseSpec();
  re.is_base = false;
  re.name = "re_od";
  re.clustered_key = {"lo_orderdate"};
  CmSpec cm;
  cm.key_columns = {"d_yearmonthnum"};
  auto reclustered = mat.Materialize(re, {cm}, {"lo_discount"});
  const std::vector<const MaterializedObject*> objects = {base.get(),
                                                          reclustered.get()};

  // Baseline: 1 thread, default batch, small fixed partitions so the base
  // table spans many partitions (the parallel path is actually exercised).
  constexpr size_t kPartitionRows = 1024;
  std::vector<QueryRunResult> baseline;
  {
    ThreadPool pool(1);
    ExecOptions eo;
    eo.partition_rows = kPartitionRows;
    eo.pool = &pool;
    QueryExecutor exec(registry_, model_, eo);
    for (const auto* obj : objects) {
      for (const auto& q : workload_->queries) {
        DiskModel disk(Disk());
        baseline.push_back(exec.Run(q, *obj, &disk));
      }
    }
  }

  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    for (size_t batch : {1u, 64u, 4096u}) {
      ExecOptions eo;
      eo.batch_rows = batch;
      eo.partition_rows = kPartitionRows;
      eo.pool = &pool;
      QueryExecutor exec(registry_, model_, eo);
      size_t i = 0;
      for (const auto* obj : objects) {
        for (const auto& q : workload_->queries) {
          DiskModel disk(Disk());
          const QueryRunResult run = exec.Run(q, *obj, &disk);
          const QueryRunResult& want = baseline[i++];
          // Bit-identical: EXPECT_EQ on the doubles, not EXPECT_NEAR.
          EXPECT_EQ(run.aggregate, want.aggregate)
              << q.id << " threads=" << threads << " batch=" << batch;
          EXPECT_EQ(run.seconds, want.seconds) << q.id;
          EXPECT_EQ(run.pages_read, want.pages_read) << q.id;
          EXPECT_EQ(run.seeks, want.seeks) << q.id;
          EXPECT_EQ(run.fragments, want.fragments) << q.id;
          EXPECT_EQ(run.rows_output, want.rows_output) << q.id;
          EXPECT_EQ(run.path, want.path) << q.id;
        }
      }
    }
  }
}

// The shared-pool default configuration must agree with an explicit
// 1-thread pool (the serial fallback and the pooled path share partition
// discipline).
TEST_F(ExecTest, SharedPoolMatchesExplicitSingleThread) {
  Materializer mat(universe_, Disk());
  auto base = mat.Materialize(BaseSpec());
  ThreadPool one(1);
  ExecOptions serial;
  serial.pool = &one;
  QueryExecutor exec_shared(registry_, model_);  // defaults: shared pool
  QueryExecutor exec_serial(registry_, model_, serial);
  for (const auto& q : workload_->queries) {
    DiskModel d1(Disk()), d2(Disk());
    const QueryRunResult a = exec_shared.Run(q, *base, &d1);
    const QueryRunResult b = exec_serial.Run(q, *base, &d2);
    EXPECT_EQ(a.aggregate, b.aggregate) << q.id;
    EXPECT_EQ(a.rows_output, b.rows_output) << q.id;
    EXPECT_EQ(a.pages_read, b.pages_read) << q.id;
    EXPECT_EQ(a.seeks, b.seeks) << q.id;
  }
}

// ---------- Maintenance (Fig 14 property) ----------

// ---------- Scan kernels ----------

// The branch-free equality/range filters (and the IN filter) produce exactly
// the selection a scalar predicate loop produces, first filter and
// compaction alike, at selectivity 0, about one half, and 1.
TEST(ScanKernelTest, FiltersMatchScalarReference) {
  Rng rng(4242);
  const size_t n = 1000;
  std::vector<int64_t> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int64_t>(rng.Uniform(100));
    b[i] = static_cast<int64_t>(rng.Uniform(10));
  }
  const std::vector<Predicate> preds = {
      Predicate::Eq("c", -1),           // selects nothing
      Predicate::Range("c", 200, 300),  // selects nothing
      Predicate::Range("c", 0, 49),     // ~half of `a`
      Predicate::Eq("c", 3),            // ~a tenth of `b`
      Predicate::In("c", {1, 4, 7, 8, 9}),  // ~half of `b`
      Predicate::Range("c", -5, 1000),  // selects everything
      Predicate::In("c", {-3}),         // selects nothing
  };
  for (const Predicate& first : preds) {
    for (const Predicate& second : preds) {
      // Reference: indexes of rows matching `first` on a, then `second` on b.
      std::vector<uint32_t> ref_first, ref_both;
      for (size_t i = 0; i < n; ++i) {
        if (!first.Matches(a[i])) continue;
        ref_first.push_back(static_cast<uint32_t>(i));
        if (second.Matches(b[i])) ref_both.push_back(static_cast<uint32_t>(i));
      }
      std::vector<uint32_t> sel(n, 0xdeadbeef);
      const size_t k = exec::FilterFirst(a.data(), n, first, sel.data());
      ASSERT_EQ(k, ref_first.size()) << first.ToString();
      EXPECT_TRUE(std::equal(ref_first.begin(), ref_first.end(), sel.begin()));
      const size_t k2 = exec::FilterNext(b.data(), second, sel.data(), k);
      ASSERT_EQ(k2, ref_both.size())
          << first.ToString() << " then " << second.ToString();
      EXPECT_TRUE(std::equal(ref_both.begin(), ref_both.end(), sel.begin()));
    }
  }
}

TEST(MaintenanceTest, CostGrowsWithAdditionalObjects) {
  MaintenanceOptions options;
  options.num_inserts = 20000;
  options.buffer_pool_pages = 2000;
  const MaintainedObject base{1000, 200, true};
  double prev = -1.0;
  for (uint64_t mv_pages : {0ull, 1000ull, 4000ull, 16000ull}) {
    std::vector<MaintainedObject> objects = {base};
    if (mv_pages > 0) objects.push_back({mv_pages, mv_pages / 10, false});
    const MaintenanceResult r = SimulateInsertions(objects, options);
    if (prev >= 0.0) {
      EXPECT_GE(r.seconds, prev);
    }
    prev = r.seconds;
  }
}

TEST(MaintenanceTest, OverflowIsSuperlinear) {
  // Paper: 3 GB of MVs is 67x slower than 1 GB. Check the blow-up shape:
  // objects far beyond pool capacity cost disproportionally more.
  MaintenanceOptions options;
  options.num_inserts = 20000;
  options.buffer_pool_pages = 3000;
  const MaintainedObject base{1000, 100, true};
  const MaintenanceResult small = SimulateInsertions(
      {base, MaintainedObject{1500, 100, false}}, options);
  const MaintenanceResult big = SimulateInsertions(
      {base, MaintainedObject{30000, 3000, false}}, options);
  EXPECT_GT(big.seconds, small.seconds * 5);
  EXPECT_GT(big.dirty_evictions, small.dirty_evictions * 5);
}

TEST(MaintenanceTest, AppendOnlyBaseIsCheapWithinPool) {
  MaintenanceOptions options;
  options.num_inserts = 10000;
  options.buffer_pool_pages = 2000;
  const MaintenanceResult r =
      SimulateInsertions({MaintainedObject{1000, 0, true}}, options);
  // Appends hit the same tail page: almost everything is a pool hit.
  EXPECT_LT(r.pool_misses, 10u);
}

}  // namespace
}  // namespace coradd
