// Tests for src/cost: size accounting, clustered-prefix access-path analysis
// (§4.2), the correlation-aware cost model (A-2.2), and the
// correlation-oblivious proxy of Figure 10.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "cost/bucket_profile.h"
#include "cost/correlation_cost_model.h"
#include "cost/oblivious_cost_model.h"
#include "ssb/ssb.h"

namespace coradd {
namespace {

// Shared tiny-SSB fixture.
class CostModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ssb::SsbOptions options;
    options.scale_factor = 0.02;  // 120k rows
    catalog_ = ssb::MakeCatalog(options).release();
    universe_ = new Universe(*catalog_, *catalog_->GetFactInfo("lineorder"));
    StatsOptions sopt;
    sopt.sample_rows = 4096;
    // Small pages keep paper-like page-count geometry at test scale, and
    // the seek cost is scaled with the page size to preserve the paper's
    // seek : page-transfer ratio.
    sopt.disk.page_size_bytes = 1024;
    sopt.disk.seek_seconds = 0.0055 / 8.0;
    stats_ = new UniverseStats(universe_, sopt);
    registry_ = new StatsRegistry();
    registry_->Register(stats_);
    workload_ = new Workload(ssb::MakeWorkload());
  }
  static void TearDownTestSuite() {
    delete workload_;
    delete registry_;
    delete stats_;
    delete universe_;
    delete catalog_;
  }

  /// An MV holding Q1.1's columns with the given clustered key.
  static MvSpec Q11Spec(std::vector<std::string> key) {
    MvSpec spec;
    spec.name = "test_mv";
    spec.fact_table = "lineorder";
    spec.columns = {"d_year",      "lo_discount",      "lo_quantity",
                    "lo_extendedprice", "d_yearmonthnum", "lo_orderdate"};
    spec.clustered_key = std::move(key);
    return spec;
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
  static Workload* workload_;
};

Catalog* CostModelTest::catalog_ = nullptr;
Universe* CostModelTest::universe_ = nullptr;
UniverseStats* CostModelTest::stats_ = nullptr;
StatsRegistry* CostModelTest::registry_ = nullptr;
Workload* CostModelTest::workload_ = nullptr;

// ---------- MvSpec sizing ----------

TEST_F(CostModelTest, RowWidthSumsColumnWidths) {
  const MvSpec spec = Q11Spec({"d_year"});
  // d_year 4 + lo_discount 1 + lo_quantity 1 + lo_extendedprice 4 +
  // d_yearmonthnum 4 + lo_orderdate 4 = 18.
  EXPECT_EQ(MvRowWidthBytes(spec, *stats_), 18u);
}

TEST_F(CostModelTest, MoreColumnsMeansMorePages) {
  MvSpec narrow = Q11Spec({"d_year"});
  narrow.columns = {"d_year", "lo_discount"};
  const MvSpec wide = Q11Spec({"d_year"});
  EXPECT_LT(MvHeapPages(narrow, *stats_, stats_->options().disk),
            MvHeapPages(wide, *stats_, stats_->options().disk));
}

TEST_F(CostModelTest, SizeIncludesClusteredInternals) {
  const MvSpec spec = Q11Spec({"d_year"});
  const uint64_t heap_bytes =
      MvHeapPages(spec, *stats_, stats_->options().disk) *
      stats_->options().disk.page_size_bytes;
  EXPECT_GE(EstimateMvSizeBytes(spec, *stats_, stats_->options().disk),
            heap_bytes);
}

TEST_F(CostModelTest, BaseChargesNothing) {
  EXPECT_EQ(EstimateMvSizeBytes(BaseSpec(), *stats_, stats_->options().disk),
            0u);
}

TEST_F(CostModelTest, ReclusterChargesPkIndex) {
  MvSpec recluster = BaseSpec();
  recluster.is_base = false;
  recluster.clustered_key = {"lo_orderdate"};
  const uint64_t size =
      EstimateMvSizeBytes(recluster, *stats_, stats_->options().disk);
  EXPECT_GT(size, 0u);
  // A dense PK index is far smaller than the full fact heap.
  const uint64_t heap_bytes =
      MvHeapPages(recluster, *stats_, stats_->options().disk) * 8192;
  EXPECT_LT(size, heap_bytes);
}

// ---------- Feasibility ----------

TEST_F(CostModelTest, MvCanServeRequiresColumns) {
  const Query& q11 = workload_->queries[0];
  EXPECT_TRUE(MvCanServe(q11, Q11Spec({"d_year"})));
  MvSpec missing = Q11Spec({"d_year"});
  missing.columns = {"d_year", "lo_discount"};  // no quantity/price
  EXPECT_FALSE(MvCanServe(q11, missing));
  // Fact re-clusterings serve everything on their fact.
  EXPECT_TRUE(MvCanServe(q11, BaseSpec()));
  // Wrong fact table serves nothing.
  MvSpec other = Q11Spec({"d_year"});
  other.fact_table = "nope";
  EXPECT_FALSE(MvCanServe(q11, other));
}

TEST_F(CostModelTest, MvCanServeMatchesAllColumnsDefinition) {
  // MvCanServe checks a query's columns in place; it must agree with the
  // documented rule "the MV contains every column of AllColumns()". Specs
  // are each query's own column set, also with one column dropped.
  const auto reference = [](const Query& q, const MvSpec& spec) {
    for (const auto& col : q.AllColumns()) {
      if (std::find(spec.columns.begin(), spec.columns.end(), col) ==
          spec.columns.end()) {
        return false;
      }
    }
    return true;
  };
  std::vector<MvSpec> specs;
  for (const Query& q : workload_->queries) {
    MvSpec spec = Q11Spec({});
    spec.columns = q.AllColumns();
    for (size_t drop = 0; drop <= spec.columns.size(); ++drop) {
      MvSpec trial = spec;
      if (drop < spec.columns.size()) {
        trial.columns.erase(trial.columns.begin() +
                            static_cast<ptrdiff_t>(drop));
      }
      specs.push_back(std::move(trial));
    }
  }
  size_t served = 0;
  for (const Query& q : workload_->queries) {
    for (const MvSpec& spec : specs) {
      ASSERT_EQ(MvCanServe(q, spec), reference(q, spec)) << q.id;
      served += reference(q, spec) ? 1 : 0;
    }
  }
  EXPECT_GT(served, 0u);
  EXPECT_LT(served, workload_->queries.size() * specs.size());
}

TEST_F(CostModelTest, InfeasiblePairCostsInfinity) {
  CorrelationCostModel model(registry_);
  MvSpec missing = Q11Spec({"d_year"});
  missing.columns = {"d_year"};
  EXPECT_EQ(model.Seconds(workload_->queries[0], missing), kInfeasibleCost);
}

// ---------- Clustered prefix analysis ----------

TEST_F(CostModelTest, PrefixWalkConsumesEqThenRange) {
  const Query& q11 = workload_->queries[0];  // year EQ, discount+qty RANGE
  const auto plan = AnalyzeClusteredPrefix(
      q11, {"d_year", "lo_discount", "lo_quantity"}, *stats_);
  // EQ(year) consumed, RANGE(discount) consumed and stops the walk.
  EXPECT_EQ(plan.consumed_key_columns, 2);
  EXPECT_LT(plan.selectivity, 0.1);
  EXPECT_EQ(plan.num_ranges, 1.0);
}

TEST_F(CostModelTest, PrefixWalkStopsAtUnpredicatedColumn) {
  const Query& q11 = workload_->queries[0];
  const auto plan = AnalyzeClusteredPrefix(
      q11, {"lo_orderdate", "d_year"}, *stats_);
  EXPECT_FALSE(plan.usable());
}

TEST_F(CostModelTest, InMultipliesRanges) {
  Query q;
  q.id = "t_in";
  q.fact_table = "lineorder";
  q.predicates = {Predicate::In("d_year", {1993, 1995, 1997})};
  const auto plan = AnalyzeClusteredPrefix(q, {"d_year"}, *stats_);
  EXPECT_EQ(plan.num_ranges, 3.0);
}

// ---------- Correlation-aware model behaviour ----------

TEST_F(CostModelTest, DedicatedClusteringBeatsFullScan) {
  CorrelationCostModel model(registry_);
  const Query& q11 = workload_->queries[0];
  const MvSpec dedicated = Q11Spec({"d_year", "lo_discount", "lo_quantity"});
  const MvSpec unclustered = Q11Spec({"lo_extendedprice"});
  const CostBreakdown fast = model.Cost(q11, dedicated);
  const CostBreakdown slow = model.Cost(q11, unclustered);
  EXPECT_LT(fast.seconds, slow.seconds);
  // The winning plan on a dedicated clustering reads a small slice, never
  // the whole object (clustered scan and its CM equivalent both qualify).
  EXPECT_NE(fast.path, AccessPath::kFullScan);
  EXPECT_LT(fast.selectivity, 0.2);
}

TEST_F(CostModelTest, CorrelatedClusteringCheaperThanUncorrelated) {
  // Q1.2 predicates d_yearmonthnum; clustering on lo_orderdate is highly
  // correlated with it, clustering on lo_extendedprice is not. The
  // correlation-aware secondary path must price the former far cheaper.
  CorrelationCostModel model(registry_);
  const Query& q12 = workload_->queries[1];
  MvSpec correlated = Q11Spec({"lo_orderdate"});
  MvSpec uncorrelated = Q11Spec({"lo_extendedprice"});
  const CostBreakdown corr =
      model.SecondaryPathCost(q12, correlated, {"d_yearmonthnum"});
  const CostBreakdown uncorr =
      model.SecondaryPathCost(q12, uncorrelated, {"d_yearmonthnum"});
  ASSERT_TRUE(corr.feasible());
  ASSERT_TRUE(uncorr.feasible());
  EXPECT_LT(corr.seconds * 2, uncorr.seconds);
  // The correlated plan touches a fraction of the heap; the uncorrelated
  // one sweeps almost all of it.
  EXPECT_LT(corr.selectivity * 5, uncorr.selectivity);
}

TEST_F(CostModelTest, SecondaryNeverBeatsPhysicalLimits) {
  CorrelationCostModel model(registry_);
  const Query& q11 = workload_->queries[0];
  const MvSpec spec = Q11Spec({"lo_orderdate"});
  const CostBreakdown any = model.Cost(q11, spec);
  ASSERT_TRUE(any.feasible());
  EXPECT_GT(any.seconds, 0.0);
  const double fullscan =
      MvFullScanSeconds(spec, *stats_, stats_->options().disk) +
      stats_->options().disk.seek_seconds;
  EXPECT_LE(any.seconds, fullscan + 1e-9);
}

TEST_F(CostModelTest, CostIsDeterministicAndCached) {
  CorrelationCostModel model(registry_);
  const Query& q13 = workload_->queries[2];
  const MvSpec spec = Q11Spec({"d_year", "lo_discount"});
  const double a = model.Seconds(q13, spec);
  const double b = model.Seconds(q13, spec);
  EXPECT_EQ(a, b);
}

// SecondaryPathCost depends on the spec only through (key, heap pages): a
// spec with a different column set but the same pages prices bit-identically
// and reuses the memo entry; a spec with more pages gets its own entry.
TEST_F(CostModelTest, SecondaryMemoKeysOnPagesNotColumnSet) {
  const Query& q12 = workload_->queries[1];
  const MvSpec a = Q11Spec({"lo_orderdate"});
  // Swap d_year (unused by Q1.2) for a same-width column `a` lacks.
  const int d_year = universe_->ColumnIndex("d_year");
  const uint32_t width = universe_->Column(static_cast<size_t>(d_year)).byte_size;
  MvSpec b = a;
  for (size_t c = 0; c < universe_->NumColumns(); ++c) {
    const auto& col = universe_->Column(c);
    if (col.byte_size == width &&
        std::find(a.columns.begin(), a.columns.end(), col.name) ==
            a.columns.end()) {
      std::replace(b.columns.begin(), b.columns.end(), std::string("d_year"),
                   col.name);
      break;
    }
  }
  ASSERT_NE(a.columns, b.columns);
  MvSpec c = a;
  c.columns.push_back("lo_revenue");
  const DiskParams& disk = stats_->options().disk;
  ASSERT_EQ(MvHeapPages(a, *stats_, disk), MvHeapPages(b, *stats_, disk));
  ASSERT_NE(MvHeapPages(a, *stats_, disk), MvHeapPages(c, *stats_, disk));

  CorrelationCostModel model(registry_);
  const std::vector<std::string> cols = {"d_yearmonthnum"};
  const CostBreakdown pa = model.SecondaryPathCost(q12, a, cols);
  const size_t entries = model.secondary_memo_entries();
  const CostBreakdown pb = model.SecondaryPathCost(q12, b, cols);
  EXPECT_EQ(model.secondary_memo_entries(), entries);  // shared entry
  CorrelationCostModel fresh(registry_);
  const CostBreakdown pb_fresh = fresh.SecondaryPathCost(q12, b, cols);
  for (const CostBreakdown* p : {&pb, &pb_fresh}) {
    EXPECT_EQ(p->seconds, pa.seconds);
    EXPECT_EQ(p->read_seconds, pa.read_seconds);
    EXPECT_EQ(p->seek_seconds, pa.seek_seconds);
    EXPECT_EQ(p->fragments, pa.fragments);
    EXPECT_EQ(p->selectivity, pa.selectivity);
    EXPECT_EQ(p->secondary_columns, pa.secondary_columns);
  }
  const CostBreakdown pc = model.SecondaryPathCost(q12, c, cols);
  EXPECT_EQ(model.secondary_memo_entries(), entries + 1);
  EXPECT_EQ(pc.seconds, fresh.SecondaryPathCost(q12, c, cols).seconds);
}

TEST_F(CostModelTest, BaseServesAllThirteenQueries) {
  CorrelationCostModel model(registry_);
  for (const auto& q : workload_->queries) {
    EXPECT_NE(model.Seconds(q, BaseSpec()), kInfeasibleCost) << q.id;
  }
}

// ---------- Oblivious model: the Fig 10 property ----------

TEST_F(CostModelTest, ObliviousModelIsFlatAcrossClusterings) {
  ObliviousCostModel model(registry_);
  const Query& q12 = workload_->queries[1];
  const CostBreakdown a =
      model.SecondaryCost(q12, Q11Spec({"lo_orderdate"}), {"d_yearmonthnum"});
  const CostBreakdown b = model.SecondaryCost(
      q12, Q11Spec({"lo_extendedprice"}), {"d_yearmonthnum"});
  ASSERT_TRUE(a.feasible());
  ASSERT_TRUE(b.feasible());
  EXPECT_NEAR(a.seconds, b.seconds, 1e-9);  // clustering-independent
}

TEST_F(CostModelTest, ObliviousUnderestimatesUncorrelatedDesigns) {
  CorrelationCostModel aware(registry_);
  ObliviousCostModel oblivious(registry_);
  const Query& q12 = workload_->queries[1];
  const MvSpec uncorrelated = Q11Spec({"lo_extendedprice"});
  const CostBreakdown real =
      aware.SecondaryPathCost(q12, uncorrelated, {"d_yearmonthnum"});
  const CostBreakdown rosy =
      oblivious.SecondaryCost(q12, uncorrelated, {"d_yearmonthnum"});
  ASSERT_TRUE(real.feasible());
  ASSERT_TRUE(rosy.feasible());
  EXPECT_LT(rosy.seconds * 3, real.seconds);
}

TEST_F(CostModelTest, ModelsAgreeOnFullScans) {
  CorrelationCostModel aware(registry_);
  ObliviousCostModel oblivious(registry_);
  Query no_pred;
  no_pred.id = "t_scan";
  no_pred.fact_table = "lineorder";
  no_pred.aggregates = {{"lo_extendedprice", ""}};
  const MvSpec spec = Q11Spec({"d_year"});
  EXPECT_NEAR(aware.Seconds(no_pred, spec), oblivious.Seconds(no_pred, spec),
              1e-9);
}

// ---------- Fused bucket-profile kernel ----------

/// The reference the kernel replaced: materialize every observation's
/// bucket, sort, and profile the sorted run lengths.
BucketProfile ReferenceProfile(const std::vector<uint32_t>& ranks,
                               const std::vector<uint32_t>& rows, double scale,
                               uint64_t total_rows) {
  std::vector<int64_t> obs;
  for (uint32_t r : rows) obs.push_back(BucketOfRank(ranks[r], scale));
  std::sort(obs.begin(), obs.end());
  BucketProfile out;
  out.profile = SampleFrequencyProfile::FromSortedValues(obs, total_rows);
  out.first_bucket = obs.front();
  out.last_bucket = obs.back();
  return out;
}

void ExpectSameProfile(const BucketProfile& got, const BucketProfile& want) {
  EXPECT_EQ(got.profile.sample_rows, want.profile.sample_rows);
  EXPECT_EQ(got.profile.total_rows, want.profile.total_rows);
  EXPECT_EQ(got.profile.distinct_in_sample, want.profile.distinct_in_sample);
  EXPECT_EQ(got.profile.f1, want.profile.f1);
  EXPECT_EQ(got.profile.f2, want.profile.f2);
  EXPECT_EQ(got.first_bucket, want.first_bucket);
  EXPECT_EQ(got.last_bucket, want.last_bucket);
}

TEST(BucketProfileTest, MatchesSortReferenceOnRandomInputs) {
  Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = 1 + rng.Uniform(3000);
    std::vector<uint32_t> ranks(n);
    for (size_t i = 0; i < n; ++i) ranks[i] = static_cast<uint32_t>(i);
    for (size_t i = n; i > 1; --i) std::swap(ranks[i - 1], ranks[rng.Uniform(i)]);
    // Matched sets from a single row to all rows; bucket counts from one
    // bucket to far above the kernel's dense limit (4m + 1024).
    const size_t m = 1 + rng.Uniform(n);
    std::vector<uint32_t> rows;
    for (size_t i = 0; i < n; ++i) {
      if (rng.Uniform(n) < m) rows.push_back(static_cast<uint32_t>(i));
    }
    if (rows.empty()) rows.push_back(0);
    const double buckets_per_row = trial % 3 == 0 ? 0.01
                                   : trial % 3 == 1 ? 0.3
                                                    : 50.0 + rng.Uniform(500);
    const double scale = std::max(1.0, buckets_per_row * static_cast<double>(n)) /
                         static_cast<double>(n);
    const uint64_t total = rows.size() * (1 + rng.Uniform(100));
    ExpectSameProfile(ProfileBuckets(ranks, rows, scale, total),
                      ReferenceProfile(ranks, rows, scale, total));
  }
}

TEST(BucketProfileTest, EdgeCases) {
  std::vector<uint32_t> ranks(64);
  for (size_t i = 0; i < ranks.size(); ++i) {
    ranks[i] = static_cast<uint32_t>((i * 37) % 64);
  }
  // Fewer than four observations (the cost model does not use them for AE,
  // but the kernel must still agree).
  for (const std::vector<uint32_t>& rows :
       {std::vector<uint32_t>{5}, std::vector<uint32_t>{1, 2},
        std::vector<uint32_t>{0, 9, 63}}) {
    ExpectSameProfile(ProfileBuckets(ranks, rows, 0.5, 10),
                      ReferenceProfile(ranks, rows, 0.5, 10));
  }
  // Every observation in one bucket: one distinct value, no singletons.
  std::vector<uint32_t> all(64);
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  const BucketProfile one = ProfileBuckets(ranks, all, 1.0 / 64.0, 1000);
  ExpectSameProfile(one, ReferenceProfile(ranks, all, 1.0 / 64.0, 1000));
  EXPECT_EQ(one.profile.distinct_in_sample, 1u);
  EXPECT_EQ(one.first_bucket, one.last_bucket);
  // A band far wider than the matches (the sparse fallback).
  const std::vector<uint32_t> spread = {0, 1, 2, 3, 40, 41, 63};
  const BucketProfile wide = ProfileBuckets(ranks, spread, 1e6, 7);
  ExpectSameProfile(wide, ReferenceProfile(ranks, spread, 1e6, 7));
  EXPECT_GT(wide.last_bucket - wide.first_bucket, 4 * 7 + 1024);
  // The dense path right after the sparse one still starts from clean
  // per-thread scratch.
  ExpectSameProfile(ProfileBuckets(ranks, all, 0.25, 100),
                    ReferenceProfile(ranks, all, 0.25, 100));
}

}  // namespace
}  // namespace coradd
