// Tests for src/feedback (§6 ILP feedback): never worse than the plain ILP,
// grows the candidate pool from solutions, and respects the space budget.
#include <gtest/gtest.h>

#include "cost/correlation_cost_model.h"
#include "feedback/ilp_feedback.h"
#include "obs/metrics.h"
#include "solver/solver.h"
#include "ssb/ssb.h"

namespace coradd {
namespace {

class FeedbackTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ssb::SsbOptions options;
    options.scale_factor = 0.003;
    catalog_ = ssb::MakeCatalog(options).release();
    universe_ = new Universe(*catalog_, *catalog_->GetFactInfo("lineorder"));
    StatsOptions sopt;
    sopt.sample_rows = 2048;
    sopt.disk.page_size_bytes = 1024;
    stats_ = new UniverseStats(universe_, sopt);
    registry_ = new StatsRegistry();
    registry_->Register(stats_);
    model_ = new CorrelationCostModel(registry_);
    workload_ = new Workload(ssb::MakeWorkload());
    CandidateGeneratorOptions gopt;
    gopt.grouping.alphas = {0.0, 0.5};
    gopt.grouping.restarts = 1;
    generator_ = new MvCandidateGenerator(catalog_, registry_, model_, gopt);
  }
  static void TearDownTestSuite() {
    delete generator_;
    delete workload_;
    delete model_;
    delete registry_;
    delete stats_;
    delete universe_;
    delete catalog_;
  }

  static BuiltProblem InitialProblem(uint64_t budget) {
    CandidateSet set = generator_->Generate(*workload_);
    return BuildSelectionProblem(*workload_, std::move(set.mvs), *model_,
                                 *registry_, budget);
  }

  static Catalog* catalog_;
  static Universe* universe_;
  static UniverseStats* stats_;
  static StatsRegistry* registry_;
  static CorrelationCostModel* model_;
  static Workload* workload_;
  static MvCandidateGenerator* generator_;
};

Catalog* FeedbackTest::catalog_ = nullptr;
Universe* FeedbackTest::universe_ = nullptr;
UniverseStats* FeedbackTest::stats_ = nullptr;
StatsRegistry* FeedbackTest::registry_ = nullptr;
CorrelationCostModel* FeedbackTest::model_ = nullptr;
Workload* FeedbackTest::workload_ = nullptr;
MvCandidateGenerator* FeedbackTest::generator_ = nullptr;

// The registry's candgen counters are mirrors of CandGenStats: over a
// Generate and a feedback run (which designs extra groups through
// DesignForGroup), their deltas equal the generator's own counts.
TEST_F(FeedbackTest, RegistryCandgenCountersMatchStats) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const obs::Counter* priced = reg.GetCounter("candgen.trials_priced");
  const obs::Counter* pruned = reg.GetCounter("candgen.trials_pruned");
  const obs::Counter* groups = reg.GetCounter("candgen.groups_designed");
  const uint64_t priced0 = priced->Value();
  const uint64_t pruned0 = pruned->Value();
  const uint64_t groups0 = groups->Value();

  CandidateGeneratorOptions gopt;
  gopt.grouping.alphas = {0.0, 0.5};
  gopt.grouping.restarts = 1;
  const MvCandidateGenerator generator(catalog_, registry_, model_, gopt);
  CandidateSet set = generator.Generate(*workload_);
  const size_t generated_groups = set.groups.size();
  const uint64_t budget = 8ull << 20;
  BuiltProblem initial = BuildSelectionProblem(
      *workload_, std::move(set.mvs), *model_, *registry_, budget);
  FeedbackOptions options;
  options.max_iterations = 2;
  RunIlpFeedback(*workload_, generator, *model_, *registry_,
                 std::move(initial), budget, options);

  const CandGenStats stats = generator.stats();
  EXPECT_GT(stats.groups_designed, generated_groups);  // feedback designed
  EXPECT_GT(stats.trials_pruned, 0u);
  EXPECT_EQ(priced->Value() - priced0, stats.trials_priced);
  EXPECT_EQ(pruned->Value() - pruned0, stats.trials_pruned);
  EXPECT_EQ(groups->Value() - groups0, stats.groups_designed);
}

TEST_F(FeedbackTest, NeverWorseThanInitialSolution) {
  const uint64_t budget = 8ull << 20;
  BuiltProblem initial = InitialProblem(budget);
  const double before = SolverEngine().Solve(initial.problem).expected_cost;
  FeedbackOptions options;
  options.max_iterations = 2;
  const FeedbackOutcome out = RunIlpFeedback(
      *workload_, *generator_, *model_, *registry_, std::move(initial),
      budget, options);
  EXPECT_LE(out.result.expected_cost, before + 1e-9);
  EXPECT_GE(out.iterations, 1);
}

TEST_F(FeedbackTest, AddsCandidatesFromSolution) {
  const uint64_t budget = 8ull << 20;
  const FeedbackOutcome out = RunIlpFeedback(
      *workload_, *generator_, *model_, *registry_, InitialProblem(budget),
      budget, FeedbackOptions{1, 6, 500});
  EXPECT_GT(out.candidates_added, 0u);
  EXPECT_GT(out.problem.specs.size(), 0u);
}

TEST_F(FeedbackTest, ZeroIterationsIsPlainSolve) {
  const uint64_t budget = 4ull << 20;
  BuiltProblem initial = InitialProblem(budget);
  const double plain = SolverEngine().Solve(initial.problem).expected_cost;
  const FeedbackOutcome out = RunIlpFeedback(
      *workload_, *generator_, *model_, *registry_, std::move(initial),
      budget, FeedbackOptions{0, 6, 500});
  EXPECT_NEAR(out.result.expected_cost, plain, 1e-9);
  EXPECT_EQ(out.candidates_added, 0u);
}

TEST_F(FeedbackTest, RespectsBudgetAfterFeedback) {
  for (uint64_t budget : {2ull << 20, 16ull << 20}) {
    const FeedbackOutcome out = RunIlpFeedback(
        *workload_, *generator_, *model_, *registry_, InitialProblem(budget),
        budget, FeedbackOptions{1, 4, 200});
    EXPECT_LE(out.result.used_bytes, budget);
    EXPECT_TRUE(SelectionFeasible(out.problem.problem, out.result.chosen));
  }
}

TEST_F(FeedbackTest, TighterBudgetNeverBeatsLooser) {
  const FeedbackOutcome tight = RunIlpFeedback(
      *workload_, *generator_, *model_, *registry_,
      InitialProblem(1ull << 20), 1ull << 20, FeedbackOptions{1, 4, 200});
  const FeedbackOutcome loose = RunIlpFeedback(
      *workload_, *generator_, *model_, *registry_,
      InitialProblem(32ull << 20), 32ull << 20, FeedbackOptions{1, 4, 200});
  EXPECT_GE(tight.result.expected_cost, loose.result.expected_cost - 1e-9);
}

}  // namespace
}  // namespace coradd
