// The MV Candidate Generator (§4, Fig 1): query grouping -> clustered index
// design -> fact-table re-clustering candidates, producing the MvSpec pool
// the ILP selects from.
//
// Group design is embarrassingly parallel: every query group's clustered
// indexes are designed independently on the thread pool and merged back in
// group order, so the generated CandidateSet is bit-identical at any thread
// count (the PR 3/PR 4 determinism contract; tests/candgen_test.cc).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/thread_pool.h"
#include "mv/index_merging.h"
#include "mv/query_grouping.h"

namespace coradd {

/// Knobs for candidate generation.
struct CandidateGeneratorOptions {
  QueryGroupingOptions grouping;
  IndexMergingOptions merging;
  /// Pool group design fans out on; nullptr = ThreadPool::Shared(). Also
  /// seeds merging.pool when that is unset.
  ThreadPool* pool = nullptr;
};

/// Signature of every option that affects the generated candidates (pools
/// excluded — they must not). Keys the cross-designer CandidateGenCache.
std::string CandidateGeneratorOptionsSignature(
    const CandidateGeneratorOptions& options);

/// The generated candidate pool.
struct CandidateSet {
  std::vector<MvSpec> mvs;
  /// The deduplicated query groups candidates were generated from (per fact
  /// table, flattened) — reused by ILP feedback.
  std::vector<QueryGroup> groups;
};

/// Counters describing candidate-generation work, accumulated across
/// generation passes and cache lookups (bench `candgen` JSON segment).
struct CandGenStats {
  uint64_t trials_priced = 0;    ///< trial clusterings fully priced
  uint64_t trials_pruned = 0;    ///< dominated trials dropped before pricing
  uint64_t groups_designed = 0;  ///< DesignGroup invocations
  uint64_t cache_hits = 0;       ///< CandidateGenCache hits
  uint64_t cache_misses = 0;     ///< CandidateGenCache misses (generations)
  double wall_seconds = 0.0;     ///< wall time spent generating

  void Accumulate(const CandGenStats& other);
  std::string ToString() const;
};

/// Produces the initial candidate pool for a workload.
class MvCandidateGenerator {
 public:
  MvCandidateGenerator(const Catalog* catalog, const StatsRegistry* registry,
                       const CostModel* model,
                       CandidateGeneratorOptions options = {});

  /// Full §4 pipeline over every fact table the workload touches.
  CandidateSet Generate(const Workload& workload) const;

  /// Designs candidates for one explicit group (used by ILP feedback to
  /// expand/shrink groups and recluster with a larger t).
  std::vector<MvSpec> DesignForGroup(const Workload& workload,
                                     const QueryGroup& group,
                                     const std::string& fact_table,
                                     int t_override = 0) const;

  const CandidateGeneratorOptions& options() const { return options_; }

  /// Generation-work counters since construction (trials priced/pruned and
  /// groups designed; cache fields and wall time are owned by the
  /// CandidateGenCache and stay zero here).
  CandGenStats stats() const;

 private:
  const Catalog* catalog_;
  const StatsRegistry* registry_;
  const CostModel* model_;
  CandidateGeneratorOptions options_;
  std::unique_ptr<ClusteredIndexDesigner> index_designer_;
  mutable std::atomic<uint64_t> groups_designed_{0};
};

}  // namespace coradd
