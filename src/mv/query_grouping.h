// Query grouping (§4.1): extended selectivity vectors are clustered with
// k-means for every k in 1..|Q| and several target-attribute weights alpha
// in [0, 0.5]; the union of all groupings (deduplicated) becomes the set of
// candidate query groups. Grouping need not be perfect — ILP feedback later
// expands/shrinks groups adaptively (§4.1.2's closing remark).
#pragma once

#include <set>
#include <vector>

#include "common/thread_pool.h"
#include "mv/selectivity_vector.h"
#include "workload/query.h"

namespace coradd {

/// A query group: sorted workload indices of its member queries.
using QueryGroup = std::vector<int>;

/// Knobs for grouping.
struct QueryGroupingOptions {
  /// Target-attribute weights; the paper sweeps 0..0.5 (§4.1.3).
  std::vector<double> alphas = {0.0, 0.1, 0.25, 0.5};
  uint64_t seed = 99;
  /// k-means++ restarts per (k, alpha); best inertia wins.
  int restarts = 2;
};

/// Produces candidate query groups for one fact table.
class QueryGrouper {
 public:
  /// `pool` computes the queries' propagated selectivity vectors in
  /// parallel (nullptr = ThreadPool::Shared()); groups do not depend on it.
  QueryGrouper(const UniverseStats* stats, QueryGroupingOptions options = {},
               ThreadPool* pool = nullptr);

  /// `fact_query_indices` are indices into `workload.queries` of the queries
  /// on this grouper's fact table. Returns deduplicated groups from every
  /// (k, alpha) run, always including every singleton group and the
  /// all-queries group.
  std::vector<QueryGroup> Groups(
      const Workload& workload,
      const std::vector<int>& fact_query_indices) const;

 private:
  const UniverseStats* stats_;
  QueryGroupingOptions options_;
  ThreadPool* pool_;
};

}  // namespace coradd
