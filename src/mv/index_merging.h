// Clustered-index design for query groups (§4.2, Figs 3-4).
//
// A dedicated MV (single query) gets its predicated attributes as the
// clustered key, ordered by predicate type (equality, range, IN) and then
// ascending selectivity. Multi-query groups are split into dedicated keys
// which are merged pairwise, exploring *order-preserving interleavings*
// (concatenation is the degenerate interleaving; the paper found
// concatenation-only merging up to 90% slower). After each merge the
// designer keeps the t clusterings with the best expected group runtime
// under the provided cost model, and drops trailing attributes once the
// leading attributes' distinct count exceeds one value per heap page.
//
// Trial pricing is the designer's hot loop, so each merge level runs as one
// deterministic parallel loop: trials are enumerated in a fixed order
// (interleavings whose attribute-drop truncation repeats an enumerated key
// are dropped first), priced concurrently on the thread pool through
// CostModel::GroupSeconds, and merged back in enumeration order. The
// produced candidates are bit-identical at any thread count
// (tests/candgen_test.cc locks this down).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "cost/cost_model.h"
#include "mv/query_grouping.h"

namespace coradd {

/// Knobs for the clustered-index designer.
struct IndexMergingOptions {
  /// Clusterings retained per MV (§4.2's t). ILP feedback raises this.
  int t = 2;
  /// Attribute-drop cap: "this limits the number of attributes in the
  /// clustered index to 7 or 8".
  size_t max_key_attrs = 7;
  /// Cap on interleavings enumerated per pairwise merge (the full count is
  /// binomial; beyond the cap a deterministic subsample is used).
  size_t max_interleavings = 256;
  /// When true, merge by concatenation only — the [6]-style baseline used
  /// by the ablation bench for the "up to 90% slower" claim.
  bool concatenation_only = false;
  /// Pool trial pricing fans out on; nullptr = ThreadPool::Shared().
  ThreadPool* pool = nullptr;
};

/// Designs clustered indexes for MV candidates.
class ClusteredIndexDesigner {
 public:
  ClusteredIndexDesigner(const StatsRegistry* registry, const CostModel* model,
                         IndexMergingOptions options = {});

  const IndexMergingOptions& options() const { return options_; }

  /// Dedicated clustered key for one query (§4.2's optimal single-query
  /// design).
  std::vector<std::string> DedicatedKey(const Query& q,
                                        const UniverseStats& stats) const;

  /// Enumerates order-preserving interleavings of `a` and `b` (duplicates
  /// in `b` removed), capped at `max_interleavings`. Exposed for tests.
  std::vector<std::vector<std::string>> Interleavings(
      const std::vector<std::string>& a,
      const std::vector<std::string>& b) const;

  /// Produces up to `t` MV candidates (same columns & group, different
  /// clustered keys) for the group. `t_override` > 0 replaces options().t —
  /// the hook ILP feedback uses to recluster with larger t.
  std::vector<MvSpec> DesignGroup(const Workload& workload,
                                  const QueryGroup& group,
                                  const std::string& fact_table,
                                  int t_override = 0) const;

  /// Trial clusterings fully priced / dropped before pricing (dominated
  /// interleavings whose truncation duplicates an enumerated key) since
  /// construction (monotone; deterministic for a fixed input sequence).
  uint64_t trials_priced() const {
    return trials_priced_.load(std::memory_order_relaxed);
  }
  uint64_t trials_pruned() const {
    return trials_pruned_.load(std::memory_order_relaxed);
  }

 private:
  /// Truncates `key` per the attribute-drop rule for the MV's page count.
  std::vector<std::string> ApplyAttributeDrop(
      const std::vector<std::string>& key, const MvSpec& proto,
      const UniverseStats& stats) const;

  /// Frequency-weighted model cost of the group's queries against `spec`.
  double GroupCost(const Workload& workload, const QueryGroup& group,
                   const MvSpec& spec) const;

  /// Prices `trials` in one parallel loop and returns the scored map
  /// (cost -> key, first-enumerated wins cost ties).
  std::map<double, std::vector<std::string>> ScoreTrials(
      const Workload& workload, const QueryGroup& group, const MvSpec& proto,
      const std::vector<std::vector<std::string>>& trials) const;

  const StatsRegistry* registry_;
  const CostModel* model_;
  IndexMergingOptions options_;
  mutable std::atomic<uint64_t> trials_priced_{0};
  mutable std::atomic<uint64_t> trials_pruned_{0};
};

}  // namespace coradd
