// The paper's correlation-aware cost model (A-2.2):
//
//     cost      = cost_read + cost_seek
//     cost_read = fullscancost * selectivity
//     cost_seek = seek_cost * fragments * btree_height
//
// For secondary (CM-assisted) access, `fragments` and the accessed fraction
// are driven by how many distinct clustered-key regions co-occur with the
// predicated values: strongly correlated clusterings co-occur with few,
// contiguous regions (cheap); uncorrelated ones scatter across the heap
// (close to a full scan). Co-occurrence is estimated by running AE over the
// table synopsis for the hypothetical design, exactly as A-2.2 prescribes
// ("we run the Adaptive Estimator (AE) over random samples on the fly to
// estimate fragments and selectivity for a given MV design and query").
//
// Hot-path layout (docs/CANDGEN.md): candidate generation prices every trial
// clustering of every query group, so a trial must cost a few hash probes.
//  * Every estimate depends on the spec only through its universe, its
//    clustered key and its heap page count (B-tree height follows from
//    pages and key), so a spec is resolved ONCE — pages, height and an
//    interned clustered-key id — and memo keys are small integer tuples:
//    (query id, key id, pages) for a query's best path, plus the interned
//    secondary column list for a secondary path. Query ids are interned per
//    universe; hashes only pick a shard and bucket, hits compare full keys.
//  * Memo tables are sharded, each shard with its own lock (no model-wide
//    lock). Each estimate is computed once, outside any lock; concurrent
//    askers of the same key wait for it, so results are bit-identical at
//    any thread count and arrival order.
//  * Clustered-key ranks are composed from per-column synopsis orders
//    (ColumnOrderCache) once per distinct key; AE's bucket profile is
//    counted by a fused per-thread kernel (cost/bucket_profile.h) instead
//    of materializing and sorting bucket observations.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "common/sharded_memo.h"
#include "cost/access_path.h"
#include "cost/column_order_cache.h"
#include "cost/cost_model.h"

namespace coradd {

/// Tuning knobs for the correlation-aware model.
struct CorrelationCostModelOptions {
  /// Pages per clustered "bucket": granularity at which co-occurring
  /// clustered regions are counted (A-1.1 uses ~20 pages per bucket ID for
  /// clustered-column bucketing; we default a bit finer).
  uint32_t bucket_pages = 8;
  /// Secondary paths are evaluated for predicate-column subsets up to this
  /// size plus the full predicate set (the CM Designer explores "every
  /// combination"; pairs + singletons + the full set cover the useful ones).
  size_t max_subset_size = 2;
};

/// Correlation-aware cost model over one or more universes.
class CorrelationCostModel : public CostModel {
 public:
  CorrelationCostModel(const StatsRegistry* registry,
                       CorrelationCostModelOptions options = {});
  ~CorrelationCostModel() override;
  CorrelationCostModel(const CorrelationCostModel&) = delete;
  CorrelationCostModel& operator=(const CorrelationCostModel&) = delete;

  CostBreakdown Cost(const Query& q, const MvSpec& spec) const override;
  double GroupSeconds(const Workload& workload,
                      const std::vector<int>& query_indices,
                      const MvSpec& spec) const override;
  std::string name() const override { return "correlation-aware"; }
  std::string CacheId() const override;

  /// Secondary-path estimate via a CM/index on exactly `secondary_cols`
  /// (exposed for the CM Designer, which sweeps attribute combinations).
  CostBreakdown SecondaryPathCost(const Query& q, const MvSpec& spec,
                                  const std::vector<std::string>& secondary_cols) const;

  CostBreakdown SecondaryCost(
      const Query& q, const MvSpec& spec,
      const std::vector<std::string>& secondary_cols) const override {
    return SecondaryPathCost(q, spec, secondary_cols);
  }

  /// Entries of the SecondaryPathCost memo, keyed (query, columns, key,
  /// pages), summed over universes.
  size_t secondary_memo_entries() const;

 private:
  struct UniverseMemo;
  struct KeyEntry;
  struct QueryEntry;
  struct MatchedEntry;

  /// A spec reduced to what its estimates depend on.
  struct ResolvedSpec {
    const MvSpec* spec = nullptr;
    UniverseMemo* u = nullptr;
    const KeyEntry* key = nullptr;  ///< interned clustered key
    uint64_t pages = 0;
    double height = 0.0;
  };

  /// The memo state of `stats`' universe, created on first use.
  UniverseMemo& UniverseFor(const UniverseStats& stats) const;

  ResolvedSpec Resolve(const MvSpec& spec, const UniverseStats& stats) const;

  /// The interned entry of `q` (by id) in `u`.
  const QueryEntry& QueryFor(UniverseMemo& u, const Query& q) const;

  /// Interned id of a secondary column list.
  uint32_t SubsetId(UniverseMemo& u,
                    const std::vector<std::string>& secondary_cols) const;

  /// Synopsis rows satisfying the predicates of `q` restricted to `cols`,
  /// with the estimated full-table match count.
  const MatchedEntry& Matched(UniverseMemo& u, const Query& q, uint32_t query_id,
                              uint32_t subset_id,
                              const std::vector<std::string>& cols) const;

  /// Memoized best path of `q` against the resolved spec.
  const CostBreakdown& Best(const Query& q, const ResolvedSpec& rs) const;

  /// Secondary path over the matched rows of some column subset (AE over
  /// the bucket profile); secondary_columns is left for the caller to set.
  CostBreakdown SecondaryPath(const ResolvedSpec& rs,
                              const MatchedEntry& matched) const;

  /// The secondary-path column subsets Cost() prices for `q`.
  std::vector<std::vector<std::string>> SecondarySubsets(const Query& q) const;

  CostBreakdown FullScanPath(const ResolvedSpec& rs) const;
  CostBreakdown ClusteredPath(const Query& q, const ResolvedSpec& rs) const;

  const StatsRegistry* registry_;
  CorrelationCostModelOptions options_;
  /// Per-universe memo state: an append-only lock-free list (a model sees
  /// one or two universes), so finding it takes no lock.
  mutable std::atomic<UniverseMemo*> universes_{nullptr};
};

}  // namespace coradd
