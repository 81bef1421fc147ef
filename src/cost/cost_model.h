// Cost-model interface. Two implementations:
//  * CorrelationCostModel — the paper's model (A-2.2):
//        cost = fullscancost * selectivity + seek_cost * fragments * height
//    with `fragments` estimated from correlations via AE over the synopsis;
//  * ObliviousCostModel — a commercial-style model that prices secondary
//    index plans identically for every clustering (Fig 10's flat line).
#pragma once

#include <limits>
#include <string>
#include <unordered_map>

#include "cost/mv_spec.h"
#include "workload/query.h"

namespace coradd {

/// Cost models return +infinity for (query, MV) pairs the MV cannot serve.
inline constexpr double kInfeasibleCost =
    std::numeric_limits<double>::infinity();

/// Per-universe statistics lookup by fact-table name.
class StatsRegistry {
 public:
  void Register(const UniverseStats* stats) {
    by_fact_[stats->universe().fact_name()] = stats;
  }
  const UniverseStats* ForFact(const std::string& fact) const {
    auto it = by_fact_.find(fact);
    return it == by_fact_.end() ? nullptr : it->second;
  }

 private:
  std::unordered_map<std::string, const UniverseStats*> by_fact_;
};

/// Which physical plan a cost estimate assumed.
enum class AccessPath { kFullScan, kClusteredScan, kSecondary };

/// Itemized cost estimate for one (query, MV) pair.
struct CostBreakdown {
  double seconds = kInfeasibleCost;
  double read_seconds = 0.0;
  double seek_seconds = 0.0;
  double fragments = 0.0;
  double selectivity = 1.0;  ///< Fraction of the object read.
  AccessPath path = AccessPath::kFullScan;
  /// For kSecondary: the predicate columns the chosen CM/index covers.
  std::vector<std::string> secondary_columns;

  bool feasible() const { return seconds != kInfeasibleCost; }
};

/// Estimates query runtimes against hypothetical design objects.
class CostModel {
 public:
  virtual ~CostModel() = default;

  /// Full breakdown; seconds == kInfeasibleCost if `spec` cannot serve `q`.
  virtual CostBreakdown Cost(const Query& q, const MvSpec& spec) const = 0;

  /// Convenience: just the seconds.
  double Seconds(const Query& q, const MvSpec& spec) const {
    return Cost(q, spec).seconds;
  }

  /// Estimate for a secondary-index plan that uses exactly
  /// `secondary_cols` of the query's predicates. Used by the executor to
  /// choose among the physically available structures (CMs / B+Trees).
  virtual CostBreakdown SecondaryCost(
      const Query& q, const MvSpec& spec,
      const std::vector<std::string>& secondary_cols) const = 0;

  /// Frequency-weighted group cost: the sum of
  /// Seconds(q, spec) * q.frequency over workload.queries[i] for each i in
  /// `query_indices`, accumulated in that order. Candidate generation prices
  /// every trial clustering of a query group through this call, so models
  /// override it to resolve `spec` once per group rather than once per
  /// query; an override must return exactly the value of this loop.
  virtual double GroupSeconds(const Workload& workload,
                              const std::vector<int>& query_indices,
                              const MvSpec& spec) const {
    double total = 0.0;
    for (int qi : query_indices) {
      const Query& q = workload.queries[static_cast<size_t>(qi)];
      total += Seconds(q, spec) * q.frequency;
    }
    return total;
  }

  virtual std::string name() const = 0;

  /// Identity of this model for cross-designer caches: models with equal
  /// CacheId() produce bit-identical candidate sets for the same workload
  /// and statistics. Includes tuning options when they affect pricing.
  virtual std::string CacheId() const { return name(); }
};

/// True iff `spec` contains every column `q` references (fact re-clusterings
/// serve all queries of their fact table via cached dimension lookups).
bool MvCanServe(const Query& q, const MvSpec& spec);

}  // namespace coradd
