#include "cost/access_path.h"

#include <algorithm>

namespace coradd {

bool MvCanServe(const Query& q, const MvSpec& spec) {
  if (q.fact_table != spec.fact_table) return false;
  if (spec.is_fact_recluster) return true;
  // Checks the members of q.AllColumns() in place, without building it.
  const auto has = [&spec](const std::string& col) {
    return std::find(spec.columns.begin(), spec.columns.end(), col) !=
           spec.columns.end();
  };
  for (const auto& p : q.predicates) {
    if (!has(p.column)) return false;
  }
  for (const auto& g : q.group_by) {
    if (!has(g)) return false;
  }
  for (const auto& a : q.aggregates) {
    if (!has(a.col_a)) return false;
    if (!a.col_b.empty() && !has(a.col_b)) return false;
  }
  return true;
}

ClusteredPrefixPlan AnalyzeClusteredPrefix(
    const Query& q, const std::vector<std::string>& clustered_key,
    const UniverseStats& stats) {
  ClusteredPrefixPlan plan;
  for (const auto& key_col : clustered_key) {
    const Predicate* pred = nullptr;
    for (const auto& p : q.predicates) {
      if (p.column == key_col) {
        pred = &p;
        break;
      }
    }
    if (pred == nullptr) break;

    const double sel = EstimateSelectivity(*pred, stats);
    plan.selectivity *= sel;
    plan.consumed_key_columns++;
    plan.consumed_columns.push_back(key_col);
    if (pred->type == PredicateType::kIn) {
      plan.num_ranges *= static_cast<double>(pred->in_values.size());
    } else if (pred->type == PredicateType::kRange) {
      // A range keeps contiguity on this column but nothing deeper in the
      // key can refine the scan; stop.
      break;
    }
  }
  return plan;
}

}  // namespace coradd
