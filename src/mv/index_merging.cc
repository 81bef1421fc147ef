#include "mv/index_merging.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace coradd {

namespace {

int PredicateTypeRank(PredicateType t) {
  switch (t) {
    case PredicateType::kEquality:
      return 0;
    case PredicateType::kRange:
      return 1;
    case PredicateType::kIn:
      return 2;
  }
  return 3;
}

/// Union of all columns used by the group's queries, first-appearance order.
std::vector<std::string> GroupColumns(const Workload& workload,
                                      const QueryGroup& group) {
  std::vector<std::string> cols;
  for (int qi : group) {
    for (const auto& c :
         workload.queries[static_cast<size_t>(qi)].AllColumns()) {
      if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
        cols.push_back(c);
      }
    }
  }
  return cols;
}

}  // namespace

ClusteredIndexDesigner::ClusteredIndexDesigner(const StatsRegistry* registry,
                                               const CostModel* model,
                                               IndexMergingOptions options)
    : registry_(registry), model_(model), options_(options) {
  CORADD_CHECK(registry != nullptr);
  CORADD_CHECK(model != nullptr);
}

std::vector<std::string> ClusteredIndexDesigner::DedicatedKey(
    const Query& q, const UniverseStats& stats) const {
  struct Entry {
    std::string column;
    int type_rank;
    double selectivity;
  };
  std::vector<Entry> entries;
  for (const auto& p : q.predicates) {
    bool seen = false;
    for (const auto& e : entries) {
      if (e.column == p.column) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    entries.push_back(
        {p.column, PredicateTypeRank(p.type), EstimateSelectivity(p, stats)});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     if (a.type_rank != b.type_rank) {
                       return a.type_rank < b.type_rank;
                     }
                     return a.selectivity < b.selectivity;
                   });
  std::vector<std::string> key;
  key.reserve(entries.size());
  for (const auto& e : entries) key.push_back(e.column);
  return key;
}

std::vector<std::vector<std::string>> ClusteredIndexDesigner::Interleavings(
    const std::vector<std::string>& a,
    const std::vector<std::string>& b) const {
  // Remove from b attributes already present in a (keep a's positions).
  std::vector<std::string> b2;
  for (const auto& x : b) {
    if (std::find(a.begin(), a.end(), x) == a.end()) b2.push_back(x);
  }
  if (b2.empty()) return {a};
  if (a.empty()) return {b2};

  if (options_.concatenation_only) {
    std::vector<std::string> ab = a;
    ab.insert(ab.end(), b2.begin(), b2.end());
    std::vector<std::string> ba = b2;
    ba.insert(ba.end(), a.begin(), a.end());
    return {std::move(ab), std::move(ba)};
  }

  // Order-preserving interleavings of a and b2, enumerated recursively and
  // capped. The raw enumeration cap is 4x the returned cap so the final
  // stride-sample still spans qualitatively different merge shapes.
  const size_t raw_cap = options_.max_interleavings * 4;
  std::vector<std::vector<std::string>> all;
  std::vector<std::string> current;
  current.reserve(a.size() + b2.size());
  // Explicit stack DFS: state = (next index into a, next index into b2).
  struct Frame {
    size_t i, j;
    int branch;  // 0: about to try a, 1: about to try b, 2: done
  };
  std::vector<Frame> stack;
  stack.push_back({0, 0, 0});
  while (!stack.empty() && all.size() < raw_cap) {
    Frame& f = stack.back();
    if (f.i == a.size() && f.j == b2.size()) {
      all.push_back(current);
      stack.pop_back();
      if (!current.empty()) current.pop_back();
      continue;
    }
    if (f.branch == 0) {
      f.branch = 1;
      if (f.i < a.size()) {
        current.push_back(a[f.i]);
        stack.push_back({f.i + 1, f.j, 0});
        continue;
      }
    }
    if (f.branch == 1) {
      f.branch = 2;
      if (f.j < b2.size()) {
        current.push_back(b2[f.j]);
        stack.push_back({f.i, f.j + 1, 0});
        continue;
      }
    }
    stack.pop_back();
    if (!current.empty()) current.pop_back();
  }

  std::vector<std::vector<std::string>> out;
  if (all.size() <= options_.max_interleavings) {
    out = std::move(all);
  } else {
    const size_t stride = all.size() / options_.max_interleavings + 1;
    for (size_t i = 0; i < all.size(); i += stride) {
      out.push_back(std::move(all[i]));
    }
  }
  return out;
}

std::vector<std::string> ClusteredIndexDesigner::ApplyAttributeDrop(
    const std::vector<std::string>& key, const MvSpec& proto,
    const UniverseStats& stats) const {
  const DiskParams& disk = stats.options().disk;
  const double pages = static_cast<double>(MvHeapPages(proto, stats, disk));
  std::vector<std::string> out;
  std::vector<int> prefix_cols;
  for (const auto& attr : key) {
    if (out.size() >= options_.max_key_attrs) break;
    out.push_back(attr);
    prefix_cols.push_back(stats.universe().ColumnIndex(attr));
    // Once the prefix distinguishes more values than there are pages, every
    // deeper attribute is sub-page noise (§4.2's drop rule).
    if (stats.CompositeDistinct(prefix_cols) >= pages) break;
  }
  return out;
}

double ClusteredIndexDesigner::GroupCost(const Workload& workload,
                                         const QueryGroup& group,
                                         const MvSpec& spec) const {
  return model_->GroupSeconds(workload, group, spec);
}

std::map<double, std::vector<std::string>> ClusteredIndexDesigner::ScoreTrials(
    const Workload& workload, const QueryGroup& group, const MvSpec& proto,
    const std::vector<std::vector<std::string>>& trials) const {
  std::map<double, std::vector<std::string>> scored;
  if (trials.empty()) return scored;
  TRACE_SPAN("candgen.price_trials",
             {{"trials", static_cast<int64_t>(trials.size())}});
  ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : ThreadPool::Shared();

  // Price the whole merge level concurrently; each task writes only its own
  // slot, and GroupCost is a pure function of (trial, model state) whose
  // memo layer is insertion-order independent.
  std::vector<double> cost(trials.size(), 0.0);
  pool.ParallelFor(trials.size(), [&](size_t i) {
    MvSpec trial = proto;
    trial.clustered_key = trials[i];
    cost[i] = GroupCost(workload, group, trial);
  });

  // Merge in enumeration order: equal-cost ties keep the first-enumerated
  // key, exactly as the legacy serial loop did.
  for (size_t i = 0; i < trials.size(); ++i) scored.emplace(cost[i], trials[i]);
  trials_priced_.fetch_add(trials.size(), std::memory_order_relaxed);
  static obs::Counter& reg_priced =
      *obs::MetricsRegistry::Global().GetCounter("candgen.trials_priced");
  reg_priced.Add(trials.size());
  return scored;
}

std::vector<MvSpec> ClusteredIndexDesigner::DesignGroup(
    const Workload& workload, const QueryGroup& group,
    const std::string& fact_table, int t_override) const {
  CORADD_CHECK(!group.empty());
  TRACE_SPAN("candgen.group_design",
             {{"queries", static_cast<int64_t>(group.size())}});
  const int t = t_override > 0 ? t_override : options_.t;
  const size_t keep = static_cast<size_t>(std::max(1, t));
  const UniverseStats* stats = registry_->ForFact(fact_table);
  CORADD_CHECK(stats != nullptr);

  MvSpec proto;
  proto.fact_table = fact_table;
  proto.columns = GroupColumns(workload, group);
  proto.query_group = group;

  // Candidate clusterings, iteratively merged one dedicated key at a time.
  std::vector<std::vector<std::string>> candidates;
  candidates.push_back(ApplyAttributeDrop(
      DedicatedKey(workload.queries[static_cast<size_t>(group[0])], *stats),
      proto, *stats));

  for (size_t gi = 1; gi < group.size(); ++gi) {
    const std::vector<std::string> dedicated = DedicatedKey(
        workload.queries[static_cast<size_t>(group[gi])], *stats);
    // Enumerate this merge level's trials in a fixed order, then price.
    // Interleavings whose attribute-drop truncation collapses onto an
    // already-enumerated key are dominated (identical clustering, identical
    // cost) and are dropped before pricing.
    std::vector<std::vector<std::string>> trials;
    std::set<std::vector<std::string>> seen;
    uint64_t dominated = 0;
    for (const auto& base : candidates) {
      for (auto& merged : Interleavings(base, dedicated)) {
        std::vector<std::string> key =
            ApplyAttributeDrop(merged, proto, *stats);
        if (seen.insert(key).second) {
          trials.push_back(std::move(key));
        } else {
          ++dominated;
        }
      }
    }
    trials_pruned_.fetch_add(dominated, std::memory_order_relaxed);
    static obs::Counter& reg_pruned =
        *obs::MetricsRegistry::Global().GetCounter("candgen.trials_pruned");
    reg_pruned.Add(dominated);
    const std::map<double, std::vector<std::string>> scored =
        ScoreTrials(workload, group, proto, trials);
    candidates.clear();
    for (const auto& [cost, key] : scored) {
      candidates.push_back(key);
      if (candidates.size() >= keep) break;
    }
    CORADD_CHECK(!candidates.empty());
  }

  // Rank final candidates and emit up to t specs (all survivors of the last
  // merge were fully priced, so this re-ranking is pure memo hits).
  std::map<double, std::vector<std::string>> final_scored;
  for (const auto& key : candidates) {
    MvSpec trial = proto;
    trial.clustered_key = key;
    final_scored.emplace(GroupCost(workload, group, trial), key);
  }
  std::vector<MvSpec> out;
  int rank = 0;
  for (const auto& [cost, key] : final_scored) {
    if (rank >= t) break;
    MvSpec spec = proto;
    spec.clustered_key = key;
    std::string gid;
    for (int qi : group) gid += StrFormat("%d_", qi);
    spec.name = StrFormat("mv_%s_g%sc%d", fact_table.c_str(), gid.c_str(), rank);
    out.push_back(std::move(spec));
    ++rank;
  }
  return out;
}

}  // namespace coradd
