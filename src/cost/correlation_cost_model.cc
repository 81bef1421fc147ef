#include "cost/correlation_cost_model.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/hash.h"
#include "common/string_util.h"
#include "cost/bucket_profile.h"
#include "stats/ae_estimator.h"

namespace coradd {

namespace {

/// (query, clustered key, heap pages): everything a query's best path
/// depends on within one universe.
struct BestKey {
  uint32_t query;
  uint32_t key;
  uint64_t pages;
  bool operator==(const BestKey&) const = default;
};
struct BestKeyHash {
  size_t operator()(const BestKey& k) const {
    return static_cast<size_t>(HashCombine(
        HashCombine(HashU64(k.pages), k.key), k.query));
  }
};

/// BestKey plus the secondary structure's interned column list.
struct SecondaryKey {
  uint32_t query;
  uint32_t subset;
  uint32_t key;
  uint64_t pages;
  bool operator==(const SecondaryKey&) const = default;
};
struct SecondaryKeyHash {
  size_t operator()(const SecondaryKey& k) const {
    return static_cast<size_t>(HashCombine(
        HashCombine(HashCombine(HashU64(k.pages), k.key), k.subset),
        k.query));
  }
};

struct U64Hash {
  size_t operator()(uint64_t x) const { return static_cast<size_t>(HashU64(x)); }
};

}  // namespace

struct CorrelationCostModel::KeyEntry {
  uint32_t id = 0;
  /// rank_of_row[i] = position of synopsis row i in clustered-key order.
  std::vector<uint32_t> rank_of_row;
};

struct CorrelationCostModel::MatchedEntry {
  std::vector<uint32_t> rows;  ///< Matching synopsis rows, ascending.
  double matched_full = 1.0;   ///< Estimated matching rows in the table.
};

struct CorrelationCostModel::QueryEntry {
  uint32_t id = 0;
  struct Subset {
    std::vector<std::string> cols;
    uint32_t id = 0;
    const MatchedEntry* matched = nullptr;
  };
  /// SecondarySubsets(q), interned and with their matched rows.
  std::vector<Subset> subsets;
};

struct CorrelationCostModel::UniverseMemo {
  explicit UniverseMemo(const UniverseStats* s)
      : stats(s), orders(&s->synopsis()) {}

  const UniverseStats* stats;
  ColumnOrderCache orders;
  std::atomic<uint32_t> next_query{0};
  std::atomic<uint32_t> next_key{0};
  std::atomic<uint32_t> next_subset{0};
  ShardedMemo<std::string, QueryEntry> queries;
  /// Clustered key (universe column ids, key order) -> id and ranks.
  ShardedMemo<std::vector<int>, KeyEntry, IntVectorHash> keys;
  ShardedMemo<std::vector<std::string>, uint32_t, StringVectorHash> subsets;
  /// (query id << 32 | subset id) -> matched rows.
  ShardedMemo<uint64_t, MatchedEntry, U64Hash> matched;
  ShardedMemo<BestKey, CostBreakdown, BestKeyHash> best;
  ShardedMemo<SecondaryKey, CostBreakdown, SecondaryKeyHash> secondary;
  UniverseMemo* next = nullptr;
};

CorrelationCostModel::CorrelationCostModel(const StatsRegistry* registry,
                                           CorrelationCostModelOptions options)
    : registry_(registry), options_(options) {
  CORADD_CHECK(registry != nullptr);
}

CorrelationCostModel::~CorrelationCostModel() {
  UniverseMemo* u = universes_.load(std::memory_order_acquire);
  while (u != nullptr) {
    UniverseMemo* next = u->next;
    delete u;
    u = next;
  }
}

std::string CorrelationCostModel::CacheId() const {
  return StrFormat("correlation-aware(b=%u,s=%zu)", options_.bucket_pages,
                   options_.max_subset_size);
}

size_t CorrelationCostModel::secondary_memo_entries() const {
  size_t n = 0;
  for (UniverseMemo* u = universes_.load(std::memory_order_acquire);
       u != nullptr; u = u->next) {
    n += u->secondary.size();
  }
  return n;
}

CorrelationCostModel::UniverseMemo& CorrelationCostModel::UniverseFor(
    const UniverseStats& stats) const {
  UniverseMemo* head = universes_.load(std::memory_order_acquire);
  for (UniverseMemo* u = head; u != nullptr; u = u->next) {
    if (u->stats == &stats) return *u;
  }
  auto fresh = std::make_unique<UniverseMemo>(&stats);
  for (;;) {
    fresh->next = head;
    if (universes_.compare_exchange_weak(head, fresh.get(),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      return *fresh.release();
    }
    // Someone pushed meanwhile: only the nodes above our old head are new.
    for (UniverseMemo* u = head; u != fresh->next; u = u->next) {
      if (u->stats == &stats) return *u;
    }
  }
}

CorrelationCostModel::ResolvedSpec CorrelationCostModel::Resolve(
    const MvSpec& spec, const UniverseStats& stats) const {
  ResolvedSpec rs;
  rs.spec = &spec;
  rs.u = &UniverseFor(stats);
  const DiskParams& disk = stats.options().disk;
  rs.pages = MvHeapPages(spec, stats, disk);
  rs.height = MvBTreeHeight(spec, stats, disk);
  std::vector<int> key_cols;
  key_cols.reserve(spec.clustered_key.size());
  for (const auto& c : spec.clustered_key) {
    key_cols.push_back(stats.universe().ColumnIndex(c));
  }
  UniverseMemo& u = *rs.u;
  rs.key = &u.keys.GetOrCompute(key_cols, [&] {
    KeyEntry entry;
    entry.id = u.next_key.fetch_add(1, std::memory_order_relaxed);
    entry.rank_of_row = u.orders.ComposeRanks(key_cols);
    return entry;
  });
  return rs;
}

uint32_t CorrelationCostModel::SubsetId(
    UniverseMemo& u, const std::vector<std::string>& secondary_cols) const {
  return u.subsets.GetOrCompute(secondary_cols, [&] {
    return u.next_subset.fetch_add(1, std::memory_order_relaxed);
  });
}

const CorrelationCostModel::QueryEntry& CorrelationCostModel::QueryFor(
    UniverseMemo& u, const Query& q) const {
  return u.queries.GetOrCompute(q.id, [&] {
    QueryEntry entry;
    entry.id = u.next_query.fetch_add(1, std::memory_order_relaxed);
    for (auto& cols : SecondarySubsets(q)) {
      QueryEntry::Subset sub;
      sub.id = SubsetId(u, cols);
      sub.matched = &Matched(u, q, entry.id, sub.id, cols);
      sub.cols = std::move(cols);
      entry.subsets.push_back(std::move(sub));
    }
    return entry;
  });
}

const CorrelationCostModel::MatchedEntry& CorrelationCostModel::Matched(
    UniverseMemo& u, const Query& q, uint32_t query_id, uint32_t subset_id,
    const std::vector<std::string>& cols) const {
  const uint64_t key = (static_cast<uint64_t>(query_id) << 32) | subset_id;
  return u.matched.GetOrCompute(key, [&] {
    const UniverseStats& stats = *u.stats;
    const Synopsis& syn = stats.synopsis();
    std::vector<const Predicate*> preds;
    std::vector<int> ucols;
    // Selectivity of the predicates the CM/index covers.
    double sel_cols = 1.0;
    for (const auto& p : q.predicates) {
      if (std::find(cols.begin(), cols.end(), p.column) == cols.end()) {
        continue;
      }
      preds.push_back(&p);
      ucols.push_back(stats.universe().ColumnIndex(p.column));
      sel_cols *= EstimateSelectivity(p, stats);
    }

    MatchedEntry entry;
    entry.matched_full =
        std::max(1.0, sel_cols * static_cast<double>(stats.num_rows()));
    const size_t n = syn.sample_rows();
    for (size_t i = 0; i < n; ++i) {
      bool ok = true;
      for (size_t j = 0; j < preds.size(); ++j) {
        if (!preds[j]->Matches(syn.Values(ucols[j])[i])) {
          ok = false;
          break;
        }
      }
      if (ok) entry.rows.push_back(static_cast<uint32_t>(i));
    }
    return entry;
  });
}

CostBreakdown CorrelationCostModel::FullScanPath(const ResolvedSpec& rs) const {
  const DiskParams& disk = rs.u->stats->options().disk;
  CostBreakdown out;
  out.path = AccessPath::kFullScan;
  out.selectivity = 1.0;
  out.fragments = 1.0;
  out.read_seconds = static_cast<double>(rs.pages) * disk.PageReadSeconds();
  out.seek_seconds = disk.seek_seconds;
  out.seconds = out.read_seconds + out.seek_seconds;
  return out;
}

CostBreakdown CorrelationCostModel::ClusteredPath(const Query& q,
                                                  const ResolvedSpec& rs) const {
  CostBreakdown out;
  const ClusteredPrefixPlan plan =
      AnalyzeClusteredPrefix(q, rs.spec->clustered_key, *rs.u->stats);
  if (!plan.usable()) return out;  // infeasible

  const DiskParams& disk = rs.u->stats->options().disk;
  const double pages = static_cast<double>(rs.pages);
  const double pages_read =
      std::min(pages, std::max(plan.selectivity * pages, plan.num_ranges));

  out.path = AccessPath::kClusteredScan;
  out.selectivity = plan.selectivity;
  out.fragments = std::min(plan.num_ranges, pages_read);
  out.read_seconds = pages_read * disk.PageReadSeconds();
  out.seek_seconds = disk.seek_seconds * out.fragments * rs.height;
  out.seconds = out.read_seconds + out.seek_seconds;
  return out;
}

CostBreakdown CorrelationCostModel::SecondaryPath(
    const ResolvedSpec& rs, const MatchedEntry& matched_entry) const {
  CostBreakdown out;
  if (rs.spec->clustered_key.empty()) return out;  // infeasible

  const UniverseStats& stats = *rs.u->stats;
  const DiskParams& disk = stats.options().disk;
  const double pages = static_cast<double>(rs.pages);
  const double num_buckets =
      std::max(1.0, pages / static_cast<double>(options_.bucket_pages));
  const double matched_full = matched_entry.matched_full;
  const std::vector<uint32_t>& matched = matched_entry.rows;
  const size_t n = stats.synopsis().sample_rows();

  double est_buckets;
  double occupancy;  // Fraction of the touched band that is actually read.
  if (matched.size() < 4 || n == 0) {
    // No or too few sampled matches to read anything from their positions
    // (a lucky pair of nearby rows would fake a strong correlation): fall
    // back to the uncorrelated assumption — each matching tuple lands in
    // its own bucket until buckets saturate.
    est_buckets = std::min(num_buckets, matched_full);
    occupancy = est_buckets / num_buckets;
  } else {
    // Two estimators for the number of distinct buckets the full matched
    // population touches, good in complementary regimes:
    //  * AE over the sampled bucket frequencies (A-2.2's estimator) —
    //    accurate when the sample covers the touched region densely;
    //  * a span-occupancy model — the sampled ranks bound the touched band
    //    [first,last]; throwing matched_full rows uniformly into its `span`
    //    buckets touches span*(1-e^-lambda) of them. Accurate when the
    //    sample is sparse (highly selective predicates).
    // Both under-estimate outside their regime, so take the max.
    const BucketProfile bp =
        ProfileBuckets(rs.key->rank_of_row, matched,
                       num_buckets / static_cast<double>(n),
                       static_cast<uint64_t>(matched_full));
    const double d_ae = EstimateDistinctAe(bp.profile);
    const double span = static_cast<double>(bp.last_bucket) -
                        static_cast<double>(bp.first_bucket) + 1.0;
    const double lambda = matched_full / span;
    const double d_span = span * (1.0 - std::exp(-lambda));
    est_buckets = std::min(num_buckets, std::max(d_ae, d_span));
    occupancy = std::min(1.0, est_buckets / span);
  }

  // Touched buckets coalesce into fragments where they are contiguous: at
  // occupancy ~1 the band is one sequential sweep; at low occupancy every
  // bucket is its own fragment.
  const double fragments =
      std::max(1.0, est_buckets * (1.0 - occupancy) + 1.0);
  const double pages_read = std::min(
      pages, est_buckets * static_cast<double>(options_.bucket_pages));

  out.path = AccessPath::kSecondary;
  out.selectivity = pages_read / std::max(1.0, pages);
  out.fragments = fragments;
  out.read_seconds = pages_read * disk.PageReadSeconds();
  out.seek_seconds = disk.seek_seconds * fragments * rs.height;
  out.seconds = out.read_seconds + out.seek_seconds;
  return out;
}

CostBreakdown CorrelationCostModel::SecondaryPathCost(
    const Query& q, const MvSpec& spec,
    const std::vector<std::string>& secondary_cols) const {
  const UniverseStats* stats = registry_->ForFact(spec.fact_table);
  CORADD_CHECK(stats != nullptr);
  const ResolvedSpec rs = Resolve(spec, *stats);
  UniverseMemo& u = *rs.u;
  const uint32_t query_id = QueryFor(u, q).id;
  const uint32_t subset_id = SubsetId(u, secondary_cols);
  const SecondaryKey memo_key{query_id, subset_id, rs.key->id, rs.pages};
  return u.secondary.GetOrCompute(memo_key, [&] {
    CostBreakdown out;
    if (!secondary_cols.empty()) {
      out = SecondaryPath(rs,
                          Matched(u, q, query_id, subset_id, secondary_cols));
      if (out.feasible()) out.secondary_columns = secondary_cols;
    }
    return out;
  });
}

std::vector<std::vector<std::string>> CorrelationCostModel::SecondarySubsets(
    const Query& q) const {
  // Singletons, pairs (bounded), and the full set.
  const auto pred_cols = q.PredicateColumns();
  std::vector<std::vector<std::string>> subsets;
  for (const auto& c : pred_cols) subsets.push_back({c});
  if (options_.max_subset_size >= 2 && pred_cols.size() <= 5) {
    for (size_t i = 0; i < pred_cols.size(); ++i) {
      for (size_t j = i + 1; j < pred_cols.size(); ++j) {
        subsets.push_back({pred_cols[i], pred_cols[j]});
      }
    }
  }
  if (pred_cols.size() > 2) subsets.push_back(pred_cols);
  return subsets;
}

const CostBreakdown& CorrelationCostModel::Best(const Query& q,
                                                const ResolvedSpec& rs) const {
  const QueryEntry& qe = QueryFor(*rs.u, q);
  const BestKey memo_key{qe.id, rs.key->id, rs.pages};
  return rs.u->best.GetOrCompute(memo_key, [&] {
    CostBreakdown best = FullScanPath(rs);
    const CostBreakdown clustered = ClusteredPath(q, rs);
    if (clustered.feasible() && clustered.seconds < best.seconds) {
      best = clustered;
    }
    // Secondary paths are priced straight into the comparison: this memo
    // entry already covers their inputs, so storing them would only add
    // entries nothing reads.
    const std::vector<std::string>* best_cols = nullptr;
    for (const auto& sub : qe.subsets) {
      CostBreakdown sec = SecondaryPath(rs, *sub.matched);
      if (sec.feasible() && sec.seconds < best.seconds) {
        best = std::move(sec);
        best_cols = &sub.cols;
      }
    }
    if (best_cols != nullptr) best.secondary_columns = *best_cols;
    return best;
  });
}

CostBreakdown CorrelationCostModel::Cost(const Query& q,
                                         const MvSpec& spec) const {
  const UniverseStats* stats = registry_->ForFact(spec.fact_table);
  if (stats == nullptr || !MvCanServe(q, spec)) return CostBreakdown{};
  return Best(q, Resolve(spec, *stats));
}

double CorrelationCostModel::GroupSeconds(const Workload& workload,
                                          const std::vector<int>& query_indices,
                                          const MvSpec& spec) const {
  const UniverseStats* stats = registry_->ForFact(spec.fact_table);
  ResolvedSpec rs;  // resolved on the first query the spec can serve
  double total = 0.0;
  for (int qi : query_indices) {
    const Query& q = workload.queries[static_cast<size_t>(qi)];
    double seconds = kInfeasibleCost;
    if (stats != nullptr && MvCanServe(q, spec)) {
      if (rs.u == nullptr) rs = Resolve(spec, *stats);
      seconds = Best(q, rs).seconds;
    }
    total += seconds * q.frequency;
  }
  return total;
}

}  // namespace coradd
