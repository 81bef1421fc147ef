// Correlation-strength measurement (§4.1.1). CORADD adopts the CORDS
// measure: for attribute sets C1, C2,
//     strength(C1 -> C2) = |C1| / |C1 C2|
// where |C1| is the number of distinct values of C1 and |C1 C2| the number
// of distinct joint values. A value near 1 means C1 (soft-)functionally
// determines C2. Distinct counts are estimated with AE over the synopsis
// (or computed exactly when the catalog is built in exact mode for tests).
//
// A DiscoveredDependencies report from the mining subsystem can be installed
// as an alternative strength source: mined exact FDs answer 1.0, mined AFDs
// and pairwise distinct ratios answer from the mined lattice, and sets the
// lattice never visited either fall back to AE (kMinedFirst) or report no
// correlation (kMinedOnly).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/universe.h"
#include "common/sharded_memo.h"
#include "discovery/dependencies.h"
#include "stats/ae_estimator.h"
#include "stats/synopsis.h"

namespace coradd {

/// Where Strength() answers come from once mined dependencies are installed.
enum class CorrelationSource {
  kSynopsis,    ///< AE over the synopsis only (the seeded default).
  kMinedFirst,  ///< Mined evidence when available; AE fallback (cross-check).
  kMinedOnly,   ///< Mined evidence only; unknown sets report strength 0.
};

/// Caches distinct-count estimates and correlation strengths for attribute
/// sets of one universe.
class CorrelationCatalog {
 public:
  /// `universe` and `synopsis` must outlive the catalog. If `exact` is true,
  /// distinct counts are computed by full scans (tests / tiny data).
  CorrelationCatalog(const Universe* universe, const Synopsis* synopsis,
                     bool exact = false);

  /// Installs `mined` (which must outlive the catalog) as the strength
  /// source. `mined_col_of_ucol[ucol]` maps universe columns onto the mined
  /// report's column indexes (-1 where the report lacks the column).
  void SetMinedDependencies(const DiscoveredDependencies* mined,
                            std::vector<int> mined_col_of_ucol,
                            CorrelationSource source);

  const DiscoveredDependencies* mined() const { return mined_; }
  CorrelationSource source() const { return source_; }

  /// Mined strength of from -> to, or negative when no report is installed,
  /// the mined lattice has no evidence, or a column does not map. Never
  /// falls back to the synopsis — use Strength() for the policy-driven view.
  double MinedStrength(const std::vector<int>& from,
                       const std::vector<int>& to) const;

  /// Estimated number of distinct joint values of `ucols` in the full data.
  double Distinct(const std::vector<int>& ucols) const;

  /// strength(from -> to) in (0, 1]: |from| / |from ∪ to|.
  double Strength(const std::vector<int>& from,
                  const std::vector<int>& to) const;

  /// Convenience single-attribute strength.
  double Strength(int from, int to) const {
    return Strength(std::vector<int>{from}, std::vector<int>{to});
  }

  bool exact() const { return exact_; }

 private:
  std::vector<int> NormalizedUnion(const std::vector<int>& a,
                                   const std::vector<int>& b) const;

  const Universe* universe_;
  const Synopsis* synopsis_;
  bool exact_;
  const DiscoveredDependencies* mined_ = nullptr;
  std::vector<int> mined_col_of_ucol_;
  CorrelationSource source_ = CorrelationSource::kSynopsis;
  /// Distinct estimates by sorted column set. Candidate generation, query
  /// grouping and the parallel evaluator query it from many threads, often
  /// for the same set at once; each estimate is computed once.
  mutable ShardedMemo<std::vector<int>, double, IntVectorHash> distinct_cache_;
};

}  // namespace coradd
