#include "stats/correlation.h"

#include <algorithm>
#include <functional>

#include "common/status.h"

namespace coradd {

CorrelationCatalog::CorrelationCatalog(const Universe* universe,
                                       const Synopsis* synopsis, bool exact)
    : universe_(universe), synopsis_(synopsis), exact_(exact) {
  CORADD_CHECK(universe_ != nullptr);
  CORADD_CHECK(synopsis_ != nullptr);
}

double CorrelationCatalog::Distinct(const std::vector<int>& ucols) const {
  CORADD_CHECK(!ucols.empty());
  // Most callers already pass a sorted, duplicate-free set (NormalizedUnion's
  // output, single columns); only normalize a copy when they do not.
  const bool normalized =
      std::adjacent_find(ucols.begin(), ucols.end(),
                         std::greater_equal<int>()) == ucols.end();
  std::vector<int> sorted;
  if (!normalized) {
    sorted = ucols;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  }
  const std::vector<int>& key = normalized ? ucols : sorted;

  return distinct_cache_.GetOrCompute(key, [&] {
    double est;
    if (exact_) {
      est = static_cast<double>(universe_->DistinctCountComposite(key));
    } else {
      const auto hashes = synopsis_->CompositeHashes(key);
      const auto profile =
          SampleFrequencyProfile::FromHashes(hashes, synopsis_->total_rows());
      est = EstimateDistinctAe(profile);
    }
    return est < 1.0 ? 1.0 : est;
  });
}

std::vector<int> CorrelationCatalog::NormalizedUnion(
    const std::vector<int>& a, const std::vector<int>& b) const {
  std::vector<int> u = a;
  u.insert(u.end(), b.begin(), b.end());
  std::sort(u.begin(), u.end());
  u.erase(std::unique(u.begin(), u.end()), u.end());
  return u;
}

void CorrelationCatalog::SetMinedDependencies(
    const DiscoveredDependencies* mined, std::vector<int> mined_col_of_ucol,
    CorrelationSource source) {
  CORADD_CHECK(mined == nullptr ||
               mined_col_of_ucol.size() == universe_->NumColumns());
  mined_ = mined;
  mined_col_of_ucol_ = std::move(mined_col_of_ucol);
  source_ = mined == nullptr ? CorrelationSource::kSynopsis : source;
}

double CorrelationCatalog::MinedStrength(const std::vector<int>& from,
                                         const std::vector<int>& to) const {
  if (mined_ == nullptr) return -1.0;
  std::vector<int> mfrom, mto;
  mfrom.reserve(from.size());
  mto.reserve(to.size());
  for (int u : from) {
    const int mc = mined_col_of_ucol_[static_cast<size_t>(u)];
    if (mc < 0) return -1.0;
    mfrom.push_back(mc);
  }
  for (int u : to) {
    const int mc = mined_col_of_ucol_[static_cast<size_t>(u)];
    if (mc < 0) return -1.0;
    mto.push_back(mc);
  }
  return mined_->StrengthFor(mfrom, mto);
}

double CorrelationCatalog::Strength(const std::vector<int>& from,
                                    const std::vector<int>& to) const {
  if (mined_ != nullptr && source_ != CorrelationSource::kSynopsis) {
    const double s = MinedStrength(from, to);
    if (s >= 0.0) return s;
    if (source_ == CorrelationSource::kMinedOnly) return 0.0;
  }
  const double d_from = Distinct(from);
  const double d_joint = Distinct(NormalizedUnion(from, to));
  // Exact counts satisfy d_from <= d_joint; estimates may not, so clamp.
  return std::min(1.0, d_from / d_joint);
}

}  // namespace coradd
