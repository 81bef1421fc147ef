#include "mv/kmeans.h"

#include <algorithm>
#include <limits>

#include "common/status.h"

namespace coradd {

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

KMeansResult KMeans(const std::vector<std::vector<double>>& points, int k,
                    Rng* rng, int max_iterations) {
  CORADD_CHECK(!points.empty());
  CORADD_CHECK(k >= 1 && static_cast<size_t>(k) <= points.size());
  CORADD_CHECK(rng != nullptr);
  const size_t n = points.size();
  const size_t dim = points[0].size();

  // --- k-means++ seeding: first center uniform, then proportional to the
  // squared distance to the nearest chosen center.
  std::vector<std::vector<double>> centers;
  centers.reserve(static_cast<size_t>(k));
  centers.push_back(points[rng->Uniform(n)]);
  // d2[i] = squared distance from point i to its nearest chosen center,
  // folded in one new center per round (min is exact, so this equals the
  // minimum over all centers recomputed from scratch).
  std::vector<double> d2(n, std::numeric_limits<double>::max());
  while (centers.size() < static_cast<size_t>(k)) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      d2[i] = std::min(d2[i], SquaredDistance(points[i], centers.back()));
      total += d2[i];
    }
    size_t chosen = 0;
    if (total <= 0.0) {
      chosen = rng->Uniform(n);  // all points coincide with centers
    } else {
      double target = rng->UniformDouble() * total;
      for (size_t i = 0; i < n; ++i) {
        target -= d2[i];
        if (target <= 0.0) {
          chosen = i;
          break;
        }
      }
    }
    centers.push_back(points[chosen]);
  }

  // --- Lloyd iterations.
  KMeansResult result;
  result.cluster_of.assign(n, 0);
  for (int iter = 0; iter < max_iterations; ++iter) {
    bool moved = false;
    // Assign.
    for (size_t i = 0; i < n; ++i) {
      int best = 0;
      double best_d = std::numeric_limits<double>::max();
      for (int c = 0; c < k; ++c) {
        const double d = SquaredDistance(points[i], centers[static_cast<size_t>(c)]);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      if (best != result.cluster_of[i]) {
        result.cluster_of[i] = best;
        moved = true;
      }
    }
    result.iterations = iter + 1;
    // Update.
    std::vector<std::vector<double>> sums(
        static_cast<size_t>(k), std::vector<double>(dim, 0.0));
    std::vector<int> counts(static_cast<size_t>(k), 0);
    for (size_t i = 0; i < n; ++i) {
      const auto c = static_cast<size_t>(result.cluster_of[i]);
      ++counts[c];
      for (size_t d = 0; d < dim; ++d) sums[c][d] += points[i][d];
    }
    for (int c = 0; c < k; ++c) {
      const auto uc = static_cast<size_t>(c);
      if (counts[uc] == 0) continue;  // empty cluster keeps its center
      for (size_t d = 0; d < dim; ++d) {
        centers[uc][d] = sums[uc][d] / counts[uc];
      }
    }
    if (!moved && iter > 0) break;
  }

  result.inertia = 0.0;
  for (size_t i = 0; i < n; ++i) {
    result.inertia += SquaredDistance(
        points[i], centers[static_cast<size_t>(result.cluster_of[i])]);
  }
  return result;
}

}  // namespace coradd
