#include "mv/query_grouping.h"

#include <algorithm>

#include "mv/kmeans.h"

namespace coradd {

QueryGrouper::QueryGrouper(const UniverseStats* stats,
                           QueryGroupingOptions options, ThreadPool* pool)
    : stats_(stats), options_(std::move(options)), pool_(pool) {
  CORADD_CHECK(stats != nullptr);
}

std::vector<QueryGroup> QueryGrouper::Groups(
    const Workload& workload,
    const std::vector<int>& fact_query_indices) const {
  std::set<QueryGroup> unique;
  const size_t n = fact_query_indices.size();
  if (n == 0) return {};

  // Propagated vectors are computed once; extension varies with alpha.
  // Each query's vector is independent (its correlation-strength lookups
  // are memoized pure estimates), so they fill their own slots in parallel.
  SelectivityVectorBuilder builder(stats_);
  std::vector<std::vector<double>> propagated(n);
  ThreadPool& pool = pool_ != nullptr ? *pool_ : ThreadPool::Shared();
  pool.ParallelFor(n, [&](size_t i) {
    propagated[i] = builder.Propagated(
        workload.queries[static_cast<size_t>(fact_query_indices[i])]);
  });

  // Singletons and the all-queries group are always candidates (dedicated
  // MVs and the maximal shared MV).
  for (int qi : fact_query_indices) unique.insert(QueryGroup{qi});
  {
    QueryGroup all(fact_query_indices.begin(), fact_query_indices.end());
    std::sort(all.begin(), all.end());
    unique.insert(std::move(all));
  }

  Rng rng(options_.seed);
  for (double alpha : options_.alphas) {
    std::vector<std::vector<double>> points;
    points.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      points.push_back(ExtendWithTargets(
          propagated[i],
          workload.queries[static_cast<size_t>(fact_query_indices[i])],
          *stats_, alpha));
    }
    for (int k = 1; k <= static_cast<int>(n); ++k) {
      KMeansResult best;
      best.inertia = -1.0;
      for (int r = 0; r < std::max(1, options_.restarts); ++r) {
        KMeansResult res = KMeans(points, k, &rng);
        if (best.inertia < 0.0 || res.inertia < best.inertia) {
          best = std::move(res);
        }
      }
      std::vector<QueryGroup> groups(static_cast<size_t>(k));
      for (size_t i = 0; i < n; ++i) {
        groups[static_cast<size_t>(best.cluster_of[i])].push_back(
            fact_query_indices[i]);
      }
      for (auto& g : groups) {
        if (g.empty()) continue;
        std::sort(g.begin(), g.end());
        unique.insert(std::move(g));
      }
    }
  }
  return std::vector<QueryGroup>(unique.begin(), unique.end());
}

}  // namespace coradd
