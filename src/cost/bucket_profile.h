// The correlation cost model's AE input kernel: the frequency profile of
// the heap buckets a secondary path's matched synopsis rows land in.
//
// Matched row i sits at clustered-key rank rank_of_row[i]; scaled to the
// MV's bucket count its bucket is floor(rank * scale). AE needs how many
// distinct buckets were observed, how many exactly once (f1) and exactly
// twice (f2), and the span model needs the first and last touched bucket.
// The kernel counts observations into reusable per-thread scratch indexed
// relative to the first bucket and reads distinct/f1/f2 straight off the
// counts: linear in the match count, no sort, no allocation per call once
// the scratch has grown. When the touched band is much wider than the
// match count (huge bucket counts), it falls back to sorting the
// observations, so its cost never exceeds a comparison sort.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/ae_estimator.h"

namespace coradd {

/// Profile of the bucket observations plus the touched band.
struct BucketProfile {
  SampleFrequencyProfile profile;
  int64_t first_bucket = 0;  ///< Smallest observed bucket.
  int64_t last_bucket = 0;   ///< Largest observed bucket.
};

/// Bucket of a row at clustered-key rank `rank` when `scale` =
/// buckets / synopsis rows.
inline int64_t BucketOfRank(uint32_t rank, double scale) {
  return static_cast<int64_t>(static_cast<double>(rank) * scale);
}

/// Profiles the buckets BucketOfRank(rank_of_row[r], scale) of every r in
/// `rows` (non-empty). Equal, integer for integer, to building the
/// observation vector, sorting it and calling
/// SampleFrequencyProfile::FromSortedValues(obs, total_rows), with the band
/// read off its first and last element.
BucketProfile ProfileBuckets(const std::vector<uint32_t>& rank_of_row,
                             const std::vector<uint32_t>& rows, double scale,
                             uint64_t total_rows);

}  // namespace coradd
