#include "cost/bucket_profile.h"

#include <algorithm>

#include "common/status.h"

namespace coradd {

BucketProfile ProfileBuckets(const std::vector<uint32_t>& rank_of_row,
                             const std::vector<uint32_t>& rows, double scale,
                             uint64_t total_rows) {
  CORADD_CHECK(!rows.empty());
  const size_t m = rows.size();
  // Pass 1: every observation's bucket into per-thread scratch, plus the
  // band ends.
  thread_local std::vector<int64_t> obs;
  obs.resize(m);
  int64_t lo = BucketOfRank(rank_of_row[rows[0]], scale);
  int64_t hi = lo;
  for (size_t k = 0; k < m; ++k) {
    const int64_t b = BucketOfRank(rank_of_row[rows[k]], scale);
    obs[k] = b;
    lo = std::min(lo, b);
    hi = std::max(hi, b);
  }
  BucketProfile out;
  out.first_bucket = lo;
  out.last_bucket = hi;
  SampleFrequencyProfile& p = out.profile;
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;

  if (span > 4 * static_cast<uint64_t>(m) + 1024) {
    // Sparse band: counting would touch more memory than sorting the m
    // observations costs.
    std::sort(obs.begin(), obs.end());
    p = SampleFrequencyProfile::FromSortedValues(obs, total_rows);
    return out;
  }

  // Pass 2: count per bucket, relative to the band start. The scratch
  // stays all-zero between calls: pass 3 clears every count it reads.
  thread_local std::vector<uint32_t> counts;
  if (counts.size() < span) counts.resize(span, 0);
  uint32_t* count_of = counts.data();
  for (int64_t b : obs) ++count_of[b - lo];

  // Pass 3: distinct/f1/f2 off the counts, branch-free. A narrow band is
  // swept bucket by bucket; a wide one is visited through the observations,
  // where clearing a count on its first visit keeps a bucket from being
  // counted twice.
  uint64_t distinct = 0, f1 = 0, f2 = 0;
  const auto harvest = [&](size_t i) {
    const uint32_t c = count_of[i];
    distinct += (c != 0);
    f1 += (c == 1);
    f2 += (c == 2);
    count_of[i] = 0;
  };
  if (span <= m) {
    for (size_t i = 0; i < span; ++i) harvest(i);
  } else {
    for (int64_t b : obs) harvest(static_cast<size_t>(b - lo));
  }
  p.sample_rows = m;
  p.total_rows = total_rows;
  p.distinct_in_sample = distinct;
  p.f1 = f1;
  p.f2 = f2;
  return out;
}

}  // namespace coradd
