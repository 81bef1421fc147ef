// Statistics and result reporting shared by every benchmark workload: the
// tail-percentile rule, the attempted/failed tally, host steal, and the
// one-line JSON result the benchmark prints last.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Samples a percentile must have strictly beyond it before it is reported.
inline constexpr size_t kMinTailSamples = 10;

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
double Median(std::vector<double> values);

/// Nearest-rank `p`-th percentile (0 < p < 100) of `values`, or nullopt when
/// fewer than kMinTailSamples samples lie beyond it.
std::optional<double> TailPercentile(std::vector<double> values, double p);

/// Operations attempted and failed by one run. Every correctness check is
/// one attempted operation; a check that does not hold is a failed one.
class Tally {
 public:
  /// Counts one operation; returns `ok`. A failure is described on stderr.
  bool Check(bool ok, const std::string& what);
  /// Counts `n` operations that all succeeded.
  void Pass(uint64_t n) { attempted_ += n; }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return attempted_ > 0 && failed_ == 0; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Host-wide CPU time from /proc/stat, in clock ticks: time the CPUs ran
/// something (or wanted to), and the part of it the hypervisor gave to
/// other guests (steal).
struct HostCpu {
  double busy = 0.0;
  double steal = 0.0;
};
HostCpu ReadHostCpu();

/// Steal over one or more intervals. On a shared host other guests take
/// CPU time from this one (steal) in bursts and for minutes on end, which
/// stretches every wall time measured here by 1 / (1 - share) when it hits
/// the threads evenly. End-to-end times are reported net of it: multiplied
/// by (1 - share) of the interval they were measured over.
class StealMeter {
 public:
  void Add(const HostCpu& from, const HostCpu& to) {
    busy_ += to.busy - from.busy;
    steal_ += to.steal - from.steal;
  }
  /// Share of the busy CPU time in the intervals that was stolen.
  double share() const { return busy_ > 0.0 ? steal_ / busy_ : 0.0; }

 private:
  double busy_ = 0.0;
  double steal_ = 0.0;
};

/// True when two doubles have the same bit pattern.
bool BitEqual(double a, double b);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}, with every
/// value printed in its shortest exact decimal form.
std::string ResultJson(const Tally& tally, const std::vector<Metric>& metrics);

/// The informational line printed before the result:
/// {"counts": {name: value, ...}}.
std::string CountsJson(const std::map<std::string, double>& counts);

}  // namespace perfbench
