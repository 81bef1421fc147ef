// The benchmark's workloads. Each runs in its own process, builds its
// inputs, measures for the requested time, checks the program's outputs,
// and returns named metrics (end-to-end on untraced runs, per-layer on
// traced runs) plus the exact counts the determinism pin compares.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "report.h"
#include "stats/stats_collector.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< where a traced run writes its spans
};

struct RunOutput {
  Tally tally;
  std::map<std::string, double> metrics;  ///< by name; units live in main.cc
  /// Printed on the line before the result: the exact counts that must
  /// repeat bit-for-bit across runs and seeds, plus workload-specific
  /// timings (serve_p99_ms, write_p50_ms, ...) that steady.py only reports.
  std::map<std::string, double> counts;
};

/// Largest share of a traced design's root span its children's self times
/// may leave unattributed: layer self times must add up to the design time.
inline constexpr double kTraceTolerance = 0.05;

RunOutput RunDesignWorkload(const RunArgs& args, bool apb);
RunOutput RunServeWorkload(const RunArgs& args, bool mixed);

// Shared helpers.

/// Simulated-disk statistics options for a page size: the paper's
/// seek:page-transfer ratio (5.5 ms : one 8 KB page) kept at smaller pages.
coradd::StatsOptions BenchStats(uint32_t page_size);

/// User + system CPU seconds of this process so far.
double ProcessCpuSeconds();
/// Peak resident set of this process, in MB.
double PeakRssMb();
/// Seconds between two NowNs() readings.
double Seconds(int64_t from_ns, int64_t to_ns);

}  // namespace perfbench
