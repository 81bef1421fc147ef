// Benchmark entry point: runs one workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Untraced runs (--trace 0) report every end-to-end metric; traced runs
// (--trace 1) report every per-layer metric, with 0 for a layer that does
// no work on the workload. The lines before the last one are informational
// (the exact counts the determinism pin compares, and workload-specific
// figures); the last line is the result object.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "report.h"
#include "workloads.h"

namespace perfbench {

coradd::StatsOptions BenchStats(uint32_t page_size) {
  coradd::StatsOptions options;
  options.sample_rows = 8192;
  options.disk.page_size_bytes = page_size;
  options.disk.seek_seconds = 0.0055 * static_cast<double>(page_size) / 8192.0;
  return options;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

double Seconds(int64_t from_ns, int64_t to_ns) {
  return 1e-9 * static_cast<double>(to_ns - from_ns);
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the printed names against it).
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},       {"op_p50_ms", "ms"},        {"op_per_s", "1/s"},
    {"design_sim_s", "sim_s"}, {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"catalog.datagen_s", "s"},
    {"stats.context_s", "s"},
    {"discovery.mine_s", "s"},
    {"discovery.dependencies", "count"},
    {"mv.candgen_s", "s"},
    {"mv.candidates", "count"},
    {"mv.trials_priced", "count"},
    {"mv.trials_pruned", "count"},
    {"mv.groups_designed", "count"},
    {"ilp.price_s", "s"},
    {"ilp.dominate_s", "s"},
    {"ilp.kept_ratio", "ratio"},
    {"solver.warm_s", "s"},
    {"feedback.s", "s"},
    {"solver.solves", "count"},
    {"solver.nodes", "count"},
    {"solver.optimal_ratio", "ratio"},
    {"solver.warm_win_ratio", "ratio"},
    {"feedback.candidates_added", "count"},
    {"cm.design_s", "s"},
    {"cm.count", "count"},
    {"design.traced_s", "s"},
    {"design.untraced_s", "s"},
    {"common.design_cpu_s", "s"},
    {"common.serve_cpu_s", "s"},
    {"common.parallel_eff", "ratio"},
    {"core.materialize_s", "s"},
    {"core.eval_s", "s"},
    {"exec.pages_read", "pages/query"},
    {"exec.solo_p50_ms", "ms"},
    {"serving.materialize_s", "s"},
    {"serving.epochs", "count"},
    {"serving.tickets_per_epoch", "count"},
    {"serving.shared_ratio", "ratio"},
    {"serving.dedup_ratio", "ratio"},
    {"serving.queue_hwm", "count"},
    {"serving.wait_p50_ms", "ms"},
    {"serving.p50_ms", "ms"},
    {"serving.p99_ms", "ms"},
    {"serving.qps", "1/s"},
    {"serving.samples", "count"},
    {"storage.pool_hit_ratio", "ratio"},
    {"storage.pool_touches_per_query", "count"},
    {"storage.pool_evictions", "count"},
    {"storage.pool_writebacks", "count"},
    {"maintenance.sim_s", "sim_s"},
    {"maintenance.pages_written", "count"},
    {"maintenance.dirty_evictions", "count"},
    {"maintenance.batches", "count"},
    {"maintenance.write_p50_ms", "ms"},
    {"maintenance.write_p95_ms", "ms"},
    {"maintenance.writer_share", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.unattributed_ratio", "ratio"},
};

const char* kWorkloads[] = {"ssb_design", "apb_design", "ssb_serve", "ssb_mixed"};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<ssb_design|apb_design|ssb_serve|ssb_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

RunArgs ParseArgs(int argc, char** argv) {
  RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 600.0) {
        Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      args.trace_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  bool known = false;
  for (const char* w : kWorkloads) known = known || args.workload == w;
  if (!known) Usage(("unknown workload " + args.workload).c_str());
  return args;
}

std::vector<Metric> Select(const std::vector<MetricDef>& defs,
                           const std::map<std::string, double>& values,
                           bool zero_if_missing) {
  std::vector<Metric> out;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end() && !zero_if_missing) {
      std::fprintf(stderr, "perfbench: workload produced no %s\n", d.name);
      std::exit(1);
    }
    out.push_back(Metric{d.name, it == values.end() ? 0.0 : it->second, d.unit});
  }
  for (const auto& [name, value] : values) {
    bool declared = false;
    for (const MetricDef& d : defs) declared = declared || name == d.name;
    if (!declared) {
      std::fprintf(stderr, "perfbench: undeclared metric %s\n", name.c_str());
      std::exit(1);
    }
  }
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunArgs args = ParseArgs(argc, argv);
  const bool design = args.workload == "ssb_design" || args.workload == "apb_design";
  RunOutput out = design ? RunDesignWorkload(args, args.workload == "apb_design")
                         : RunServeWorkload(args, args.workload == "ssb_mixed");

  std::printf("%s\n", CountsJson(out.counts).c_str());
  const std::vector<Metric> metrics =
      args.trace ? Select(kPerLayer, out.metrics, /*zero_if_missing=*/true)
                 : Select(kEndToEnd, out.metrics, /*zero_if_missing=*/false);
  std::printf("%s\n", ResultJson(out.tally, metrics).c_str());
  std::fflush(stdout);
  return 0;
}
