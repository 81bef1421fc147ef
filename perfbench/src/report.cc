#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

HostCpu ReadHostCpu() {
  HostCpu cpu;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return cpu;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    // user nice system idle iowait irq softirq steal
    cpu.steal = static_cast<double>(v[7]);
    cpu.busy = static_cast<double>(v[0] + v[1] + v[2] + v[5] + v[6] + v[7]);
  }
  std::fclose(f);
  return cpu;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {
// 1-based nearest rank of the p-th percentile among n samples.
size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::max<size_t>(1, static_cast<size_t>(rank));
}
}  // namespace

std::optional<double> TailPercentile(std::vector<double> values, double p) {
  const size_t n = values.size();
  if (n == 0) return std::nullopt;
  const size_t rank = NearestRank(n, p);
  if (n - rank < kMinTailSamples) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

bool Tally::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  return ok;
}

bool BitEqual(double a, double b) {
  uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

namespace {
std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string MetricsObject(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}
}  // namespace

std::string ResultJson(const Tally& tally, const std::vector<Metric>& metrics) {
  return std::string("{\"correct\": ") + (tally.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(tally.attempted()) +
         ", \"failed\": " + std::to_string(tally.failed()) +
         ", \"metrics\": " + MetricsObject(metrics) + "}";
}

std::string CountsJson(const std::map<std::string, double>& counts) {
  std::string out = "{\"counts\": {";
  for (const auto& [name, value] : counts) {
    if (out.back() != '{') out += ", ";
    out += "\"" + name + "\": " + Number(value);
  }
  return out + "}}";
}

}  // namespace perfbench
