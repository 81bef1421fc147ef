#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Begin(const std::string& name, int parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

void Tracer::Append(std::vector<Span> spans) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (Span& s : spans) spans_.push_back(std::move(s));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = all.empty() ? 0 : all.front().start_ns;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"tag\": %lld}}\n",
                 i == 0 ? "" : ",", s.name.c_str(),
                 1e-3 * static_cast<double>(s.start_ns - t0),
                 1e-3 * static_cast<double>(s.end_ns - s.start_ns), i, s.parent,
                 static_cast<long long>(s.tag));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

namespace {
// Length of the union of [start, end) intervals clipped to [lo, hi].
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                    int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (a >= b) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}
}  // namespace

std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> out(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t covered =
        UnionLength(std::move(children[i]), s.start_ns, s.end_ns);
    out[i] = 1e-9 * static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return out;
}

std::map<std::string, double> SelfSecondsByName(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfSeconds(spans);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

}  // namespace perfbench
