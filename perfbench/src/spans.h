// In-memory span recorder for traced benchmark runs. The benchmark opens a
// span around each call it makes into a layer's public functions; spans
// stay in memory and are written out (Chrome trace JSON) when the run ends.
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds.
int64_t NowNs();

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;   ///< index of the parent span, -1 for a root
  int64_t tag = -1;  ///< e.g. the serving epoch of a ticket; -1 = none
  double seconds() const { return 1e-9 * static_cast<double>(end_ns - start_ns); }
};

/// Thread-safe span store. A disabled tracer records nothing and every call
/// is a no-op returning -1.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its index (-1 when disabled).
  int Begin(const std::string& name, int parent = -1);
  /// Closes span `id` now.
  void End(int id);
  /// Stores finished spans recorded elsewhere (e.g. a client thread's
  /// buffer). Their parents must already be stored.
  void Append(std::vector<Span> spans);

  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const;

  /// Writes the spans as a Chrome trace-event JSON file.
  bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int parent = -1)
      : tracer_(tracer), id_(tracer->Begin(name, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Self time of every span, in seconds, aligned with `spans`: the span's
/// duration minus the union of its children's intervals clipped to it.
std::vector<double> SelfSeconds(const std::vector<Span>& spans);

/// Self seconds summed per span name.
std::map<std::string, double> SelfSecondsByName(const std::vector<Span>& spans);

}  // namespace perfbench
