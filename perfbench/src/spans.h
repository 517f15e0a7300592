#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, nanoseconds.
int64_t WallNs();
/// CPU time of the whole process (all threads), nanoseconds.
int64_t ProcessCpuNs();

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
/// The value at rank floor(q * n) of the sorted `values` (0 when empty).
double Percentile(std::vector<double> values, double q);

/// One timed interval around a call into a layer's public API.
struct Span {
  std::string name;
  int64_t start_ns = 0;  // WallNs() at entry.
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;    // Process CPU consumed inside the span.
  int parent = -1;       // Index of the enclosing span, -1 at the root.
  int run = 0;           // Round (or cell) the span belongs to.
};

/// In-memory span store. Always measures (callers read durations back from
/// it even when tracing is off); only keeps the spans when `enabled`, and
/// writes them out once, at the end of the benchmark. Single-threaded: the
/// benchmark's main thread opens and closes every span.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Writes every kept span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

  const std::vector<Span>& spans() const { return spans_; }

 private:
  friend class Scope;
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // Stack of open span indices.
};

/// RAII span: measures wall and process CPU time from construction to
/// End() (or destruction) and records it into the log when tracing is on.
class Scope {
 public:
  Scope(SpanLog* log, std::string name, int run);
  ~Scope() { End(); }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Closes the span (idempotent).
  void End();
  double wall_s() const { return static_cast<double>(wall_ns_) * 1e-9; }
  double cpu_s() const { return static_cast<double>(cpu_ns_) * 1e-9; }

 private:
  SpanLog* log_;
  int index_ = -1;
  bool open_ = true;
  int64_t start_wall_;
  int64_t start_cpu_;
  int64_t wall_ns_ = 0;
  int64_t cpu_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
