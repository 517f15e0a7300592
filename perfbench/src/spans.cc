#include "spans.h"

#include <time.h>

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

int64_t WallNs() { return ClockNs(CLOCK_MONOTONIC); }
int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t index = static_cast<size_t>(q * static_cast<double>(values.size()));
  return values[std::min(index, values.size() - 1)];
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"cpu_ns\":%lld,\"parent\":%d,\"run\":%d}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.cpu_ns), s.parent, s.run);
  }
  return std::fclose(out) == 0;
}

Scope::Scope(SpanLog* log, std::string name, int run)
    : log_(log), start_wall_(WallNs()), start_cpu_(ProcessCpuNs()) {
  if (log_ == nullptr || !log_->enabled_) return;
  Span span;
  span.name = std::move(name);
  span.start_ns = start_wall_;
  span.parent = log_->open_.empty() ? -1 : log_->open_.back();
  span.run = run;
  index_ = static_cast<int>(log_->spans_.size());
  log_->spans_.push_back(std::move(span));
  log_->open_.push_back(index_);
}

void Scope::End() {
  if (!open_) return;
  open_ = false;
  wall_ns_ = WallNs() - start_wall_;
  cpu_ns_ = ProcessCpuNs() - start_cpu_;
  if (index_ < 0) return;
  Span& span = log_->spans_[static_cast<size_t>(index_)];
  span.end_ns = start_wall_ + wall_ns_;
  span.cpu_ns = cpu_ns_;
  if (!log_->open_.empty() && log_->open_.back() == index_) {
    log_->open_.pop_back();
  }
}

}  // namespace perfbench
