#include "common/logging.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <thread>

namespace mdbs {

namespace {
std::atomic<LogLevel> g_log_level{LogLevel::kWarning};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

/// Microseconds since the first log statement — short, monotonic, and
/// directly comparable to the threaded engine's NowTicks() timebase.
int64_t MicrosSinceStart() {
  static const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Small per-thread number (registration order), far more readable than
/// the hashed std::thread::id.
int64_t ThisThreadNumber() {
  static std::atomic<int64_t> next{0};
  thread_local int64_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::mutex& SinkMutex() {
  static std::mutex mu;
  return mu;
}

void DefaultSink(LogLevel /*level*/, const std::string& line) {
  // One locked write per line: site strands, GTM strand and caller threads
  // log concurrently, and partial-line interleaving makes traces useless.
  std::lock_guard<std::mutex> lock(SinkMutex());
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fflush(stderr);
}

/// Current sink, nullptr meaning DefaultSink. An atomic pointer rather
/// than a mutable std::function: ~LogMessage runs on every worker strand,
/// and assigning a std::function while another thread invokes it is a data
/// race (torn reads of the function's storage).
std::atomic<const LogSink*>& GlobalSinkPtr() {
  static std::atomic<const LogSink*> sink{nullptr};
  return sink;
}
}  // namespace

LogLevel GetLogLevel() { return g_log_level.load(std::memory_order_relaxed); }

void SetLogLevel(LogLevel level) {
  g_log_level.store(level, std::memory_order_relaxed);
}

void SetLogSink(LogSink sink) {
  const LogSink* next =
      sink != nullptr ? new LogSink(std::move(sink)) : nullptr;
  // The previous sink is intentionally never freed: a concurrent logger may
  // hold it past this store. Sinks are installed a handful of times per
  // process, so the leak is bounded.
  GlobalSinkPtr().store(next, std::memory_order_release);
}

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line, bool fatal)
    : level_(level), fatal_(fatal) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  int64_t micros = MicrosSinceStart();
  char prefix[96];
  std::snprintf(prefix, sizeof(prefix), "[%s %lld.%06llds t%lld %s:%d] ",
                LevelName(level_),
                static_cast<long long>(micros / 1'000'000),
                static_cast<long long>(micros % 1'000'000),
                static_cast<long long>(ThisThreadNumber()), base, line);
  stream_ << prefix;
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  const LogSink* sink = GlobalSinkPtr().load(std::memory_order_acquire);
  if (sink != nullptr) {
    (*sink)(level_, stream_.str());
  } else {
    DefaultSink(level_, stream_.str());
  }
  if (fatal_) std::abort();
}

}  // namespace internal_logging
}  // namespace mdbs
