#ifndef MDBS_OBS_TRACE_H_
#define MDBS_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/task_runner.h"

namespace mdbs::obs {

/// Compile-time master switch. `-DMDBS_TRACE=OFF` at configure time compiles
/// every trace hook down to a constant-false branch; with the default ON the
/// hooks exist and are toggled per run via TraceConfig (off by default, so
/// hot paths pay one predictable null-pointer branch).
#ifdef MDBS_TRACE_ENABLED
inline constexpr bool kTraceCompiledIn = true;
#else
inline constexpr bool kTraceCompiledIn = false;
#endif

/// Every instrumented point in the stack. The taxonomy mirrors the paper's
/// vocabulary: one global transaction flows submit -> attempt -> per-site
/// init/ser/ack -> validate -> fin, with WAIT dwell and scheme data-structure
/// churn (marked edges, dependencies) in between, plus the local-DBMS events
/// (lock waits, wounds, validation failures) that cause the retries.
enum class TraceEventKind : uint8_t {
  // GTM1 — transaction lifecycle. txn = attempt id unless noted.
  kSubmit,          // txn = job id (stable across attempts)
  kAttemptStart,    // a = job id, b = attempt number (1-based)
  kAttemptTimeout,  // the per-attempt timeout fired
  kAttemptAbort,    // a = job id, detail = "scheme" | "site" | "timeout"
  kTxnCommit,       // a = job id, b = attempts used
  kTxnFail,         // gave up / partial commit; a = job id

  // GTM2 — Basic_Scheme driver. site is invalid for init/validate/fin.
  kInit,         // act(init) ran; a = number of sites
  kSerRelease,   // act(ser) ran, operation released to its site
  kAck,          // act(ack) ran, acknowledgement forwarded to GTM1
  kValidate,     // act(validate) ran
  kFin,          // act(fin) ran, DS cleaned up
  kWaitEnter,    // cond failed, op joined WAIT; detail = op kind, a = |WAIT|
  kWaitExit,     // cond now holds, op left WAIT; detail = op kind, a = |WAIT|
  kWaitAbandon,  // op purged from WAIT by an abort; detail = op kind
  kSchemeAbort,  // the scheme demanded an abort (non-conservative only)
  kQueueDepth,   // sampled at enqueue; a = |QUEUE|, b = |WAIT|

  // Scheme data structures (paper §5-§7).
  kEdgeMark,    // Scheme 1: edge (txn, site) marked at init (on a TSG cycle)
  kEdgeUnmark,  // Scheme 1: marked edge retired (acked / txn removed)
  kDepAdd,      // Scheme 2: dependency (a, site) -> (site, b) added;
                //   detail = "executed" | "delta" | "order"
  kDepDrop,     // Scheme 2: txn removed, a = dependencies dropped with it
  kSerBefSeed,  // Scheme 3: ser_bef seeded at init; a = |ser_bef|

  // Local DBMS / LCC. txn = local TxnId value, a = global txn id or -1.
  kSiteBegin,        // subtransaction (or local txn) began at site
  kSiteCommit,       // committed at site
  kSiteAbort,        // rolled back at site
  kOpBlocked,        // operation blocked (lock conflict, TO wait, ...)
  kOpResumed,        // blocked operation woken for retry
  kLocalAbort,       // protocol demanded an abort at access time
  kValidationFail,   // commit-time certification failed (OCC / SGT)
  kLockWait,         // lock manager queued the request; b = item id
  kDeadlock,         // waits-for cycle; requester is the victim; b = item id
  kWound,            // wound-wait preemption; txn = victim, b = aggressor
  kCrash,            // site crashed (a = active txns aborted)
  kRecoveryBegin,    // durable site started WAL replay (still down)
  kRecover,          // site recovered; durable: a = replayed records,
                     //   b = replayed log bytes

  // Failure handling — health monitor, quarantine, retry layer.
  kSiteSuspect,   // probe overdue; a = ticks since last ack
  kSiteDown,      // monitor declared the site down; a = ticks since last ack
  kSiteUp,        // monitor saw the site answer again
  kTxnParked,     // txn = job id; a = attempts so far (waiting on quarantine)
  kTxnUnparked,   // txn = job id; a = attempts so far (site back up)
  kTxnResubmit,   // driver retry layer resubmitted; txn = driver txn id,
                  //   a = resubmission number, b = attempts used so far
  kNetFault,      // injected message fault; detail = "req_lost" |
                  //   "resp_lost" | "dup" | "dup_suppressed" | "spike"
  kGtmCrash,      // durable GTM crashed; a = live attempts lost,
                  //   b = in-flight jobs carried into recovery
  kGtmRecover,    // durable GTM back up after WAL replay; a = replayed
                  //   records, b = jobs resumed

  // Engine. site = strand owner (-1 = GTM strand).
  kStrandBacklog,  // threaded mode: a = tasks queued on the strand

  // Static analysis / certified fast path (src/analysis).
  kDowngrade,  // attempt ran the certified fast path: no ser delays, no
               //   tickets; txn = attempt id, a = job id

  // Warm-standby failover (appended so earlier kinds keep their values).
  kGtmPromoteBegin,  // standby starts taking over; a = new fencing epoch,
                     //   b = unshipped WAL tail records to apply
  kGtmPromote,       // promoted standby is live; a = tail records applied,
                     //   b = jobs resumed
};

const char* TraceEventKindName(TraceEventKind kind);

/// One recorded event. `time` is NowTicks() of the owning multidatabase —
/// virtual ticks under the simulator, real microseconds under the threaded
/// engine — so one format covers both. `seq` is a process-wide monotone
/// tie-breaker: simulator pumps execute many events at one tick, and the
/// span well-formedness checks (submit < init <= ser <= ack <= fin) are
/// defined over (time, seq).
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kSubmit;
  sim::Time time = 0;
  int64_t seq = 0;
  int64_t txn = -1;
  int64_t site = -1;
  int64_t a = 0;
  int64_t b = 0;
  /// Kind-specific label. MUST be a string literal (or otherwise immortal):
  /// events outlive the call site and are never deep-copied.
  const char* detail = nullptr;
};

/// Runtime configuration of one TraceSink.
struct TraceConfig {
  /// Master runtime switch; leave false for untraced runs so every hook is
  /// a null-pointer check.
  bool enabled = false;
  /// Events retained per recording thread. A full buffer drops further
  /// events (counted, reported by dropped()) rather than blocking or
  /// reallocating on the hot path.
  size_t buffer_capacity = 1 << 18;
};

/// Collects TraceEvents from every strand and caller thread of one
/// multidatabase run. Each recording thread appends to its own buffer under
/// its own (uncontended) mutex — "lock-free-ish": the fast path never blocks
/// on another thread — and Drain() merges all buffers into (time, seq)
/// order once the run is quiescent.
///
/// Timestamps come from `clock`, which must be callable from any thread
/// (Mdbs::NowTicks is). Thread-buffer slots are keyed by a process-unique
/// sink id, so a thread that outlives one sink and records into another
/// never touches freed memory.
class TraceSink {
 public:
  using Clock = std::function<sim::Time()>;

  TraceSink(const TraceConfig& config, Clock clock);

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  bool enabled() const { return kTraceCompiledIn && config_.enabled; }

  /// Records one event stamped with clock() and the next global sequence
  /// number. Thread-safe; drops (and counts) when the calling thread's
  /// buffer is full or the sink is disabled.
  void Record(TraceEventKind kind, int64_t txn, int64_t site, int64_t a = 0,
              int64_t b = 0, const char* detail = nullptr);

  /// Merges every thread's buffer into (time, seq) order and clears them.
  /// Call only when no thread is recording (post-run).
  std::vector<TraceEvent> Drain();

  /// Events dropped on full buffers so far.
  int64_t dropped() const;
  /// Events recorded (excluding drops) so far.
  int64_t recorded() const;

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<TraceEvent> events;
    int64_t dropped = 0;
  };

  /// The calling thread's buffer, allocated on first use.
  Buffer* LocalBuffer();

  TraceConfig config_;
  Clock clock_;
  uint64_t id_;
  std::atomic<int64_t> next_seq_{0};
  std::atomic<int64_t> recorded_{0};
  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace mdbs::obs

#endif  // MDBS_OBS_TRACE_H_
