#ifndef MDBS_SCHED_SCHEDULE_H_
#define MDBS_SCHED_SCHEDULE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/types.h"

namespace mdbs::sched {

/// One data operation as it executed at a local DBMS, in global execution
/// order (`seq` is a total order across all sites; within a site it matches
/// the local total order <_Sk of the paper).
struct RecordedOp {
  int64_t seq = 0;
  int64_t time = 0;  // Virtual time of execution.
  SiteId site;
  TxnId txn;
  DataOp op;
  /// For versioned reads at multiversion sites: the transaction whose
  /// version was observed (invalid = the initial version / not versioned).
  TxnId read_from;

  std::string ToString() const;
};

/// Per-transaction bookkeeping captured by the recorder.
struct TxnRecord {
  TxnId txn;
  SiteId site;
  /// Parent global transaction for subtransactions; invalid for purely local
  /// transactions.
  GlobalTxnId global;
  TxnOutcome outcome = TxnOutcome::kActive;
  /// The local protocol's serialization key at finish, when defined.
  std::optional<int64_t> serialization_key;
  /// Position of the commit/abort in the global operation sequence
  /// (shares the counter with RecordedOp::seq); -1 while active. Lets the
  /// strictness checker order finishes against data operations.
  int64_t finish_seq = -1;
};

/// Captures the global schedule S: every executed data operation at every
/// site plus transaction begin/finish outcomes. The verification layer
/// replays it to check local, global, and ser(S) serializability. Purely
/// observational — the recorder never influences execution.
///
/// The three Record* entry points are thread-safe: in threaded execution
/// every site strand records concurrently, and the shared `seq` counter is
/// what turns the real interleaving into the total order the checkers
/// verify. The read accessors are not synchronized — call them only after
/// the run settled (Mdbs::FinishThreadedRun in threaded mode).
class ScheduleRecorder {
 public:
  ScheduleRecorder() = default;

  ScheduleRecorder(const ScheduleRecorder&) = delete;
  ScheduleRecorder& operator=(const ScheduleRecorder&) = delete;

  void RecordBegin(SiteId site, TxnId txn, GlobalTxnId global);
  void RecordOp(SiteId site, TxnId txn, const DataOp& op, int64_t time,
                TxnId read_from = TxnId());
  void RecordFinish(TxnId txn, TxnOutcome outcome,
                    std::optional<int64_t> serialization_key);

  const std::vector<RecordedOp>& ops() const { return ops_; }

  /// Record for `txn`; nullptr when unknown.
  const TxnRecord* FindTxn(TxnId txn) const;

  /// All recorded transactions.
  const std::unordered_map<TxnId, TxnRecord>& txns() const { return txns_; }

  /// Number of committed / aborted transactions.
  int64_t CommittedCount() const;
  int64_t AbortedCount() const;

  /// Human-readable dump of the first `limit` operations.
  std::string Dump(size_t limit = 200) const;

 private:
  std::mutex mu_;
  int64_t next_seq_ = 0;
  std::vector<RecordedOp> ops_;
  std::unordered_map<TxnId, TxnRecord> txns_;
};

}  // namespace mdbs::sched

#endif  // MDBS_SCHED_SCHEDULE_H_
