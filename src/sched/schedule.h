#ifndef MDBS_SCHED_SCHEDULE_H_
#define MDBS_SCHED_SCHEDULE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/types.h"

namespace mdbs::sched {

/// Dense number of a recorded transaction: its position in
/// ScheduleRecorder::txns(), handed out by RecordBegin in begin order.
using TxnOrdinal = uint32_t;
/// No recorded transaction.
inline constexpr TxnOrdinal kNoTxn = UINT32_MAX;

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
  /// Ordinals of `txn` and `read_from`; the latter is kNoTxn when
  /// `read_from` is unset or had not begun when the read was recorded.
  TxnOrdinal txn_ordinal = kNoTxn;
  TxnOrdinal read_from_ordinal = kNoTxn;

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
  /// This transaction's node in the global serialization graph, as an
  /// ordinal: a global transaction's first recorded subtransaction stands
  /// for all of them, a local transaction for itself.
  TxnOrdinal global_node = kNoTxn;
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
/// A transaction id is looked up when it begins, and afterwards only to
/// resolve a versioned read of another transaction's version: RecordBegin
/// hands out a dense ordinal, the caller names the transaction by it, and
/// operations and records carry ordinals, so the checkers index instead
/// of hashing.
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

  /// Records that `txn` began at `site` and returns its ordinal. `txn` must
  /// not have begun before.
  TxnOrdinal RecordBegin(SiteId site, TxnId txn, GlobalTxnId global);
  /// Records a data operation of the transaction with ordinal `txn` at its
  /// site. `read_from` names the writer of the version a versioned read
  /// observed; a writer that has not begun by now stays unresolved.
  void RecordOp(TxnOrdinal txn, const DataOp& op, int64_t time,
                TxnId read_from = TxnId());
  void RecordFinish(TxnOrdinal txn, TxnOutcome outcome,
                    std::optional<int64_t> serialization_key);

  const std::vector<RecordedOp>& ops() const { return ops_; }

  /// Record for `txn`; nullptr when unknown.
  const TxnRecord* FindTxn(TxnId txn) const;

  /// All recorded transactions, indexed by ordinal.
  const std::vector<std::pair<TxnId, TxnRecord>>& txns() const {
    return txns_;
  }
  const TxnRecord& record(TxnOrdinal txn) const { return txns_[txn].second; }

  /// Number of committed / aborted transactions.
  int64_t CommittedCount() const;
  int64_t AbortedCount() const;

  /// Human-readable dump of the first `limit` operations.
  std::string Dump(size_t limit = 200) const;

 private:
  /// Id lookups, behind a pointer: the recorder sits inline in Mdbs, whose
  /// size is held under glibc's tcache limit (mdbs_integration_test).
  struct IdIndex {
    std::unordered_map<TxnId, TxnOrdinal> ordinal_of;
    /// TxnRecord::global_node of each global transaction.
    std::unordered_map<GlobalTxnId, TxnOrdinal> global_node_of;
  };

  std::mutex mu_;
  int64_t next_seq_ = 0;
  std::vector<RecordedOp> ops_;
  std::vector<std::pair<TxnId, TxnRecord>> txns_;
  std::unique_ptr<IdIndex> ids_ = std::make_unique<IdIndex>();
};

}  // namespace mdbs::sched

#endif  // MDBS_SCHED_SCHEDULE_H_
