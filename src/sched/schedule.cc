#include "sched/schedule.h"

#include <sstream>

#include "common/logging.h"

namespace mdbs::sched {

std::string RecordedOp::ToString() const {
  std::ostringstream os;
  os << "#" << seq << " t=" << time << " " << mdbs::ToString(site) << " "
     << mdbs::ToString(txn) << " " << op.ToString();
  return os.str();
}

void ScheduleRecorder::RecordBegin(SiteId site, TxnId txn,
                                   GlobalTxnId global) {
  std::lock_guard<std::mutex> lock(mu_);
  MDBS_CHECK(!txns_.contains(txn)) << txn << " began twice in recorder";
  txns_[txn] =
      TxnRecord{txn, site, global, TxnOutcome::kActive, std::nullopt, -1};
}

void ScheduleRecorder::RecordOp(SiteId site, TxnId txn, const DataOp& op,
                                int64_t time, TxnId read_from) {
  std::lock_guard<std::mutex> lock(mu_);
  ops_.push_back(RecordedOp{next_seq_++, time, site, txn, op, read_from});
}

void ScheduleRecorder::RecordFinish(
    TxnId txn, TxnOutcome outcome,
    std::optional<int64_t> serialization_key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(txn);
  MDBS_CHECK(it != txns_.end()) << txn << " finished but never began";
  it->second.outcome = outcome;
  it->second.serialization_key = serialization_key;
  it->second.finish_seq = next_seq_++;
}

const TxnRecord* ScheduleRecorder::FindTxn(TxnId txn) const {
  auto it = txns_.find(txn);
  return it == txns_.end() ? nullptr : &it->second;
}

int64_t ScheduleRecorder::CommittedCount() const {
  int64_t count = 0;
  for (const auto& [txn, record] : txns_) {
    if (record.outcome == TxnOutcome::kCommitted) ++count;
  }
  return count;
}

int64_t ScheduleRecorder::AbortedCount() const {
  int64_t count = 0;
  for (const auto& [txn, record] : txns_) {
    if (record.outcome == TxnOutcome::kAborted) ++count;
  }
  return count;
}

std::string ScheduleRecorder::Dump(size_t limit) const {
  std::ostringstream os;
  for (size_t i = 0; i < ops_.size() && i < limit; ++i) {
    os << ops_[i].ToString() << "\n";
  }
  if (ops_.size() > limit) {
    os << "... (" << ops_.size() - limit << " more)\n";
  }
  return os.str();
}

}  // namespace mdbs::sched
