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

TxnOrdinal ScheduleRecorder::RecordBegin(SiteId site, TxnId txn,
                                         GlobalTxnId global) {
  std::lock_guard<std::mutex> lock(mu_);
  auto ordinal = static_cast<TxnOrdinal>(txns_.size());
  bool fresh = ids_->ordinal_of.try_emplace(txn, ordinal).second;
  MDBS_CHECK(fresh) << txn << " began twice in recorder";
  TxnRecord record;
  record.txn = txn;
  record.site = site;
  record.global = global;
  record.global_node =
      global.valid()
          ? ids_->global_node_of.try_emplace(global, ordinal).first->second
          : ordinal;
  txns_.emplace_back(txn, record);
  return ordinal;
}

void ScheduleRecorder::RecordOp(TxnOrdinal txn, const DataOp& op,
                                int64_t time, TxnId read_from) {
  std::lock_guard<std::mutex> lock(mu_);
  MDBS_CHECK(txn < txns_.size()) << "operation of unknown ordinal " << txn;
  const auto& [id, record] = txns_[txn];
  TxnOrdinal from = kNoTxn;
  if (read_from == id) {
    from = txn;  // Read-your-own-writes needs no lookup.
  } else if (read_from.valid()) {
    auto it = ids_->ordinal_of.find(read_from);
    if (it != ids_->ordinal_of.end()) from = it->second;
  }
  ops_.push_back(RecordedOp{next_seq_++, time, record.site, id, op,
                            read_from, txn, from});
}

void ScheduleRecorder::RecordFinish(
    TxnOrdinal txn, TxnOutcome outcome,
    std::optional<int64_t> serialization_key) {
  std::lock_guard<std::mutex> lock(mu_);
  MDBS_CHECK(txn < txns_.size()) << "finish of unknown ordinal " << txn;
  TxnRecord& record = txns_[txn].second;
  record.outcome = outcome;
  record.serialization_key = serialization_key;
  record.finish_seq = next_seq_++;
}

const TxnRecord* ScheduleRecorder::FindTxn(TxnId txn) const {
  auto it = ids_->ordinal_of.find(txn);
  return it == ids_->ordinal_of.end() ? nullptr : &record(it->second);
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
