#include "gtm/gtm2.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "storage/framing.h"

namespace mdbs::gtm {

Gtm2::Gtm2(std::unique_ptr<Scheme> scheme, Callbacks callbacks)
    : scheme_(std::move(scheme)), callbacks_(std::move(callbacks)) {
  MDBS_CHECK(scheme_ != nullptr);
}

void Gtm2::EnableTrace(obs::TraceSink* sink) {
  trace_ = sink;
  scheme_->EnableTrace(sink);
}

void Gtm2::EnableAudit(const audit::AuditConfig& config,
                       audit::Auditor* auditor) {
  audit_config_ = config;
  audit_enabled_ = audit::kAuditCompiledIn && config.enabled;
  auditor_ = auditor != nullptr ? auditor : audit::Auditor::Default();
}

void Gtm2::AuditVerdict(const QueueOp& op, Verdict verdict) {
  if (!audit_enabled_) return;
  if (verdict == Verdict::kAbort && scheme_->IsConservative()) {
    auditor_->Report(audit::AuditViolation{
        "conservative-discipline",
        std::string(scheme_->Name()) + " demanded an abort on " +
            op.ToString() + " (Theorems 3/5/8: Schemes 0-3 never abort)",
        {op.txn.value()},
        op.txn.value()});
  }
}

void Gtm2::AuditBeforeSerRelease(GlobalTxnId txn, SiteId site) {
  if (!audit_enabled_ || !scheme_->IsConservative()) return;
  if (audit_config_.check_release_discipline) {
    Status status = scheme_->AuditSerRelease(txn, site);
    if (!status.ok()) {
      auditor_->Report(audit::AuditViolation{
          "ser-release-discipline", status.message(), {txn.value()},
          txn.value()});
    }
  }
  if (audit_config_.check_ser_graph) {
    std::optional<std::vector<int64_t>> cycle =
        ser_graph_.RecordRelease(txn.value(), site.value());
    if (cycle.has_value()) {
      auditor_->Report(audit::AuditViolation{
          "ser-graph-acyclic",
          "releasing ser(" + ToString(txn) + "@" + ToString(site) +
              ") closes a cycle in the abstract ser(S) graph (Theorem 1)",
          *cycle, txn.value()});
    }
  }
}

void Gtm2::AuditAfterAct(const QueueOp& op) {
  if (!audit_enabled_) return;
  if (op.kind == QueueOpKind::kFin) ser_graph_.RemoveTxn(op.txn.value());
  if (audit_config_.check_scheme_structure) {
    Status status = scheme_->CheckStructuralInvariants();
    if (!status.ok()) {
      auditor_->Report(audit::AuditViolation{
          "scheme-structure",
          status.message() + " (after " + op.ToString() + ")",
          {op.txn.value()}, op.txn.value()});
    }
  }
}

void Gtm2::Enqueue(QueueOp op) {
  queue_.push_back(std::move(op));
  if (trace_ != nullptr) {
    trace_->Record(obs::TraceEventKind::kQueueDepth, queue_.back().txn.value(),
                   -1, static_cast<int64_t>(queue_.size()),
                   static_cast<int64_t>(wait_.size()));
  }
  if (metrics_ != nullptr) {
    metrics_->SampleGtm2Depth(static_cast<int64_t>(queue_.size()),
                              static_cast<int64_t>(wait_.size()));
  }
  if (!pumping_) Pump();
}

void Gtm2::Pump() {
  pumping_ = true;
  while (!queue_.empty()) {
    QueueOp op = std::move(queue_.front());
    queue_.pop_front();
    if (dead_txns_.contains(op.txn)) continue;
    if (TryProcess(op)) {
      DrainWait();
    } else {
      ++stats_.wait_additions;
      if (op.kind == QueueOpKind::kSer) ++stats_.ser_wait_additions;
      if (trace_ != nullptr) {
        trace_->Record(obs::TraceEventKind::kWaitEnter, op.txn.value(),
                       op.site.value(),
                       static_cast<int64_t>(wait_.size()) + 1, 0,
                       QueueOpKindName(op.kind));
      }
      if (metrics_ != nullptr && (op.kind == QueueOpKind::kSer ||
                                  op.kind == QueueOpKind::kValidate)) {
        metrics_->WaitEnter(op.txn);
      }
      AddToWait(std::move(op));
    }
  }
  pumping_ = false;
}

Verdict Gtm2::Cond(const QueueOp& op) {
  switch (op.kind) {
    case QueueOpKind::kInit:
      return scheme_->CondInit(op);
    case QueueOpKind::kSer:
      return scheme_->CondSer(op.txn, op.site);
    case QueueOpKind::kAck:
      return scheme_->CondAck(op.txn, op.site);
    case QueueOpKind::kValidate:
      return scheme_->CondValidate(op.txn);
    case QueueOpKind::kFin:
      return scheme_->CondFin(op.txn);
  }
  return Verdict::kReady;
}

bool Gtm2::TryProcess(const QueueOp& op) {
  ++stats_.cond_evaluations;
  Verdict verdict = Cond(op);
  AuditVerdict(op, verdict);
  switch (verdict) {
    case Verdict::kWait:
      return false;
    case Verdict::kAbort:
      ++stats_.scheme_aborts;
      if (trace_ != nullptr) {
        trace_->Record(obs::TraceEventKind::kSchemeAbort, op.txn.value(),
                       op.site.value(), 0, 0, QueueOpKindName(op.kind));
      }
      if (callbacks_.abort_txn) callbacks_.abort_txn(op.txn);
      return true;
    case Verdict::kReady: {
      // A scheme that declares nothing has every pass of DrainWait wake
      // all of WAIT instead.
      if (!scheme_->DeclaresWakeups()) {
        RunAct(op);
        return true;
      }
      scratch_classes_.clear();
      bool targeted = scheme_->WakeClasses(op, &scratch_classes_);
      RunAct(op);
      if (!targeted) {
        WakeAll();
      } else {
        for (const WakeClass& wake_class : scratch_classes_) {
          WakeFiled(wake_class);
        }
      }
      return true;
    }
  }
  return false;
}

void Gtm2::RunAct(const QueueOp& op) {
  ++stats_.processed_ops;
  switch (op.kind) {
    case QueueOpKind::kInit:
      scheme_->ActInit(op);
      if (trace_ != nullptr) {
        trace_->Record(obs::TraceEventKind::kInit, op.txn.value(), -1,
                       static_cast<int64_t>(op.sites.size()));
      }
      break;
    case QueueOpKind::kSer:
      // Audit before the act mutates DS: the release decision must be
      // justified by the data structures as they are *now*.
      AuditBeforeSerRelease(op.txn, op.site);
      scheme_->ActSer(op.txn, op.site);
      if (trace_ != nullptr) {
        trace_->Record(obs::TraceEventKind::kSerRelease, op.txn.value(),
                       op.site.value());
      }
      if (callbacks_.release_ser) callbacks_.release_ser(op.txn, op.site);
      break;
    case QueueOpKind::kAck:
      scheme_->ActAck(op.txn, op.site);
      if (trace_ != nullptr) {
        trace_->Record(obs::TraceEventKind::kAck, op.txn.value(),
                       op.site.value());
      }
      if (callbacks_.forward_ack) callbacks_.forward_ack(op.txn, op.site);
      break;
    case QueueOpKind::kValidate:
      scheme_->ActValidate(op.txn);
      if (trace_ != nullptr) {
        trace_->Record(obs::TraceEventKind::kValidate, op.txn.value(), -1);
      }
      if (callbacks_.validate_passed) callbacks_.validate_passed(op.txn);
      break;
    case QueueOpKind::kFin:
      scheme_->ActFin(op.txn);
      if (trace_ != nullptr) {
        trace_->Record(obs::TraceEventKind::kFin, op.txn.value(), -1);
      }
      if (callbacks_.fin_done) callbacks_.fin_done(op.txn);
      break;
  }
  AuditAfterAct(op);
}

void Gtm2::DrainWait() {
  // Figure 3: after an act, process every waiting operation whose cond now
  // holds; each success can enable further ones, so retry to fixpoint. A
  // pass walks the woken entries in WAIT order; an entry woken behind the
  // walk waits for the next pass, which runs whenever this one made
  // progress — exactly where Figure 3's full rescan would first evaluate
  // it with a different outcome.
  bool progress = true;
  while (progress) {
    progress = false;
    if (!scheme_->DeclaresWakeups()) WakeAll();
    while (!this_pass_.empty()) {
      cursor_ = this_pass_.top();
      this_pass_.pop();
      auto it = wait_.find(cursor_);
      // The entry stays marked woken while it is evaluated, so its own act
      // cannot queue it again.
      WaitEntry& entry = it->second;
      const QueueOp& waiting = entry.op;
      if (dead_txns_.contains(waiting.txn)) {
        if (trace_ != nullptr) {
          trace_->Record(obs::TraceEventKind::kWaitAbandon,
                         waiting.txn.value(), waiting.site.value(), 0, 0,
                         QueueOpKindName(waiting.kind));
        }
        wait_.erase(it);
        continue;
      }
      int64_t steps_before = scheme_->steps();
      if (TryProcess(waiting)) {
        if (trace_ != nullptr) {
          trace_->Record(obs::TraceEventKind::kWaitExit, waiting.txn.value(),
                         waiting.site.value(),
                         static_cast<int64_t>(wait_.size()) - 1, 0,
                         QueueOpKindName(waiting.kind));
        }
        if (metrics_ != nullptr && (waiting.kind == QueueOpKind::kSer ||
                                    waiting.kind == QueueOpKind::kValidate)) {
          metrics_->WaitExit(waiting.txn);
        }
        wait_.erase(it);
        progress = true;
      } else {
        stats_.failed_rescan_steps += scheme_->steps() - steps_before;
        entry.woken = false;
        File(cursor_, waiting);
      }
    }
    cursor_ = -1;
    std::swap(this_pass_, next_pass_);
  }
  AuditWakeupComplete();
}

void Gtm2::AddToWait(QueueOp op) {
  int64_t seq = next_seq_++;
  auto it = wait_.emplace(seq, WaitEntry{std::move(op)}).first;
  File(seq, it->second.op);
}

void Gtm2::File(int64_t seq, const QueueOp& op) {
  if (!scheme_->DeclaresWakeups()) return;
  scratch_classes_.clear();
  scheme_->WaitClasses(op, &scratch_classes_);
  for (const WakeClass& wake_class : scratch_classes_) {
    filed_[wake_class].push_back(seq);
  }
}

void Gtm2::Wake(int64_t seq, WaitEntry& entry) {
  entry.woken = true;
  (seq > cursor_ ? this_pass_ : next_pass_).push(seq);
}

void Gtm2::WakeFiled(const WakeClass& wake_class) {
  auto bucket = filed_.find(wake_class);
  if (bucket == filed_.end()) return;
  for (int64_t seq : bucket->second) {
    auto it = wait_.find(seq);
    if (it != wait_.end() && !it->second.woken) Wake(seq, it->second);
  }
  bucket->second.clear();
}

void Gtm2::WakeAll() {
  for (auto& [seq, entry] : wait_) {
    if (!entry.woken) Wake(seq, entry);
  }
  for (auto& [wake_class, bucket] : filed_) bucket.clear();
}

void Gtm2::AuditWakeupComplete() {
  if (!audit_enabled_ || !audit_config_.check_scheme_structure ||
      !scheme_->DeclaresWakeups()) {
    return;
  }
  // The drain left every entry un-woken: each must still wait, or an act
  // failed to wake it. Audit code must not meter steps.
  int64_t steps = scheme_->steps();
  for (const auto& [seq, entry] : wait_) {
    if (Cond(entry.op) == Verdict::kWait) continue;
    auditor_->Report(audit::AuditViolation{
        "wakeup-complete",
        std::string(scheme_->Name()) + ": " + entry.op.ToString() +
            " can proceed but no act woke it",
        {entry.op.txn.value()},
        entry.op.txn.value()});
  }
  scheme_->RestoreSteps(steps);
}

void Gtm2::AbortCleanup(GlobalTxnId txn) {
  dead_txns_.insert(txn);
  if (audit_enabled_) ser_graph_.RemoveTxn(txn.value());
  if (!pumping_) {
    // Eager purge. When called from inside the pump (a scheme abort
    // surfacing mid-walk), the purge must stay lazy: Pump/DrainWait skip
    // and erase dead transactions' operations as they reach them, so the
    // trace and the walk see them where Figure 3's rescan would.
    for (auto it = wait_.begin(); it != wait_.end();) {
      const QueueOp& op = it->second.op;
      if (op.txn == txn) {
        if (trace_ != nullptr) {
          trace_->Record(obs::TraceEventKind::kWaitAbandon, op.txn.value(),
                         op.site.value(), 0, 0, QueueOpKindName(op.kind));
        }
        it = wait_.erase(it);
      } else {
        ++it;
      }
    }
  }
  scheme_->ActAbortCleanup(txn);
  // Removing the transaction may unblock any waiting operation, and the
  // walk must reach the dead ones to erase them.
  WakeAll();
  if (!pumping_) {
    pumping_ = true;
    DrainWait();
    pumping_ = false;
    if (!queue_.empty()) Pump();
  }
}

namespace {

void EncodeOp(const QueueOp& op, std::vector<uint8_t>* out) {
  storage::PutU8(out, static_cast<uint8_t>(op.kind));
  storage::PutI64(out, op.txn.value());
  storage::PutI64(out, op.site.value());
  storage::PutU32(out, static_cast<uint32_t>(op.sites.size()));
  for (SiteId site : op.sites) storage::PutI64(out, site.value());
}

std::vector<int64_t> SortedTxns(
    const std::unordered_set<GlobalTxnId>& txns) {
  std::vector<int64_t> sorted;
  sorted.reserve(txns.size());
  for (GlobalTxnId txn : txns) sorted.push_back(txn.value());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace

Gtm2::VolatileImage Gtm2::SnapshotForCheckpoint() const {
  MDBS_CHECK(!pumping_ && queue_.empty())
      << "GTM2 snapshot requires a quiescent driver";
  // Every drain ends with a pass that evaluated each woken entry, so a
  // quiescent WAIT has none — and the image needs no wake state.
  MDBS_CHECK(this_pass_.empty() && next_pass_.empty())
      << "GTM2 snapshot with woken WAIT entries";
  VolatileImage image;
  image.wait.reserve(wait_.size());
  for (const auto& [seq, entry] : wait_) image.wait.push_back(entry.op);
  image.dead_txns = SortedTxns(dead_txns_);
  image.stats = stats_;
  image.scheme_steps = scheme_->steps();
  scheme_->EncodeState(&image.scheme_state);
  return image;
}

void Gtm2::RestoreFromCheckpoint(const VolatileImage& image) {
  MDBS_CHECK(!pumping_ && queue_.empty());
  dead_txns_.clear();
  for (int64_t txn : image.dead_txns) dead_txns_.insert(GlobalTxnId(txn));
  stats_ = image.stats;
  MDBS_CHECK(scheme_->SupportsSnapshot())
      << scheme_->Name() << " cannot restore a checkpoint";
  MDBS_CHECK(
      scheme_->DecodeState(image.scheme_state.data(), image.scheme_state.size()))
      << "undecodable " << scheme_->Name() << " snapshot";
  scheme_->RestoreSteps(image.scheme_steps);
  // Filed after the DS is back: a waiter's classes may read it.
  wait_.clear();
  filed_.clear();
  for (const QueueOp& op : image.wait) AddToWait(op);
}

void Gtm2::ResetForRecovery(std::unique_ptr<Scheme> fresh) {
  MDBS_CHECK(fresh != nullptr);
  queue_.clear();
  wait_.clear();
  filed_.clear();
  this_pass_ = MinHeap();
  next_pass_ = MinHeap();
  cursor_ = -1;
  dead_txns_.clear();
  stats_ = Gtm2Stats{};
  pumping_ = false;
  ser_graph_ = audit::SerGraphAudit();
  scheme_ = std::move(fresh);
  scheme_->EnableTrace(trace_);
}

std::vector<uint8_t> Gtm2::StateFingerprint() const {
  std::vector<uint8_t> out;
  scheme_->EncodeState(&out);
  storage::PutI64(&out, scheme_->steps());
  storage::PutU32(&out, static_cast<uint32_t>(wait_.size()));
  for (const auto& [seq, entry] : wait_) EncodeOp(entry.op, &out);
  std::vector<int64_t> dead = SortedTxns(dead_txns_);
  storage::PutU32(&out, static_cast<uint32_t>(dead.size()));
  for (int64_t txn : dead) storage::PutI64(&out, txn);
  storage::PutI64(&out, stats_.processed_ops);
  storage::PutI64(&out, stats_.wait_additions);
  storage::PutI64(&out, stats_.ser_wait_additions);
  storage::PutI64(&out, stats_.cond_evaluations);
  storage::PutI64(&out, stats_.failed_rescan_steps);
  storage::PutI64(&out, stats_.scheme_aborts);
  return out;
}

}  // namespace mdbs::gtm
