#ifndef MDBS_GTM_SCHEME0_H_
#define MDBS_GTM_SCHEME0_H_

#include <deque>
#include <unordered_map>

#include "gtm/scheme.h"

namespace mdbs::gtm {

/// Scheme 0 (paper §4): a conservative-TO-like BT-scheme. One FIFO queue
/// per site; act(init_i) enqueues every ser_k(G_i) at its site's queue, a
/// ser operation may execute only at the front of its queue, and the ack
/// dequeues it. Transactions are therefore serialized in init-processing
/// order. Complexity O(dav) per transaction (Theorem: §4); lowest degree of
/// concurrency of the four schemes.
class Scheme0 : public ConservativeSchemeBase {
 public:
  SchemeKind kind() const override { return SchemeKind::kScheme0; }
  const char* Name() const override { return "Scheme0"; }
  bool IsConservative() const override { return true; }

  Status CheckStructuralInvariants() const override;
  Status AuditSerRelease(GlobalTxnId txn, SiteId site) const override;

  bool SupportsSnapshot() const override { return true; }
  void EncodeState(std::vector<uint8_t>* out) const override;
  bool DecodeState(const uint8_t* data, size_t size) override;

  /// Only ser operations wait, on the head of their site's queue, and only
  /// ack@s pops that head: ack@s wakes the ser waiters at s.
  bool DeclaresWakeups() const override { return true; }
  bool WakeClasses(const QueueOp& op,
                   std::vector<WakeClass>* out) const override;

  void ActInit(const QueueOp& op) override;
  Verdict CondSer(GlobalTxnId txn, SiteId site) override;
  void ActSer(GlobalTxnId txn, SiteId site) override;
  void ActAck(GlobalTxnId txn, SiteId site) override;
  Verdict CondFin(GlobalTxnId txn) override;
  void ActFin(GlobalTxnId txn) override;
  void ActAbortCleanup(GlobalTxnId txn) override;

  /// Queue length at `site` (tests).
  size_t QueueLength(SiteId site) const;

 private:
  std::unordered_map<SiteId, std::deque<GlobalTxnId>> queues_;
};

/// The "no global control" strawman: every operation is released
/// immediately. Global serializability is NOT guaranteed — experiment E4
/// uses it to demonstrate the violations caused by indirect conflicts.
class SchemeNone : public ConservativeSchemeBase {
 public:
  SchemeKind kind() const override { return SchemeKind::kNone; }
  const char* Name() const override { return "NoControl"; }

  void ActInit(const QueueOp&) override {}
  Verdict CondSer(GlobalTxnId, SiteId) override { return Verdict::kReady; }
  void ActSer(GlobalTxnId, SiteId) override {}
  void ActAck(GlobalTxnId, SiteId) override {}
  Verdict CondFin(GlobalTxnId) override { return Verdict::kReady; }
  void ActFin(GlobalTxnId) override {}
  void ActAbortCleanup(GlobalTxnId) override {}

  /// Stateless, so the base's empty encoding is the whole snapshot.
  bool SupportsSnapshot() const override { return true; }
};

}  // namespace mdbs::gtm

#endif  // MDBS_GTM_SCHEME0_H_
