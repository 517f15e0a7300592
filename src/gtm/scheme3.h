#ifndef MDBS_GTM_SCHEME3_H_
#define MDBS_GTM_SCHEME3_H_

#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gtm/scheme.h"

namespace mdbs::gtm {

/// Scheme 3, the O-scheme that permits all serializable schedules (paper
/// §7). Per transaction it maintains ser_bef(G̃_i) — the transitively closed
/// set of transactions serialized before G̃_i — and per site the last
/// transaction whose ser operation executed (last_k) and the set of
/// transactions announced but not yet executed there (set_k).
///
///   act(init_i)  adds G̃_i to set_k of its sites and seeds ser_bef(G̃_i)
///                with last_k and its ancestors;
///   cond(ser)    ser_k(G̃_i) may run unless some member of set_k is already
///                serialized before G̃_i (executing now would serialize G̃_i
///                before it too — a cycle), or the previous ser at the site
///                is not yet acked (the physical order must be pinned);
///   act(ser)     G̃_i precedes everything still pending at the site:
///                ser_bef of those transactions — and, for transitive
///                closure, of every transaction downstream of them — gains
///                ser_bef(G̃_i) ∪ {G̃_i};
///   cond(fin)    ser_bef(G̃_i) = ∅ — everything serialized before G̃_i has
///                finished, so G̃_i can be forgotten safely;
///   act(fin)     removes G̃_i everywhere.
///
/// Because the only ser-waits are those forced by a genuine
/// serialized-before relation, Scheme 3 never delays an operation stream
/// whose immediate processing is serializable — the "all serializable
/// schedules" property (Theorem 8 + §7). Complexity O(n^2 * dav)
/// (Theorem 9).
class Scheme3 : public ConservativeSchemeBase {
 public:
  /// `pin_acks` disables only the "previous ser at this site must be
  /// acked" half of cond(ser) when false — an ablation (bench E8) showing
  /// that without pinning the site's physical execution order, ser(S)
  /// serializability is lost even though the logical checks all pass.
  explicit Scheme3(bool pin_acks = true) : pin_acks_(pin_acks) {}

  SchemeKind kind() const override { return SchemeKind::kScheme3; }
  const char* Name() const override {
    return pin_acks_ ? "Scheme3-O" : "Scheme3-nopin";
  }
  /// The nopin ablation deliberately loses ser(S) serializability, so it
  /// must not claim the conservative guarantees the audit layer enforces.
  bool IsConservative() const override { return pin_acks_; }

  Status CheckStructuralInvariants() const override;
  Status AuditSerRelease(GlobalTxnId txn, SiteId site) const override;

  bool SupportsSnapshot() const override { return true; }
  void EncodeState(std::vector<uint8_t>* out) const override;
  bool DecodeState(const uint8_t* data, size_t size) override;

  /// cond(ser@s) reads last_s's ack, set_s and the waiter's ser_bef. At
  /// s, ack@s acks last_s and ser@s shrinks set_s; elsewhere only acts
  /// that grow ser_bef or set_s run, which cannot unblock it. cond(fin)
  /// waits for ser_bef to empty, and fin's RemoveEverywhere shrinks every
  /// ser_bef (and clears last_s). So ack@s and ser@s wake the ser waiters
  /// at s, and fin wakes every waiter.
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

  /// ser_bef(txn); empty set when unknown (tests).
  const std::set<GlobalTxnId>& SerBef(GlobalTxnId txn) const;

 private:
  void RemoveEverywhere(GlobalTxnId txn);

  bool pin_acks_;
  std::unordered_map<GlobalTxnId, std::set<GlobalTxnId>> ser_bef_;
  std::unordered_map<GlobalTxnId, std::vector<SiteId>> sites_;
  std::unordered_map<SiteId, GlobalTxnId> last_;
  /// Per site: transactions whose ser executed there, in execution order,
  /// erased on fin/abort. A new announcement inherits ser_bef of the LAST
  /// live entry (plus the entry itself), freshly at init time. Tracking the
  /// history instead of only last_k preserves the ordering constraint when
  /// the most recent transaction aborts: its predecessor — whose ser also
  /// already executed at the site — takes over as the constraint source.
  /// Deriving the floor from last_ alone loses exactly that, and lets two
  /// survivors release their sers in opposite orders at two sites (an
  /// abstract ser(S) cycle).
  std::unordered_map<SiteId, std::vector<GlobalTxnId>> released_live_;
  std::unordered_map<SiteId, std::set<GlobalTxnId>> pending_;
  std::set<std::pair<int64_t, int64_t>> acked_;  // (txn, site)
};

}  // namespace mdbs::gtm

#endif  // MDBS_GTM_SCHEME3_H_
