#include "gtm/scheme2.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/logging.h"
#include "storage/framing.h"

namespace mdbs::gtm {

void Scheme2::ActInit(const QueueOp& op) {
  tsgd_.InsertTxn(op.txn, op.sites);
  const uint32_t slot = tsgd_.SlotOf(op.txn);
  // Dependencies from every already-executed ser operation at each site:
  // those transactions are serialized before G̃_i there.
  for (SiteId site : op.sites) {
    const uint32_t u = tsgd_.SiteIndexOf(site);
    const std::vector<GlobalTxnId>& members = tsgd_.TxnsAt(site);
    const std::vector<uint32_t>& slots = tsgd_.SlotsAt(u);
    const std::vector<uint8_t>& flags = tsgd_.FlagsAt(u);
    for (size_t i = 0; i < members.size(); ++i) {
      AddSteps(1);
      if (slots[i] == slot) continue;
      if ((flags[i] & kExecuted) != 0) {
        tsgd_.AddDependency(u, slots[i], slot);
        if (trace_ != nullptr) {
          trace_->Record(obs::TraceEventKind::kDepAdd, op.txn.value(),
                         site.value(), members[i].value(), op.txn.value(),
                         "executed");
        }
      }
    }
  }
  // Δ from Eliminate_Cycles breaks every remaining potential cycle through
  // G̃_i. A single pass suffices (Figure 4); the fixpoint loop guards the
  // invariant even for adversarial interleavings.
  for (int pass = 0; pass < 64; ++pass) {
    int64_t steps = 0;
    std::vector<Dependency> delta = tsgd_.EliminateCycles(op.txn, &steps);
    AddSteps(steps);
    if (delta.empty()) break;
    for (const Dependency& dep : delta) {
      tsgd_.AddDependency(dep.site_index, dep.from_slot, dep.to_slot);
      if (trace_ != nullptr) {
        trace_->Record(obs::TraceEventKind::kDepAdd, op.txn.value(),
                       dep.site.value(), dep.from.value(), dep.to.value(),
                       "delta");
      }
    }
  }
  if (validate_acyclicity_) {
    MDBS_CHECK(!tsgd_.HasCycleInvolving(op.txn))
        << "TSGD cycle involving " << op.txn << " survived Eliminate_Cycles";
  }
}

Status Scheme2::CheckStructuralInvariants() const {
  // The executed/acked flags live on the TSGD's edges, so a flag on a
  // removed edge (a stale marker) cannot exist; Validate checks that every
  // site keeps one flag byte per member.
  MDBS_RETURN_IF_ERROR(tsgd_.Validate());
  // An acked ser was necessarily executed first.
  for (const auto& [txn, site] : EdgesFlagged(kAcked)) {
    if ((tsgd_.EdgeFlags(txn, site) & kExecuted) == 0) {
      return Status::Internal("Scheme2: (" + ToString(txn) + ", " +
                              ToString(site) + ") acked but never executed");
    }
  }
  return Status::OK();
}

std::vector<std::pair<GlobalTxnId, SiteId>> Scheme2::EdgesFlagged(
    uint8_t flag) const {
  std::vector<std::pair<GlobalTxnId, SiteId>> edges;
  for (GlobalTxnId txn : tsgd_.Txns()) {
    for (SiteId site : tsgd_.SitesOf(txn)) {
      if ((tsgd_.EdgeFlags(txn, site) & flag) != 0) {
        edges.emplace_back(txn, site);
      }
    }
  }
  return edges;
}

bool Scheme2::WakeClasses(const QueueOp& op,
                          std::vector<WakeClass>* out) const {
  if (op.kind == QueueOpKind::kAck) {
    out->push_back(WakeClass{QueueOpKind::kSer, op.site});
  } else if (op.kind == QueueOpKind::kFin) {
    out->push_back(WakeClass{QueueOpKind::kFin, SiteId()});
  }
  return true;
}

Status Scheme2::AuditSerRelease(GlobalTxnId txn, SiteId site) const {
  if (!tsgd_.HasTxn(txn)) {
    return Status::Internal("Scheme2: ser(" + ToString(txn) + "@" +
                            ToString(site) + ") released for unknown txn");
  }
  for (GlobalTxnId source : tsgd_.DependenciesInto(txn, site)) {
    if (!Acked(source, site)) {
      return Status::Internal(
          "Scheme2: ser(" + ToString(txn) + "@" + ToString(site) +
          ") released before its dependency source " + ToString(source) +
          " was acked");
    }
  }
  return Status::OK();
}

Verdict Scheme2::CondSer(GlobalTxnId txn, SiteId site) {
  for (GlobalTxnId source : tsgd_.DependenciesInto(txn, site)) {
    AddSteps(1);
    if (!Acked(source, site)) return Verdict::kWait;
  }
  return Verdict::kReady;
}

void Scheme2::ActSer(GlobalTxnId txn, SiteId site) {
  const uint32_t u = tsgd_.SiteIndexOf(site);
  const uint32_t slot = tsgd_.SlotOf(txn);
  tsgd_.AddEdgeFlags(u, slot, kExecuted);
  // The execution order is now fixed: G̃_i precedes every ser operation at
  // this site that has not executed yet.
  const std::vector<GlobalTxnId>& members = tsgd_.TxnsAt(site);
  const std::vector<uint32_t>& slots = tsgd_.SlotsAt(u);
  const std::vector<uint8_t>& flags = tsgd_.FlagsAt(u);
  for (size_t i = 0; i < members.size(); ++i) {
    AddSteps(1);
    if (slots[i] == slot || (flags[i] & kExecuted) != 0) continue;
    tsgd_.AddDependency(u, slot, slots[i]);
    if (trace_ != nullptr) {
      trace_->Record(obs::TraceEventKind::kDepAdd, txn.value(), site.value(),
                     txn.value(), members[i].value(), "order");
    }
  }
}

void Scheme2::ActAck(GlobalTxnId txn, SiteId site) {
  AddSteps(1);
  tsgd_.AddEdgeFlags(tsgd_.SiteIndexOf(site), tsgd_.SlotOf(txn), kAcked);
}

Verdict Scheme2::CondFin(GlobalTxnId txn) {
  for (SiteId site : tsgd_.SitesOf(txn)) {
    AddSteps(1);
    if (tsgd_.HasDependenciesInto(txn, site)) return Verdict::kWait;
  }
  return Verdict::kReady;
}

void Scheme2::ActFin(GlobalTxnId txn) {
  // One step per edge retired (its flags go with it).
  AddSteps(static_cast<int64_t>(tsgd_.SitesOf(txn).size()));
  TraceDepDrop(txn, "fin");
  tsgd_.RemoveTxn(txn);
}

void Scheme2::ActAbortCleanup(GlobalTxnId txn) {
  TraceDepDrop(txn, "abort");
  tsgd_.RemoveTxn(txn);
}

void Scheme2::TraceDepDrop(GlobalTxnId txn, const char* why) {
  if (trace_ == nullptr) return;
  int64_t incoming = 0;
  for (SiteId site : tsgd_.SitesOf(txn)) {
    incoming += static_cast<int64_t>(tsgd_.DependenciesInto(txn, site).size());
  }
  trace_->Record(obs::TraceEventKind::kDepDrop, txn.value(), -1, incoming, 0,
                 why);
}


void Scheme2::EncodeState(std::vector<uint8_t>* out) const {
  std::vector<GlobalTxnId> txns = tsgd_.Txns();
  storage::PutU32(out, static_cast<uint32_t>(txns.size()));
  for (GlobalTxnId txn : txns) {
    storage::PutI64(out, txn.value());
    const std::vector<SiteId>& txn_sites = tsgd_.SitesOf(txn);
    storage::PutU32(out, static_cast<uint32_t>(txn_sites.size()));
    for (SiteId site : txn_sites) storage::PutI64(out, site.value());
  }
  std::vector<Dependency> deps = tsgd_.AllDependencies();
  storage::PutU32(out, static_cast<uint32_t>(deps.size()));
  for (const Dependency& dep : deps) {
    storage::PutI64(out, dep.site.value());
    storage::PutI64(out, dep.from.value());
    storage::PutI64(out, dep.to.value());
  }
  for (uint8_t flag : {kExecuted, kAcked}) {
    std::vector<std::pair<GlobalTxnId, SiteId>> edges = EdgesFlagged(flag);
    storage::PutU32(out, static_cast<uint32_t>(edges.size()));
    for (const auto& [txn, site] : edges) {
      storage::PutI64(out, txn.value());
      storage::PutI64(out, site.value());
    }
  }
}

bool Scheme2::DecodeState(const uint8_t* data, size_t size) {
  storage::Cursor c(data, size);
  tsgd_ = Tsgd();
  uint32_t n_txns = c.U32();
  if (!c.ok()) return false;
  for (uint32_t i = 0; i < n_txns && c.ok(); ++i) {
    GlobalTxnId txn(c.I64());
    uint32_t n_sites = c.U32();
    if (!c.ok()) return false;
    std::vector<SiteId> txn_sites;
    txn_sites.reserve(n_sites);
    for (uint32_t j = 0; j < n_sites && c.ok(); ++j) {
      txn_sites.push_back(SiteId(c.I64()));
    }
    if (!c.ok()) return false;
    tsgd_.InsertTxn(txn, txn_sites);
  }
  uint32_t n_deps = c.U32();
  if (!c.ok()) return false;
  for (uint32_t i = 0; i < n_deps && c.ok(); ++i) {
    SiteId site(c.I64());
    GlobalTxnId from(c.I64());
    GlobalTxnId to(c.I64());
    if (!c.ok()) return false;
    auto has_edge = [&](GlobalTxnId txn) {
      const std::vector<SiteId>& sites = tsgd_.SitesOf(txn);
      return std::binary_search(sites.begin(), sites.end(), site);
    };
    if (!has_edge(from) || !has_edge(to)) return false;
    tsgd_.AddDependency(tsgd_.SiteIndexOf(site), tsgd_.SlotOf(from),
                        tsgd_.SlotOf(to));
  }
  for (uint8_t flag : {kExecuted, kAcked}) {
    uint32_t n_flagged = c.U32();
    if (!c.ok()) return false;
    for (uint32_t i = 0; i < n_flagged && c.ok(); ++i) {
      GlobalTxnId txn(c.I64());
      SiteId site(c.I64());
      if (!c.ok()) return false;
      const std::vector<SiteId>& sites = tsgd_.SitesOf(txn);
      if (!std::binary_search(sites.begin(), sites.end(), site)) return false;
      tsgd_.AddEdgeFlags(tsgd_.SiteIndexOf(site), tsgd_.SlotOf(txn), flag);
    }
  }
  return c.ok() && c.exhausted();
}

}  // namespace mdbs::gtm
