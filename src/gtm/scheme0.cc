#include "gtm/scheme0.h"

#include <algorithm>

#include "common/logging.h"
#include "storage/framing.h"

namespace mdbs::gtm {

void Scheme0::ActInit(const QueueOp& op) {
  for (SiteId site : op.sites) {
    queues_[site].push_back(op.txn);
    AddSteps(1);
  }
}

Verdict Scheme0::CondSer(GlobalTxnId txn, SiteId site) {
  AddSteps(1);
  auto it = queues_.find(site);
  MDBS_CHECK(it != queues_.end() && !it->second.empty())
      << "ser for " << txn << " with empty queue at " << site;
  return it->second.front() == txn ? Verdict::kReady : Verdict::kWait;
}

void Scheme0::ActSer(GlobalTxnId, SiteId) { AddSteps(1); }

void Scheme0::ActAck(GlobalTxnId txn, SiteId site) {
  AddSteps(1);
  auto it = queues_.find(site);
  MDBS_CHECK(it != queues_.end() && !it->second.empty() &&
             it->second.front() == txn)
      << "ack for " << txn << " that is not at the front of " << site;
  it->second.pop_front();
  if (it->second.empty()) queues_.erase(it);
}

bool Scheme0::WakeClasses(const QueueOp& op,
                          std::vector<WakeClass>* out) const {
  if (op.kind == QueueOpKind::kAck) {
    out->push_back(WakeClass{QueueOpKind::kSer, op.site});
  }
  return true;
}

Verdict Scheme0::CondFin(GlobalTxnId) {
  AddSteps(1);
  return Verdict::kReady;
}

void Scheme0::ActFin(GlobalTxnId) { AddSteps(1); }

void Scheme0::ActAbortCleanup(GlobalTxnId txn) {
  for (auto it = queues_.begin(); it != queues_.end();) {
    auto& queue = it->second;
    queue.erase(std::remove(queue.begin(), queue.end(), txn), queue.end());
    it = queue.empty() ? queues_.erase(it) : std::next(it);
  }
}

Status Scheme0::CheckStructuralInvariants() const {
  for (const auto& [site, queue] : queues_) {
    if (queue.empty()) {
      return Status::Internal("Scheme0: empty queue retained for " +
                              ToString(site));
    }
    std::unordered_map<GlobalTxnId, int> seen;
    for (GlobalTxnId txn : queue) {
      if (++seen[txn] > 1) {
        return Status::Internal("Scheme0: " + ToString(txn) +
                                " enqueued twice at " + ToString(site));
      }
    }
  }
  return Status::OK();
}

Status Scheme0::AuditSerRelease(GlobalTxnId txn, SiteId site) const {
  auto it = queues_.find(site);
  if (it == queues_.end() || it->second.empty()) {
    return Status::Internal("Scheme0: ser(" + ToString(txn) + "@" +
                            ToString(site) + ") released with no queue");
  }
  if (it->second.front() != txn) {
    return Status::Internal("Scheme0: ser(" + ToString(txn) + "@" +
                            ToString(site) + ") released but " +
                            ToString(it->second.front()) +
                            " heads the FIFO queue");
  }
  return Status::OK();
}

size_t Scheme0::QueueLength(SiteId site) const {
  auto it = queues_.find(site);
  return it == queues_.end() ? 0 : it->second.size();
}


void Scheme0::EncodeState(std::vector<uint8_t>* out) const {
  std::vector<SiteId> sites;
  sites.reserve(queues_.size());
  for (const auto& [site, queue] : queues_) sites.push_back(site);
  std::sort(sites.begin(), sites.end());
  storage::PutU32(out, static_cast<uint32_t>(sites.size()));
  for (SiteId site : sites) {
    const std::deque<GlobalTxnId>& queue = queues_.at(site);
    storage::PutI64(out, site.value());
    storage::PutU32(out, static_cast<uint32_t>(queue.size()));
    for (GlobalTxnId txn : queue) storage::PutI64(out, txn.value());
  }
}

bool Scheme0::DecodeState(const uint8_t* data, size_t size) {
  queues_.clear();
  storage::Cursor c(data, size);
  uint32_t n_sites = c.U32();
  if (!c.ok()) return false;
  for (uint32_t i = 0; i < n_sites && c.ok(); ++i) {
    SiteId site(c.I64());
    uint32_t n = c.U32();
    if (!c.ok()) return false;
    std::deque<GlobalTxnId>& queue = queues_[site];
    for (uint32_t j = 0; j < n && c.ok(); ++j) {
      queue.push_back(GlobalTxnId(c.I64()));
    }
  }
  return c.ok() && c.exhausted();
}

}  // namespace mdbs::gtm
