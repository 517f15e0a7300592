#include "gtm/tsgd.h"

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <string>

#include "common/logging.h"

namespace mdbs::gtm {

namespace {

const std::vector<SiteId>& NoSites() {
  static const std::vector<SiteId>& empty = *new std::vector<SiteId>();
  return empty;
}

const std::vector<GlobalTxnId>& NoTxns() {
  static const std::vector<GlobalTxnId>& empty =
      *new std::vector<GlobalTxnId>();
  return empty;
}

void InsertSorted(std::vector<GlobalTxnId>* list, GlobalTxnId txn) {
  list->insert(std::lower_bound(list->begin(), list->end(), txn), txn);
}

void EraseSorted(std::vector<GlobalTxnId>* list, GlobalTxnId txn) {
  auto it = std::lower_bound(list->begin(), list->end(), txn);
  MDBS_CHECK(it != list->end() && *it == txn) << txn << " not in list";
  list->erase(it);
}

void EraseUnsorted(std::vector<GlobalTxnId>* list, GlobalTxnId txn) {
  auto it = std::find(list->begin(), list->end(), txn);
  MDBS_CHECK(it != list->end()) << txn << " not in list";
  *it = list->back();
  list->pop_back();
}

}  // namespace

uint32_t Tsgd::SiteIndexOf(SiteId site) const {
  auto it = site_index_.find(site);
  return it == site_index_.end() ? kNone : it->second;
}

uint32_t Tsgd::SlotOf(GlobalTxnId txn) const {
  auto it = slot_of_.find(txn);
  return it == slot_of_.end() ? kNone : it->second;
}

uint32_t Tsgd::MemberOf(uint32_t u, GlobalTxnId txn) const {
  if (u == kNone) return kNone;
  const std::vector<GlobalTxnId>& txns = sites_[u].txns;
  auto it = std::lower_bound(txns.begin(), txns.end(), txn);
  return it == txns.end() || *it != txn
             ? kNone
             : static_cast<uint32_t>(it - txns.begin());
}

uint32_t Tsgd::EdgeOf(const Node& node, uint32_t u) {
  for (uint32_t e = 0; e < node.site_index.size(); ++e) {
    if (node.site_index[e] == u) return e;
  }
  return kNone;
}

void Tsgd::SetBit(uint32_t u, uint32_t from, uint32_t to, bool value) {
  uint64_t& word = sites_[u].deps[size_t{to} * words_ + from / 64];
  uint64_t mask = uint64_t{1} << (from % 64);
  word = value ? (word | mask) : (word & ~mask);
}

void Tsgd::Reserve(uint32_t capacity) {
  if (capacity <= capacity_) return;
  uint32_t grown = std::max<uint32_t>(64, capacity_);
  while (grown < capacity) grown *= 2;
  uint32_t words = grown / 64;
  for (SiteNode& site : sites_) {
    std::vector<uint64_t> deps(size_t{grown} * words, 0);
    for (uint32_t row = 0; row < capacity_; ++row) {
      std::copy_n(site.deps.begin() + size_t{row} * words_, words_,
                  deps.begin() + size_t{row} * words);
    }
    site.deps = std::move(deps);
  }
  capacity_ = grown;
  words_ = words;
  // The marks only live within one Eliminate_Cycles call: re-lay them out
  // empty.
  used_.assign(sites_.size() * capacity_, 0);
  in_delta_.assign(sites_.size() * capacity_, 0);
  epoch_ = 0;
}

void Tsgd::InsertTxn(GlobalTxnId txn, const std::vector<SiteId>& sites) {
  MDBS_CHECK(!slot_of_.contains(txn)) << txn << " already in TSGD";
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
    Reserve(slot + 1);
  }
  slot_of_.emplace(txn, slot);
  Node& node = nodes_[slot];
  node.id = txn;
  node.sites = sites;
  std::sort(node.sites.begin(), node.sites.end());
  MDBS_CHECK(std::adjacent_find(node.sites.begin(), node.sites.end()) ==
             node.sites.end())
      << txn << " lists a site twice";
  node.site_index.clear();
  node.into.resize(node.sites.size());
  node.out.resize(node.sites.size());
  for (SiteId site : node.sites) {
    uint32_t u = SiteIndexOf(site);
    if (u == kNone) {
      u = static_cast<uint32_t>(sites_.size());
      site_index_.emplace(site, u);
      SiteNode& fresh = sites_.emplace_back();
      fresh.id = site;
      fresh.deps.assign(size_t{capacity_} * words_, 0);
      used_.resize(sites_.size() * capacity_, 0);
      in_delta_.resize(sites_.size() * capacity_, 0);
    }
    node.site_index.push_back(u);
    SiteNode& at = sites_[u];
    auto pos = std::lower_bound(at.txns.begin(), at.txns.end(), txn);
    at.slots.insert(at.slots.begin() + (pos - at.txns.begin()), slot);
    at.flags.insert(at.flags.begin() + (pos - at.txns.begin()), 0);
    at.txns.insert(pos, txn);
  }
}

void Tsgd::RemoveTxn(GlobalTxnId txn) {
  uint32_t slot = SlotOf(txn);
  if (slot == kNone) return;
  Node& node = nodes_[slot];
  for (uint32_t e = 0; e < node.sites.size(); ++e) {
    uint32_t u = node.site_index[e];
    // Drop dependencies at this site that involve txn, both directions.
    for (GlobalTxnId source : node.into[e]) {
      uint32_t other_slot = SlotOf(source);
      Node& other = nodes_[other_slot];
      EraseUnsorted(&other.out[EdgeOf(other, u)], txn);
      SetBit(u, other_slot, slot, false);
      --dep_count_;
    }
    for (GlobalTxnId target : node.out[e]) {
      uint32_t other_slot = SlotOf(target);
      Node& other = nodes_[other_slot];
      EraseSorted(&other.into[EdgeOf(other, u)], txn);
      SetBit(u, slot, other_slot, false);
      --dep_count_;
    }
    node.into[e].clear();
    node.out[e].clear();
    SiteNode& at = sites_[u];
    auto pos = std::lower_bound(at.txns.begin(), at.txns.end(), txn);
    at.slots.erase(at.slots.begin() + (pos - at.txns.begin()));
    at.flags.erase(at.flags.begin() + (pos - at.txns.begin()));
    at.txns.erase(pos);
  }
  node.id = GlobalTxnId();
  slot_of_.erase(txn);
  free_slots_.push_back(slot);
}

const std::vector<SiteId>& Tsgd::SitesOf(GlobalTxnId txn) const {
  uint32_t slot = SlotOf(txn);
  return slot == kNone ? NoSites() : nodes_[slot].sites;
}

const std::vector<GlobalTxnId>& Tsgd::TxnsAt(SiteId site) const {
  uint32_t u = SiteIndexOf(site);
  return u == kNone ? NoTxns() : sites_[u].txns;
}

uint8_t Tsgd::EdgeFlags(GlobalTxnId txn, SiteId site) const {
  uint32_t u = SiteIndexOf(site);
  uint32_t member = MemberOf(u, txn);
  return member == kNone ? 0 : sites_[u].flags[member];
}

void Tsgd::AddEdgeFlags(uint32_t u, uint32_t slot, uint8_t flags) {
  MDBS_CHECK(u < sites_.size() && slot < nodes_.size() &&
             nodes_[slot].id.valid())
      << "no edge (slot " << slot << ", site index " << u << ")";
  uint32_t member = MemberOf(u, nodes_[slot].id);
  MDBS_CHECK(member != kNone) << "no edge (" << nodes_[slot].id << ", "
                              << sites_[u].id << ")";
  sites_[u].flags[member] |= flags;
}

void Tsgd::AddDependency(uint32_t u, uint32_t f, uint32_t t) {
  MDBS_CHECK(u < sites_.size() && f < nodes_.size() && t < nodes_.size() &&
             nodes_[f].id.valid() && nodes_[t].id.valid())
      << "dependency at site index " << u << " from slot " << f
      << " to slot " << t << " names an unknown transaction or site";
  const GlobalTxnId from = nodes_[f].id;
  const GlobalTxnId to = nodes_[t].id;
  MDBS_CHECK(f != t) << "self-dependency on " << from;
  uint32_t from_edge = EdgeOf(nodes_[f], u);
  uint32_t to_edge = EdgeOf(nodes_[t], u);
  MDBS_CHECK(from_edge != kNone && to_edge != kNone)
      << "dependency " << from << " -> " << to << " at " << sites_[u].id
      << " involves a transaction with no edge at the site";
  if (Bit(u, f, t)) return;
  SetBit(u, f, t, true);
  InsertSorted(&nodes_[t].into[to_edge], from);
  nodes_[f].out[from_edge].push_back(to);
  ++dep_count_;
}

bool Tsgd::HasDependency(uint32_t u, uint32_t f, uint32_t t) const {
  return u != kNone && f != kNone && t != kNone && Bit(u, f, t);
}

const std::vector<GlobalTxnId>& Tsgd::DependenciesInto(GlobalTxnId txn,
                                                       SiteId site) const {
  uint32_t slot = SlotOf(txn);
  if (slot == kNone) return NoTxns();
  const Node& node = nodes_[slot];
  for (uint32_t e = 0; e < node.sites.size(); ++e) {
    if (node.sites[e] == site) return node.into[e];
  }
  return NoTxns();
}

namespace {

/// DFS over the directed dependency relation; returns the cycle as txn ids
/// (first == last) when one is reachable from `node`.
bool DepCycleSearch(
    const std::map<GlobalTxnId, std::set<GlobalTxnId>>& succ,
    GlobalTxnId node, std::set<GlobalTxnId>* done,
    std::set<GlobalTxnId>* on_path, std::vector<GlobalTxnId>* path) {
  if (done->contains(node)) return false;
  on_path->insert(node);
  path->push_back(node);
  auto it = succ.find(node);
  if (it != succ.end()) {
    for (GlobalTxnId next : it->second) {
      if (on_path->contains(next)) {
        path->push_back(next);
        return true;
      }
      if (DepCycleSearch(succ, next, done, on_path, path)) return true;
    }
  }
  on_path->erase(node);
  path->pop_back();
  done->insert(node);
  return false;
}

}  // namespace

Status Tsgd::Validate() const {
  auto edge_name = [](GlobalTxnId txn, SiteId site) {
    return "(" + ToString(txn) + ", " + ToString(site) + ")";
  };
  // Slots: the id index and the node table agree.
  size_t live = 0;
  for (uint32_t slot = 0; slot < nodes_.size(); ++slot) {
    const Node& node = nodes_[slot];
    if (!node.id.valid()) continue;
    ++live;
    if (SlotOf(node.id) != slot) {
      return Status::Internal("TSGD: slot of " + ToString(node.id) +
                              " is not indexed");
    }
  }
  if (live != slot_of_.size() ||
      live + free_slots_.size() != nodes_.size()) {
    return Status::Internal("TSGD: " + std::to_string(slot_of_.size()) +
                            " indexed txns, " + std::to_string(live) +
                            " live and " +
                            std::to_string(free_slots_.size()) +
                            " free slots of " +
                            std::to_string(nodes_.size()));
  }
  // Adjacency mirror: every txn edge is a site member and vice versa, and
  // both sides are sorted.
  size_t txn_edges = 0;
  for (const Node& node : nodes_) {
    if (!node.id.valid()) continue;
    if (!std::is_sorted(node.sites.begin(), node.sites.end())) {
      return Status::Internal("TSGD: sites of " + ToString(node.id) +
                              " out of order");
    }
    for (uint32_t e = 0; e < node.sites.size(); ++e) {
      ++txn_edges;
      uint32_t u = node.site_index[e];
      if (u >= sites_.size() || sites_[u].id != node.sites[e] ||
          !std::binary_search(sites_[u].txns.begin(), sites_[u].txns.end(),
                              node.id)) {
        return Status::Internal("TSGD: edge " +
                                edge_name(node.id, node.sites[e]) +
                                " missing from the site side");
      }
    }
  }
  size_t site_edges = 0;
  for (uint32_t u = 0; u < sites_.size(); ++u) {
    const SiteNode& site = sites_[u];
    if (!std::is_sorted(site.txns.begin(), site.txns.end()) ||
        site.txns.size() != site.slots.size() ||
        site.txns.size() != site.flags.size()) {
      return Status::Internal("TSGD: members of " + ToString(site.id) +
                              " out of order");
    }
    for (size_t i = 0; i < site.txns.size(); ++i) {
      ++site_edges;
      if (SlotOf(site.txns[i]) != site.slots[i] ||
          EdgeOf(nodes_[site.slots[i]], u) == kNone) {
        return Status::Internal("TSGD: edge " +
                                edge_name(site.txns[i], site.id) +
                                " missing from the txn side");
      }
    }
  }
  if (txn_edges != site_edges) {
    return Status::Internal("TSGD: " + std::to_string(txn_edges) +
                            " txn-side edges != " +
                            std::to_string(site_edges) + " site-side edges");
  }
  // Dependencies: endpoints share the site, the incoming lists, outgoing
  // lists and bit matrices mirror each other, counts match.
  size_t into_count = 0;
  size_t out_count = 0;
  for (const Node& node : nodes_) {
    if (!node.id.valid()) continue;
    for (uint32_t e = 0; e < node.sites.size(); ++e) {
      uint32_t u = node.site_index[e];
      SiteId site = node.sites[e];
      if (!std::is_sorted(node.into[e].begin(), node.into[e].end())) {
        return Status::Internal("TSGD: dependencies into " +
                                edge_name(node.id, site) + " out of order");
      }
      into_count += node.into[e].size();
      out_count += node.out[e].size();
      for (GlobalTxnId from : node.into[e]) {
        uint32_t f = SlotOf(from);
        if (f == kNone || EdgeOf(nodes_[f], u) == kNone) {
          return Status::Internal(
              "TSGD: dependency (" + ToString(from) + ", " +
              ToString(site) + ") -> (" + ToString(site) + ", " +
              ToString(node.id) + ") involves " + ToString(from) +
              " which has no edge at the site");
        }
        const std::vector<GlobalTxnId>& out =
            nodes_[f].out[EdgeOf(nodes_[f], u)];
        if (std::find(out.begin(), out.end(), node.id) == out.end() ||
            !Bit(u, f, SlotOf(node.id))) {
          return Status::Internal("TSGD: dependency (" + ToString(from) +
                                  " -> " + ToString(node.id) + " at " +
                                  ToString(site) +
                                  ") missing from the from side");
        }
      }
    }
  }
  size_t bit_count = 0;
  for (const SiteNode& site : sites_) {
    for (uint64_t word : site.deps) bit_count += std::popcount(word);
  }
  if (into_count != dep_count_ || out_count != dep_count_ ||
      bit_count != dep_count_) {
    return Status::Internal(
        "TSGD: dependency count " + std::to_string(dep_count_) +
        " != into-side " + std::to_string(into_count) + " / from-side " +
        std::to_string(out_count) + " / matrix " +
        std::to_string(bit_count));
  }
  // The directed dependency relation, across all sites, must be acyclic.
  std::map<GlobalTxnId, std::set<GlobalTxnId>> succ;
  for (const Node& node : nodes_) {
    if (!node.id.valid()) continue;
    for (const std::vector<GlobalTxnId>& tos : node.out) {
      if (!tos.empty()) succ[node.id].insert(tos.begin(), tos.end());
    }
  }
  std::set<GlobalTxnId> done;
  for (const auto& [node, targets] : succ) {
    (void)targets;
    std::set<GlobalTxnId> on_path;
    std::vector<GlobalTxnId> path;
    if (DepCycleSearch(succ, node, &done, &on_path, &path)) {
      // Trim the lead-in: the cycle starts at the first occurrence of the
      // repeated node.
      auto start = std::find(path.begin(), path.end(), path.back());
      path.erase(path.begin(), start);
      std::string cycle;
      for (GlobalTxnId member : path) {
        if (!cycle.empty()) cycle += " -> ";
        cycle += ToString(member);
      }
      return Status::Internal("TSGD: dependency cycle " + cycle);
    }
  }
  return Status::OK();
}

bool Tsgd::CycleSearch(GlobalTxnId origin, GlobalTxnId current,
                       std::set<GlobalTxnId>* txns_on_path,
                       std::set<SiteId>* sites_on_path) const {
  for (SiteId site : SitesOf(current)) {
    if (sites_on_path->contains(site)) continue;
    for (GlobalTxnId next : TxnsAt(site)) {
      if (next == current) continue;
      // Traversal current -> site -> next means "current serializes before
      // next at site"; the opposing dependency forbids that orientation.
      if (HasDependency(SiteIndexOf(site), SlotOf(next), SlotOf(current))) {
        continue;
      }
      if (next == origin) {
        if (txns_on_path->size() >= 2) return true;
        continue;
      }
      if (txns_on_path->contains(next)) continue;
      txns_on_path->insert(next);
      sites_on_path->insert(site);
      if (CycleSearch(origin, next, txns_on_path, sites_on_path)) {
        return true;
      }
      txns_on_path->erase(next);
      sites_on_path->erase(site);
    }
  }
  return false;
}

bool Tsgd::HasCycleInvolving(GlobalTxnId txn) const {
  if (!HasTxn(txn)) return false;
  std::set<GlobalTxnId> txns_on_path{txn};
  std::set<SiteId> sites_on_path;
  return CycleSearch(txn, txn, &txns_on_path, &sites_on_path);
}

void Tsgd::NewEpoch() const {
  if (++epoch_ == 0) {
    std::fill(used_.begin(), used_.end(), 0);
    std::fill(in_delta_.begin(), in_delta_.end(), 0);
    epoch_ = 1;
  }
}

std::vector<Dependency> Tsgd::EliminateCycles(GlobalTxnId origin,
                                              int64_t* steps) const {
  // Figure 4 of the paper. The procedure walks the TSGD from `origin` in
  // reverse serialization direction; whenever a walk can close back into
  // `origin` through site u from transaction v, the dependency
  // (v, u) -> (u, origin) is added to Δ, committing v before origin at u
  // and thereby breaking that cycle.
  //
  // Figure 4 rescans v's candidate pairs (v,u),(u,w) from the first one
  // each time it returns to v. Every reason to skip a candidate only grows
  // within one call — w == v, (u,w) already used, a dependency v -> w at u,
  // (u, v, origin) already in Δ — so every candidate before the one last
  // taken would be skipped again. Each frame therefore resumes at its
  // cursor: the same moves, the same Δ in the same order, without the
  // re-examinations.
  std::vector<Dependency> delta;
  const uint32_t o = SlotOf(origin);
  if (o == kNone) return delta;
  NewEpoch();
  const uint32_t epoch = epoch_;
  int64_t examined = 0;
  frames_.clear();
  frames_.push_back(Frame{o, kNone, 0, 0});
  int64_t guard = 0;
  while (!frames_.empty()) {
    MDBS_CHECK(++guard < (1 << 26)) << "Eliminate_Cycles runaway";
    // Steps 2-3: look for a traversable pair of edges (v,u),(u,w).
    Frame& frame = frames_.back();
    const uint32_t v = frame.v;
    const Node& node = nodes_[v];
    uint32_t next = kNone;  // The slot to descend into.
    uint32_t next_site = kNone;
    for (; frame.site < node.site_index.size();
         ++frame.site, frame.member = 0) {
      const uint32_t u = node.site_index[frame.site];
      if (u == frame.entry) continue;
      const SiteNode& site = sites_[u];
      const size_t base = size_t{u} * capacity_;
      while (frame.member < site.slots.size()) {
        const uint32_t w = site.slots[frame.member++];
        ++examined;
        if (w == v) continue;
        if (w == o) {
          if (in_delta_[base + v] == epoch || Bit(u, v, w)) continue;
          in_delta_[base + v] = epoch;
          delta.push_back(Dependency{site.id, node.id, origin, u, v, o});
          continue;  // Stay at v and keep searching.
        }
        if (used_[base + w] == epoch || Bit(u, v, w)) continue;
        used_[base + w] = epoch;
        next = w;
        next_site = u;
        break;
      }
      if (next != kNone) break;
    }
    if (next != kNone) {
      frames_.push_back(Frame{next, next_site, 0, 0});
    } else {
      // Step 4: backtrack; step 5: done once origin's frame is exhausted.
      frames_.pop_back();
    }
  }
  if (steps != nullptr) *steps += examined;
  return delta;
}

std::vector<GlobalTxnId> Tsgd::Txns() const {
  std::vector<GlobalTxnId> txns;
  txns.reserve(slot_of_.size());
  for (const auto& [txn, slot] : slot_of_) txns.push_back(txn);
  std::sort(txns.begin(), txns.end());
  return txns;
}

std::vector<Dependency> Tsgd::AllDependencies() const {
  std::vector<Dependency> deps;
  deps.reserve(dep_count_);
  for (const Node& node : nodes_) {
    if (!node.id.valid()) continue;
    for (uint32_t e = 0; e < node.sites.size(); ++e) {
      for (GlobalTxnId to : node.out[e]) {
        deps.push_back(Dependency{node.sites[e], node.id, to});
      }
    }
  }
  std::sort(deps.begin(), deps.end(), [](const Dependency& a,
                                         const Dependency& b) {
    if (a.site != b.site) return a.site < b.site;
    if (a.from != b.from) return a.from < b.from;
    return a.to < b.to;
  });
  return deps;
}

}  // namespace mdbs::gtm
