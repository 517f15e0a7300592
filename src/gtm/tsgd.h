#ifndef MDBS_GTM_TSGD_H_
#define MDBS_GTM_TSGD_H_

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/status.h"

namespace mdbs::gtm {

/// No TSGD slot or site index.
inline constexpr uint32_t kNoTsgdIndex = UINT32_MAX;

/// A dependency (from, s) -> (s, to): ser_s(from) is (or must be) processed
/// before ser_s(to), i.e. `from` serializes before `to` at site `s`.
struct Dependency {
  SiteId site;
  GlobalTxnId from;
  GlobalTxnId to;
  /// The TSGD's site index of `site` and slots of `from` and `to`, when
  /// the producer knew them (Tsgd::EliminateCycles does). Valid while both
  /// transactions stay in the graph; equality ignores them.
  uint32_t site_index = kNoTsgdIndex;
  uint32_t from_slot = kNoTsgdIndex;
  uint32_t to_slot = kNoTsgdIndex;

  friend bool operator==(const Dependency& a, const Dependency& b) {
    return a.site == b.site && a.from == b.from && a.to == b.to;
  }
};

/// The Transaction-Site Graph with Dependencies of Scheme 2 (paper §6):
/// the bipartite TSG plus a set D of dependencies between edges incident on
/// a common site node.
///
/// Cycle semantics (§6, spelled out): a *cycle* is a simple alternating
/// node cycle G_1, s_1, G_2, ..., G_p, s_p (all transaction nodes distinct,
/// all site nodes distinct, p >= 2) together with an orientation such that
/// no junction is contradicted: traversing G_i -> s_i -> G_{i+1} is
/// permitted unless D contains the opposing dependency
/// (G_{i+1}, s_i) -> (s_i, G_i). A dependency therefore *breaks* every
/// potential serialization cycle that would order its transactions the
/// other way; with no dependencies at all, every graph cycle is a TSGD
/// cycle, degenerating to Scheme 1's TSG.
///
/// Layout (DESIGN.md §2): live transactions occupy dense, reused slots and
/// sites dense indices. A transaction keeps its slot until it is removed
/// and a site its index forever; the calls that a scheme makes per member
/// of a site take these indices, so a caller looks an id up once and not
/// once per member. Each site keeps its members id-sorted and a bit
/// matrix of its dependencies (row = `to` slot, column = `from` slot), so
/// the dependency test is one bit; each (txn, site) edge keeps its incoming
/// sources id-sorted and its outgoing targets, for in-place iteration and
/// removal, and a byte of scheme flags beside its site-side entry.
class Tsgd {
 public:
  /// Inserts `txn` with one edge per site. `txn` must be absent.
  void InsertTxn(GlobalTxnId txn, const std::vector<SiteId>& sites);

  /// Removes `txn`, its edges, and every dependency involving it.
  void RemoveTxn(GlobalTxnId txn);

  bool HasTxn(GlobalTxnId txn) const { return slot_of_.contains(txn); }
  /// The sites of `txn`, in id order (empty when absent).
  const std::vector<SiteId>& SitesOf(GlobalTxnId txn) const;
  /// Transactions with an edge at `site`, in id order (deterministic).
  const std::vector<GlobalTxnId>& TxnsAt(SiteId site) const;

  /// The slot of a live `txn` / the index of a known `site`; kNoTsgdIndex
  /// otherwise.
  uint32_t SlotOf(GlobalTxnId txn) const;
  uint32_t SiteIndexOf(SiteId site) const;
  /// The slots of the members of `u`, a known site index, parallel to
  /// TxnsAt.
  const std::vector<uint32_t>& SlotsAt(uint32_t u) const {
    return sites_[u].slots;
  }

  /// Adds (from, u) -> (u, to) between two slots at site index `u`. Both
  /// transactions must have an edge at the site; adding a present
  /// dependency is a no-op.
  void AddDependency(uint32_t u, uint32_t from, uint32_t to);
  /// Whether (from, u) -> (u, to) is present; false for kNoTsgdIndex
  /// arguments.
  bool HasDependency(uint32_t u, uint32_t from, uint32_t to) const;
  /// Sources of dependencies (·, site) -> (site, txn), in id order. The
  /// reference is valid until the next mutation.
  const std::vector<GlobalTxnId>& DependenciesInto(GlobalTxnId txn,
                                                   SiteId site) const;
  bool HasDependenciesInto(GlobalTxnId txn, SiteId site) const {
    return !DependenciesInto(txn, site).empty();
  }

  /// Per-edge flags a scheme keeps on (txn, site) (Scheme 2: ser executed,
  /// ser acked). An edge starts with none and takes them with it when its
  /// transaction is removed.
  uint8_t EdgeFlags(GlobalTxnId txn, SiteId site) const;
  /// Adds `flags` to the edge between site index `u` and slot `slot`,
  /// which must exist.
  void AddEdgeFlags(uint32_t u, uint32_t slot, uint8_t flags);
  /// The flags of the edges at `u`, a known site index, parallel to
  /// TxnsAt.
  const std::vector<uint8_t>& FlagsAt(uint32_t u) const {
    return sites_[u].flags;
  }

  size_t TxnCount() const { return slot_of_.size(); }
  size_t DependencyCount() const { return dep_count_; }

  /// Transaction nodes in id order (deterministic snapshot encoding).
  std::vector<GlobalTxnId> Txns() const;
  /// Every dependency, sorted by (site, from, to). Together with Txns()/
  /// SitesOf this is the whole graph; rebuilding via InsertTxn +
  /// AddDependency restores it.
  std::vector<Dependency> AllDependencies() const;

  /// Structural self-check (audit layer): the txn and site sides of every
  /// edge mirror each other and are id-sorted, every dependency connects
  /// two transactions that both have an edge at its site, the incoming
  /// lists, outgoing lists and bit matrices are exact mirrors, counts
  /// match, and the *directed* dependency relation (from -> to, across all
  /// sites) is acyclic — a dependency cycle would deadlock cond(ser)/
  /// cond(fin) and can only arise when Eliminate_Cycles was skipped or
  /// applied inconsistently. On a dependency cycle the witness transaction
  /// ids are reported in the status message.
  Status Validate() const;

  /// Independent checker for the cycle definition above, restricted to
  /// cycles through `txn`. Exhaustive backtracking — exponential in the
  /// worst case; used by tests and the minimality experiment (E6), never on
  /// the hot path.
  bool HasCycleInvolving(GlobalTxnId txn) const;

  /// The paper's Eliminate_Cycles (Figure 4): computes a set Δ of
  /// dependencies, each of the form (v, u) -> (u, txn), such that
  /// (V, E, D ∪ Δ) contains no cycles involving `txn`. Polynomial, but Δ
  /// need not be minimal (minimality is NP-hard, Theorem 7). The returned
  /// dependencies are NOT added to D; the caller decides.
  /// `steps`, when non-null, accumulates the pair-examinations performed.
  /// Uses per-graph scratch space: not reentrant on one Tsgd.
  std::vector<Dependency> EliminateCycles(GlobalTxnId txn,
                                          int64_t* steps) const;

 private:
  static constexpr uint32_t kNone = kNoTsgdIndex;

  /// A live transaction. Its edges are parallel vectors in site-id order.
  struct Node {
    GlobalTxnId id;
    std::vector<SiteId> sites;
    std::vector<uint32_t> site_index;
    /// Per edge: sources of incoming dependencies (id-sorted) and targets
    /// of outgoing ones.
    std::vector<std::vector<GlobalTxnId>> into;
    std::vector<std::vector<GlobalTxnId>> out;
  };
  struct SiteNode {
    SiteId id;
    std::vector<GlobalTxnId> txns;  // Id-sorted.
    std::vector<uint32_t> slots;    // Parallel to txns.
    std::vector<uint8_t> flags;     // Parallel to txns.
    std::vector<uint64_t> deps;     // capacity_ rows of words_ words.
  };
  /// One frame of the Eliminate_Cycles walk: transaction slot `v`, entered
  /// through site `entry`, resumes at (`site`, `member`).
  struct Frame {
    uint32_t v;
    uint32_t entry;
    uint32_t site;
    uint32_t member;
  };

  /// The position of `txn` among the members of site index `u`, or kNone.
  uint32_t MemberOf(uint32_t u, GlobalTxnId txn) const;
  /// The position of site index `u` among `node`'s edges, or kNone.
  static uint32_t EdgeOf(const Node& node, uint32_t u);
  bool Bit(uint32_t u, uint32_t from, uint32_t to) const {
    return (sites_[u].deps[size_t{to} * words_ + from / 64] >> (from % 64)) &
           1;
  }
  void SetBit(uint32_t u, uint32_t from, uint32_t to, bool value);
  /// Grows the slot capacity (and every site's bit matrix) to `capacity`.
  void Reserve(uint32_t capacity);
  /// Starts a new epoch for the Eliminate_Cycles marks.
  void NewEpoch() const;
  bool CycleSearch(GlobalTxnId origin, GlobalTxnId current,
                   std::set<GlobalTxnId>* txns_on_path,
                   std::set<SiteId>* sites_on_path) const;

  std::vector<Node> nodes_;  // By slot; free slots have an invalid id.
  std::vector<uint32_t> free_slots_;
  std::unordered_map<GlobalTxnId, uint32_t> slot_of_;
  std::vector<SiteNode> sites_;  // By site index, never removed.
  std::unordered_map<SiteId, uint32_t> site_index_;
  uint32_t capacity_ = 0;  // Slots the bit matrices and marks can hold.
  uint32_t words_ = 0;     // capacity_ / 64.
  size_t dep_count_ = 0;

  /// Eliminate_Cycles scratch, reused across calls. A mark at
  /// [u * capacity_ + slot] is set when it equals `epoch_`.
  mutable std::vector<uint32_t> used_;      // (u, w) traversed.
  mutable std::vector<uint32_t> in_delta_;  // (u, v, origin) in Δ.
  mutable uint32_t epoch_ = 0;
  mutable std::vector<Frame> frames_;
};

}  // namespace mdbs::gtm

#endif  // MDBS_GTM_TSGD_H_
