#include "sched/serializability.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/logging.h"

namespace mdbs::sched {

namespace {

/// One committed data access.
struct Access {
  int64_t site;
  int64_t item;
  const RecordedOp* op;
  TxnOrdinal txn;  // committed
};

struct SiteItemHash {
  size_t operator()(const std::pair<int64_t, int64_t>& key) const {
    return static_cast<uint64_t>(key.first) * 0x9e3779b97f4a7c15ULL ^
           static_cast<uint64_t>(key.second);
  }
};

/// Committed accesses at the sites `keep` accepts, as one flat vector
/// grouped by (site, item), each group in execution order. It is a
/// counting sort: groups are numbered in order of first access, and each
/// access lands after the earlier ones of its group. The group index holds
/// one entry per (site, item), so its lookups stay in cache.
template <typename SiteFilter>
std::vector<Access> GroupCommittedAccesses(const ScheduleRecorder& recorder,
                                           SiteFilter keep) {
  std::unordered_map<std::pair<int64_t, int64_t>, uint32_t, SiteItemHash>
      group_index;
  std::vector<uint32_t> group_start;  // counts, then first slots
  std::vector<uint32_t> group_of;
  std::vector<Access> in_order;
  for (const RecordedOp& op : recorder.ops()) {
    if (!keep(op.site) ||
        recorder.record(op.txn_ordinal).outcome != TxnOutcome::kCommitted) {
      continue;
    }
    Access access{op.site.value(), op.op.item.value(), &op, op.txn_ordinal};
    auto [it, inserted] = group_index.try_emplace(
        {access.site, access.item}, static_cast<uint32_t>(group_start.size()));
    if (inserted) group_start.push_back(0);
    ++group_start[it->second];
    group_of.push_back(it->second);
    in_order.push_back(access);
  }
  std::exclusive_scan(group_start.begin(), group_start.end(),
                      group_start.begin(), 0u);
  std::vector<Access> grouped(in_order.size());
  for (size_t i = 0; i < in_order.size(); ++i) {
    grouped[group_start[group_of[i]]++] = in_order[i];
  }
  return grouped;
}

auto AtSite(SiteId site) {
  return [site](SiteId s) { return s == site; };
}

/// Calls `fn(group)` for each (site, item) group of `accesses`.
template <typename Fn>
void ForEachGroup(const std::vector<Access>& accesses, Fn fn) {
  for (size_t begin = 0; begin < accesses.size();) {
    const Access& first = accesses[begin];
    size_t end = begin + 1;
    while (end < accesses.size() && accesses[end].site == first.site &&
           accesses[end].item == first.item) {
      ++end;
    }
    fn(std::span<const Access>(accesses.data() + begin, end - begin));
    begin = end;
  }
}

/// Calls `emit(from, to)` with the ordinals of the conflict edges of one
/// (site, item) group between distinct transactions. Instead of all O(k^2)
/// conflicting pairs, the reduced set — last writer -> next access,
/// readers since the last write -> next writer — is emitted; it has the
/// same reachability relation as the full conflict graph (every omitted
/// edge follows a chain of emitted ones), hence the same cycles, and any
/// per-edge monotonicity over it extends to all conflict pairs by
/// transitivity.
template <typename Emit>
void ConflictEdges(std::span<const Access> group, Emit emit) {
  TxnOrdinal last_writer = kNoTxn;
  size_t reads_begin = 0;  // The reads since the last write start here.
  for (size_t i = 0; i < group.size(); ++i) {
    TxnOrdinal txn = group[i].txn;
    auto edge = [&](TxnOrdinal from) {
      if (from != txn) emit(from, txn);
    };
    if (last_writer != kNoTxn) edge(last_writer);
    if (group[i].op->op.type == OpType::kRead) continue;
    for (size_t r = reads_begin; r < i; ++r) edge(group[r].txn);
    reads_begin = i + 1;
    last_writer = txn;
  }
}

/// One version of an item at a multiversion site: its writer and the
/// writer's serialization key (timestamp), which orders the versions.
struct Version {
  int64_t key;
  TxnOrdinal writer;
  auto operator<=>(const Version&) const = default;
};

/// Calls `emit(from, to)` with the ordinals of the multiversion
/// serialization-graph edges of one (site, item) group: version order,
/// reads-from, and reader before the version after the one it read.
/// `versions` is scratch space.
template <typename Emit>
void MvsgEdges(const ScheduleRecorder& recorder, std::span<const Access> group,
               std::vector<Version>* versions, Emit emit) {
  auto edge = [&](TxnOrdinal from, TxnOrdinal to) {
    if (from != to) emit(from, to);
  };
  versions->clear();
  for (const Access& access : group) {
    if (access.op->op.type != OpType::kWrite) continue;
    const std::optional<int64_t>& key =
        recorder.record(access.txn).serialization_key;
    MDBS_CHECK(key.has_value())
        << "multiversion site writer without a timestamp";
    versions->push_back(Version{*key, access.txn});
  }
  // A writer that wrote the item twice made one version.
  std::sort(versions->begin(), versions->end());
  versions->erase(std::unique(versions->begin(), versions->end()),
                  versions->end());
  for (size_t i = 1; i < versions->size(); ++i) {
    edge((*versions)[i - 1].writer, (*versions)[i].writer);
  }

  for (const Access& access : group) {
    if (access.op->op.type != OpType::kRead) continue;
    // Successor version after the one read (initial version = before all).
    auto successor = versions->begin();
    if (access.op->read_from.valid()) {
      TxnOrdinal writer = access.op->read_from_ordinal;
      if (writer == kNoTxn) continue;  // A writer that never began here.
      edge(writer, access.txn);  // Reads-from.
      // An uncommitted writer's version constrains nothing.
      const TxnRecord& record = recorder.record(writer);
      if (record.outcome != TxnOutcome::kCommitted) continue;
      successor = std::upper_bound(
          versions->begin(), versions->end(),
          record.serialization_key.value_or(-1),
          [](int64_t key, const Version& v) { return key < v.key; });
    }
    if (successor != versions->end()) edge(access.txn, successor->writer);
  }
}

bool AllSites(SiteId) { return true; }

/// What a graph's nodes are: transactions, keyed by id (local graphs), or
/// global transactions, keyed by GlobalNodeKey (global graphs).
enum class Nodes { kTransactions, kGlobal };

/// Maps transactions to the dense node indices of one graph, numbered in
/// first-seen order: the order in which the graph would intern their keys,
/// so nodes, edges, search order and witnesses are those of a keyed build.
/// The map is an array over ordinals, by a transaction's own ordinal or by
/// its TxnRecord::global_node.
class NodeNumbering {
 public:
  NodeNumbering(const ScheduleRecorder& recorder, Nodes nodes,
                DirectedGraph* graph)
      : recorder_(recorder),
        nodes_(nodes),
        graph_(graph),
        node_of_(recorder.txns().size(), kNoTxn) {}

  uint32_t operator()(TxnOrdinal txn) {
    const TxnRecord& record = recorder_.record(txn);
    const bool global = nodes_ == Nodes::kGlobal;
    uint32_t& node = node_of_[global ? record.global_node : txn];
    if (node == kNoTxn) {
      node = graph_->AppendNode(global ? GlobalNodeKey(record)
                                       : record.txn.value());
    }
    return node;
  }

 private:
  const ScheduleRecorder& recorder_;
  Nodes nodes_;
  DirectedGraph* graph_;
  std::vector<uint32_t> node_of_;
};

/// The graph over the committed accesses at the sites `keep` accepts:
/// conflict edges at single-version sites, MVSG edges at `mv_sites`. Its
/// nodes are all the accessing transactions, so those without conflicts
/// count too.
template <typename SiteFilter>
DirectedGraph BuildGraph(const ScheduleRecorder& recorder, SiteFilter keep,
                         Nodes nodes, const std::vector<SiteId>& mv_sites) {
  DirectedGraph graph;
  NodeNumbering node(recorder, nodes, &graph);
  std::vector<Access> accesses = GroupCommittedAccesses(recorder, keep);
  for (const Access& access : accesses) node(access.txn);
  auto add_edge = [&](TxnOrdinal from, TxnOrdinal to) {
    uint32_t a = node(from);
    uint32_t b = node(to);
    if (a != b) graph.AddIndexedEdge(a, b);
  };
  std::vector<Version> versions;
  ForEachGroup(accesses, [&](std::span<const Access> group) {
    SiteId site(group.front().site);
    if (std::find(mv_sites.begin(), mv_sites.end(), site) != mv_sites.end()) {
      MvsgEdges(recorder, group, &versions, add_edge);
    } else {
      ConflictEdges(group, add_edge);
    }
  });
  return graph;
}

SerializabilityResult CheckGraph(const DirectedGraph& graph) {
  SerializabilityResult result;
  result.cycle = graph.FindCycle();
  result.serializable = !result.cycle.has_value();
  result.nodes = graph.NodeCount();
  result.edges = graph.EdgeCount();
  return result;
}

}  // namespace

std::string SerializabilityResult::ToString() const {
  std::ostringstream os;
  os << (serializable ? "serializable" : "NOT serializable") << " (nodes="
     << nodes << " edges=" << edges;
  if (cycle.has_value()) {
    os << " cycle=[";
    for (size_t i = 0; i < cycle->size(); ++i) {
      if (i > 0) os << " ";
      os << (*cycle)[i];
    }
    os << "]";
  }
  os << ")";
  return os.str();
}

int64_t GlobalNodeKey(const TxnRecord& record) {
  if (record.global.valid()) return record.global.value() * 2;
  return record.txn.value() * 2 + 1;
}

DirectedGraph BuildLocalConflictGraph(const ScheduleRecorder& recorder,
                                      SiteId site) {
  return BuildGraph(recorder, AtSite(site), Nodes::kTransactions, {});
}

SerializabilityResult CheckLocalSerializability(
    const ScheduleRecorder& recorder, SiteId site) {
  return CheckGraph(BuildLocalConflictGraph(recorder, site));
}

DirectedGraph BuildGlobalConflictGraph(const ScheduleRecorder& recorder) {
  return BuildGraph(recorder, AllSites, Nodes::kGlobal, {});
}

SerializabilityResult CheckGlobalSerializability(
    const ScheduleRecorder& recorder) {
  return CheckGraph(BuildGlobalConflictGraph(recorder));
}

DirectedGraph BuildMultiversionSerializationGraph(
    const ScheduleRecorder& recorder, SiteId site) {
  return BuildGraph(recorder, AtSite(site), Nodes::kTransactions, {site});
}

SerializabilityResult CheckMultiversionSerializability(
    const ScheduleRecorder& recorder, SiteId site) {
  return CheckGraph(BuildMultiversionSerializationGraph(recorder, site));
}

SerializabilityResult CheckGlobalSerializabilityMixed(
    const ScheduleRecorder& recorder,
    const std::vector<SiteId>& mv_sites) {
  return CheckGraph(BuildGraph(recorder, AllSites, Nodes::kGlobal, mv_sites));
}

Status CheckStrictness(const ScheduleRecorder& recorder, SiteId site,
                       bool multiversion) {
  auto finished_before = [&recorder](TxnOrdinal txn, int64_t seq) {
    if (txn == kNoTxn) return false;
    int64_t finish = recorder.record(txn).finish_seq;
    return finish >= 0 && finish < seq;
  };
  auto violation = [&site](const RecordedOp& op, TxnId writer) {
    std::ostringstream os;
    os << "strictness violated at " << ToString(site) << ": "
       << op.ToString() << " touched data of unfinished "
       << ToString(writer);
    return Status::Internal(os.str());
  };

  std::unordered_map<int64_t, TxnOrdinal> last_writer;
  for (const RecordedOp& op : recorder.ops()) {
    if (op.site != site) continue;
    if (op.op.type == OpType::kRead) {
      if (multiversion) {
        // The version read must come from a committed-and-finished writer
        // (or be the reader's own, or the initial version).
        if (op.read_from.valid() && op.read_from_ordinal != op.txn_ordinal &&
            !finished_before(op.read_from_ordinal, op.seq)) {
          return violation(op, op.read_from);
        }
        continue;
      }
      auto it = last_writer.find(op.op.item.value());
      if (it != last_writer.end() && it->second != op.txn_ordinal &&
          !finished_before(it->second, op.seq)) {
        return violation(op, recorder.txns()[it->second].first);
      }
      continue;
    }
    // Write.
    if (!multiversion) {
      auto [it, first] =
          last_writer.try_emplace(op.op.item.value(), op.txn_ordinal);
      if (first) continue;
      if (it->second != op.txn_ordinal &&
          !finished_before(it->second, op.seq)) {
        return violation(op, recorder.txns()[it->second].first);
      }
      it->second = op.txn_ordinal;
    }
  }
  return Status::OK();
}

Status CheckSerializationKeyProperty(const ScheduleRecorder& recorder,
                                     SiteId site) {
  // Checked on the reduced conflict edges directly: key monotonicity over
  // them extends to every conflicting pair by transitivity, so no graph is
  // needed.
  Status status = Status::OK();
  auto check = [&](TxnOrdinal from_txn, TxnOrdinal to_txn) {
    const TxnRecord& from = recorder.record(from_txn);
    const TxnRecord& to = recorder.record(to_txn);
    if (!status.ok() || !from.serialization_key.has_value() ||
        !to.serialization_key.has_value() ||
        *from.serialization_key < *to.serialization_key) {
      return;
    }
    std::ostringstream os;
    os << "serialization-key property violated at " << ToString(site) << ": "
       << ToString(from.txn) << " (key " << *from.serialization_key
       << ") conflicts-before " << ToString(to.txn) << " (key "
       << *to.serialization_key << ")";
    status = Status::Internal(os.str());
  };
  ForEachGroup(GroupCommittedAccesses(recorder, AtSite(site)),
               [&](std::span<const Access> group) {
                 ConflictEdges(group, check);
               });
  return status;
}

}  // namespace mdbs::sched
