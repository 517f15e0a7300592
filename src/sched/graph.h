#ifndef MDBS_SCHED_GRAPH_H_
#define MDBS_SCHED_GRAPH_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace mdbs::sched {

/// One edge of an UndirectedMultigraph: endpoints plus an int64 label
/// (static analysis labels edges with the site the interference happens at).
/// Parallel edges — same endpoints, different labels — are distinct edges.
struct LabeledEdge {
  int64_t u = 0;
  int64_t v = 0;
  int64_t label = 0;
};

/// Small undirected multigraph over int64 node keys with labeled edges,
/// biconnected-component decomposition and constrained cycle search; the
/// static conflict-robustness analyzer (src/analysis) builds its
/// cross-site interference graph on it. Self-loops are not supported.
class UndirectedMultigraph {
 public:
  void AddNode(int64_t node);
  /// Adds an edge and returns its index into edges(). Endpoints must
  /// differ; parallel edges are kept separate.
  size_t AddEdge(int64_t u, int64_t v, int64_t label);

  size_t NodeCount() const { return nodes_.size(); }
  size_t EdgeCount() const { return edges_.size(); }
  const std::vector<LabeledEdge>& edges() const { return edges_; }
  std::vector<int64_t> Nodes() const;

  /// Partitions the edges into biconnected components (edge-index groups).
  /// Every simple cycle lies entirely within one component; a bridge forms
  /// a singleton component of its own.
  std::vector<std::vector<size_t>> BiconnectedComponents() const;

  /// A vertex-simple cycle through both edges, as an ordered edge-index
  /// sequence (consecutive edges share an endpoint, last wraps to first),
  /// or nullopt when none exists. `e1` and `e2` must be distinct indices.
  /// Exhaustive backtracking: intended for the analyzer's small template
  /// graphs, capped at an internal step budget.
  std::optional<std::vector<size_t>> FindCycleThrough(size_t e1,
                                                      size_t e2) const;

 private:
  std::unordered_map<int64_t, std::vector<size_t>> incidence_;
  std::vector<int64_t> nodes_;  // insertion order, for deterministic output
  std::vector<LabeledEdge> edges_;
};

/// Directed graph over int64 node keys with cycle detection and
/// topological ordering; used for serialization graphs of all flavors.
///
/// Flat layout: nodes are dense indices, each with its key, and edges are
/// appended to one vector of index pairs. The first query after an
/// addition counting-sorts that vector by source and deduplicates it,
/// which turns it into a CSR adjacency (row offsets per node into the
/// sorted pairs). So a graph built in one go and then queried is compacted
/// once, in O(edges), and the searches walk contiguous memory.
///
/// Nodes are added in one of two ways. A caller that numbers its nodes
/// densely itself (the serializability oracle) appends them and links
/// their indices, and no key is hashed. Otherwise AddNode/AddEdge intern
/// keys to indices in first-seen order. The keyed queries (HasNode,
/// HasEdge) index appended keys on first use. Queries are const but
/// compact and index lazily, so a graph must not be queried from two
/// threads before its first query returned.
class DirectedGraph {
 public:
  void AddNode(int64_t node) { Intern(node); }
  void AddEdge(int64_t from, int64_t to);

  /// Adds a node under `key`, which must not be a node yet, and returns
  /// its index: the NodeCount() before the call.
  uint32_t AppendNode(int64_t key);
  /// Adds the edge between two node indices.
  void AddIndexedEdge(uint32_t from, uint32_t to) {
    edges_.emplace_back(from, to);
    compact_ = false;
  }

  bool HasNode(int64_t node) const;
  bool HasEdge(int64_t from, int64_t to) const;

  size_t NodeCount() const { return keys_.size(); }
  size_t EdgeCount() const;

  /// True iff the graph contains a directed cycle (self-loops count).
  bool HasCycle() const;

  /// A cycle as a node sequence (first == last), if one exists. Every
  /// consecutive pair is an edge.
  std::optional<std::vector<int64_t>> FindCycle() const;

  /// Topological order; nullopt when cyclic.
  std::optional<std::vector<int64_t>> TopologicalOrder() const;

 private:
  uint32_t Intern(int64_t node);
  /// Adds the keys appended since the last call to index_.
  void IndexKeys() const;
  /// Sorts and deduplicates edges_ and rebuilds offsets_, if stale.
  void Compact() const;
  /// Successor rows: edges_[offsets_[n] .. offsets_[n + 1]) leave node n.
  uint32_t RowBegin(uint32_t node) const { return offsets_[node]; }
  uint32_t RowEnd(uint32_t node) const { return offsets_[node + 1]; }

  std::vector<int64_t> keys_;  // dense index -> key
  // key -> dense index, for keys_[0 .. indexed_).
  mutable std::unordered_map<int64_t, uint32_t> index_;
  mutable size_t indexed_ = 0;
  // (from, to) dense-index pairs; sorted and unique while compact_.
  mutable std::vector<std::pair<uint32_t, uint32_t>> edges_;
  mutable std::vector<uint32_t> offsets_{0};
  mutable bool compact_ = true;
};

}  // namespace mdbs::sched

#endif  // MDBS_SCHED_GRAPH_H_
