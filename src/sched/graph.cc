#include "sched/graph.h"

#include <algorithm>
#include <functional>
#include <numeric>

namespace mdbs::sched {

void UndirectedMultigraph::AddNode(int64_t node) {
  if (incidence_.try_emplace(node).second) nodes_.push_back(node);
}

size_t UndirectedMultigraph::AddEdge(int64_t u, int64_t v, int64_t label) {
  AddNode(u);
  AddNode(v);
  size_t index = edges_.size();
  edges_.push_back(LabeledEdge{u, v, label});
  incidence_[u].push_back(index);
  incidence_[v].push_back(index);
  return index;
}

std::vector<int64_t> UndirectedMultigraph::Nodes() const { return nodes_; }

std::vector<std::vector<size_t>>
UndirectedMultigraph::BiconnectedComponents() const {
  // Iterative Hopcroft–Tarjan: DFS keeping discovery/low values and a stack
  // of tree/back edges; when a child cannot reach above its parent, the
  // edges accumulated since it was entered form one biconnected component.
  std::vector<std::vector<size_t>> components;
  std::unordered_map<int64_t, int> disc;
  std::unordered_map<int64_t, int> low;
  std::vector<size_t> edge_stack;
  int timer = 0;

  struct Frame {
    int64_t node;
    int64_t parent_edge;  // edge index used to enter, -1 at roots
    size_t next_incident = 0;
  };

  for (int64_t root : nodes_) {
    if (disc.contains(root)) continue;
    std::vector<Frame> stack;
    stack.push_back(Frame{root, -1});
    disc[root] = low[root] = timer++;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const std::vector<size_t>& incident = incidence_.at(frame.node);
      if (frame.next_incident < incident.size()) {
        size_t edge_index = incident[frame.next_incident++];
        if (static_cast<int64_t>(edge_index) == frame.parent_edge) continue;
        const LabeledEdge& edge = edges_[edge_index];
        int64_t other = edge.u == frame.node ? edge.v : edge.u;
        if (!disc.contains(other)) {
          edge_stack.push_back(edge_index);
          disc[other] = low[other] = timer++;
          stack.push_back(Frame{other, static_cast<int64_t>(edge_index)});
        } else if (disc[other] < disc[frame.node]) {
          // Back edge (each undirected edge is considered once, from the
          // endpoint discovered later).
          edge_stack.push_back(edge_index);
          low[frame.node] = std::min(low[frame.node], disc[other]);
        }
        continue;
      }
      // frame.node is finished; propagate low and maybe cut a component.
      int64_t child = frame.node;
      int64_t entry_edge = frame.parent_edge;
      stack.pop_back();
      if (stack.empty()) continue;
      Frame& parent = stack.back();
      low[parent.node] = std::min(low[parent.node], low[child]);
      if (low[child] >= disc[parent.node]) {
        // Pop the component delimited by the tree edge into `child`.
        std::vector<size_t> component;
        while (!edge_stack.empty()) {
          size_t edge_index = edge_stack.back();
          edge_stack.pop_back();
          component.push_back(edge_index);
          if (static_cast<int64_t>(edge_index) == entry_edge) break;
        }
        components.push_back(std::move(component));
      }
    }
  }
  return components;
}

std::optional<std::vector<size_t>> UndirectedMultigraph::FindCycleThrough(
    size_t e1, size_t e2) const {
  if (e1 == e2 || e1 >= edges_.size() || e2 >= edges_.size()) {
    return std::nullopt;
  }
  const LabeledEdge& first = edges_[e1];
  // Parallel edges close a 2-cycle immediately.
  const LabeledEdge& second = edges_[e2];
  if ((first.u == second.u && first.v == second.v) ||
      (first.u == second.v && first.v == second.u)) {
    return std::vector<size_t>{e1, e2};
  }
  // Orient e1 as start -> cur and search a vertex-simple path back to
  // `start` that traverses e2. Exhaustive backtracking with a step budget;
  // the analyzer's graphs have at most a few dozen nodes.
  int64_t steps_left = 1 << 20;
  std::vector<size_t> path{e1};
  std::unordered_set<int64_t> visited;
  std::function<bool(int64_t, int64_t, bool)> dfs =
      [&](int64_t start, int64_t cur, bool used_e2) -> bool {
    if (--steps_left <= 0) return false;
    if (cur == start) return used_e2;
    visited.insert(cur);
    for (size_t edge_index : incidence_.at(cur)) {
      if (edge_index == e1) continue;
      const LabeledEdge& edge = edges_[edge_index];
      int64_t other = edge.u == cur ? edge.v : edge.u;
      if (other != start && visited.contains(other)) continue;
      path.push_back(edge_index);
      if (dfs(start, other, used_e2 || edge_index == e2)) return true;
      path.pop_back();
    }
    visited.erase(cur);
    return false;
  };
  if (dfs(first.u, first.v, false)) return path;
  return std::nullopt;
}

uint32_t DirectedGraph::Intern(int64_t node) {
  IndexKeys();
  auto [it, inserted] =
      index_.try_emplace(node, static_cast<uint32_t>(keys_.size()));
  if (inserted) AppendNode(node);
  indexed_ = keys_.size();
  return it->second;
}

uint32_t DirectedGraph::AppendNode(int64_t key) {
  keys_.push_back(key);
  compact_ = false;  // offsets_ needs a row for the new node
  return static_cast<uint32_t>(keys_.size() - 1);
}

void DirectedGraph::IndexKeys() const {
  for (; indexed_ < keys_.size(); ++indexed_) {
    index_.try_emplace(keys_[indexed_], static_cast<uint32_t>(indexed_));
  }
}

void DirectedGraph::AddEdge(int64_t from, int64_t to) {
  uint32_t a = Intern(from);
  uint32_t b = Intern(to);
  AddIndexedEdge(a, b);
}

void DirectedGraph::Compact() const {
  if (compact_) return;
  // Counting sort by source node into CSR rows, then each (short) row is
  // sorted and deduplicated and slid down over the duplicates removed.
  offsets_.assign(keys_.size() + 1, 0);
  for (const auto& edge : edges_) ++offsets_[edge.first + 1];
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  std::vector<std::pair<uint32_t, uint32_t>> rows(edges_.size());
  std::vector<uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (const auto& edge : edges_) rows[fill[edge.first]++] = edge;
  auto out = rows.begin();
  for (size_t node = 0; node < keys_.size(); ++node) {
    auto begin = rows.begin() + offsets_[node];
    auto end = rows.begin() + offsets_[node + 1];
    std::sort(begin, end);
    offsets_[node] = static_cast<uint32_t>(out - rows.begin());
    out = std::move(begin, std::unique(begin, end), out);
  }
  offsets_.back() = static_cast<uint32_t>(out - rows.begin());
  rows.erase(out, rows.end());
  edges_ = std::move(rows);
  compact_ = true;
}

bool DirectedGraph::HasNode(int64_t node) const {
  IndexKeys();
  return index_.contains(node);
}

bool DirectedGraph::HasEdge(int64_t from, int64_t to) const {
  IndexKeys();
  auto a = index_.find(from);
  auto b = index_.find(to);
  if (a == index_.end() || b == index_.end()) return false;
  Compact();
  return std::binary_search(edges_.begin() + RowBegin(a->second),
                            edges_.begin() + RowEnd(a->second),
                            std::make_pair(a->second, b->second));
}

size_t DirectedGraph::EdgeCount() const {
  Compact();
  return edges_.size();
}

bool DirectedGraph::HasCycle() const { return FindCycle().has_value(); }

std::optional<std::vector<int64_t>> DirectedGraph::FindCycle() const {
  Compact();
  // Iterative three-color DFS. A frame is (node, next edge of its row); the
  // gray nodes are exactly the frames on the stack, i.e. the current path.
  enum Color : uint8_t { kWhite, kGray, kBlack };
  std::vector<uint8_t> color(keys_.size(), kWhite);
  std::vector<std::pair<uint32_t, uint32_t>> stack;
  for (uint32_t start = 0; start < keys_.size(); ++start) {
    if (color[start] != kWhite) continue;
    color[start] = kGray;
    stack.emplace_back(start, RowBegin(start));
    while (!stack.empty()) {
      auto [node, next] = stack.back();
      if (next == RowEnd(node)) {
        color[node] = kBlack;
        stack.pop_back();
        continue;
      }
      ++stack.back().second;
      uint32_t succ = edges_[next].second;
      if (color[succ] == kGray) {
        size_t first = stack.size() - 1;
        while (stack[first].first != succ) --first;
        std::vector<int64_t> cycle;
        for (size_t i = first; i < stack.size(); ++i) {
          cycle.push_back(keys_[stack[i].first]);
        }
        cycle.push_back(keys_[succ]);
        return cycle;
      }
      if (color[succ] == kWhite) {
        color[succ] = kGray;
        stack.emplace_back(succ, RowBegin(succ));
      }
    }
  }
  return std::nullopt;
}

std::optional<std::vector<int64_t>> DirectedGraph::TopologicalOrder() const {
  Compact();
  std::vector<uint32_t> in_degree(keys_.size(), 0);
  for (const auto& [from, to] : edges_) ++in_degree[to];
  std::vector<uint32_t> ready;
  for (uint32_t node = 0; node < keys_.size(); ++node) {
    if (in_degree[node] == 0) ready.push_back(node);
  }
  std::vector<int64_t> order;
  order.reserve(keys_.size());
  while (!ready.empty()) {
    uint32_t node = ready.back();
    ready.pop_back();
    order.push_back(keys_[node]);
    for (uint32_t e = RowBegin(node); e < RowEnd(node); ++e) {
      if (--in_degree[edges_[e].second] == 0) {
        ready.push_back(edges_[e].second);
      }
    }
  }
  if (order.size() != keys_.size()) return std::nullopt;
  return order;
}

}  // namespace mdbs::sched
