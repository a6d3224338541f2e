#pragma once

// Test-only brute-force oracle for "do the cycles of length ≤ τ span the
// cycle space?", the question behind every VPT verdict. It shares no code
// with the kernel it audits (no util::Gf2*, cycle::* or span-kernel code):
// it enumerates every simple cycle of length ≤ τ by DFS, each once from its
// smallest vertex, takes their rank by Gaussian elimination on plain
// 64-bit word rows over its own edge numbering, and compares that rank with
// ν = |E| − |V| + c. Graphs arrive as plain adjacency lists; the punctured
// balls of the VPT tests are built by a plain BFS.

#include <bit>
#include <cstdint>
#include <vector>

namespace tgc::brute {

/// An undirected simple graph: adj[u] lists u's neighbours.
using Adjacency = std::vector<std::vector<std::uint32_t>>;

/// Number of connected components.
inline std::size_t components(const Adjacency& adj) {
  std::vector<char> seen(adj.size(), 0);
  std::vector<std::uint32_t> stack;
  std::size_t c = 0;
  for (std::uint32_t s = 0; s < adj.size(); ++s) {
    if (seen[s]) continue;
    ++c;
    seen[s] = 1;
    stack.push_back(s);
    while (!stack.empty()) {
      const std::uint32_t u = stack.back();
      stack.pop_back();
      for (const std::uint32_t w : adj[u]) {
        if (!seen[w]) {
          seen[w] = 1;
          stack.push_back(w);
        }
      }
    }
  }
  return c;
}

/// ν = |E| − |V| + c, the dimension of the cycle space.
inline std::size_t cycle_space_dim(const Adjacency& adj) {
  std::size_t twice_edges = 0;
  for (const auto& nbrs : adj) twice_edges += nbrs.size();
  return twice_edges / 2 + components(adj) - adj.size();
}

/// Rank over GF(2) of the edge sets of all simple cycles of length ≤ tau.
class ShortCycleRank {
 public:
  ShortCycleRank(const Adjacency& adj, unsigned tau)
      : adj_(adj), tau_(tau), id_(adj.size() * adj.size(), 0) {
    const std::size_t n = adj.size();
    for (std::uint32_t u = 0; u < n; ++u) {
      for (const std::uint32_t w : adj[u]) {
        if (u < w) id_[u * n + w] = id_[w * n + u] = edges_++;
      }
    }
    words_ = (edges_ + 63) / 64;
    pivot_.resize(edges_);
    on_path_.assign(n, 0);
    for (std::uint32_t s = 0; s < n; ++s) {
      path_ = {s};
      extend();
    }
  }

  std::size_t rank() const { return rank_; }

 private:
  /// Grows the path through vertices above its start; closes it into a
  /// cycle when the last vertex neighbours the start. Each cycle is met in
  /// both directions; only the one whose second vertex is below its last
  /// counts.
  void extend() {
    const std::uint32_t start = path_.front();
    const std::uint32_t last = path_.back();
    for (const std::uint32_t w : adj_[last]) {
      if (w == start) {
        if (path_.size() >= 3 && path_[1] < last) close();
        continue;
      }
      if (w < start || on_path_[w] || path_.size() == tau_) continue;
      on_path_[w] = 1;
      path_.push_back(w);
      extend();
      path_.pop_back();
      on_path_[w] = 0;
    }
  }

  void close() {
    std::vector<std::uint64_t> row(words_, 0);
    const std::size_t n = adj_.size();
    for (std::size_t i = 0; i < path_.size(); ++i) {
      const std::uint32_t a = path_[i];
      const std::uint32_t b = path_[(i + 1) % path_.size()];
      const std::uint32_t e = id_[a * n + b];
      row[e / 64] ^= std::uint64_t{1} << (e % 64);
    }
    insert(std::move(row));
  }

  /// Reduces `row` by the stored rows, highest bit first; keeps it if a
  /// bit is left that no stored row leads with.
  void insert(std::vector<std::uint64_t> row) {
    for (std::size_t w = words_; w-- > 0;) {
      while (row[w] != 0) {
        const std::size_t p =
            w * 64 + 63 - static_cast<std::size_t>(std::countl_zero(row[w]));
        if (pivot_[p].empty()) {
          pivot_[p] = std::move(row);
          ++rank_;
          return;
        }
        for (std::size_t i = 0; i <= w; ++i) row[i] ^= pivot_[p][i];
      }
    }
  }

  const Adjacency& adj_;
  unsigned tau_;
  std::vector<std::uint32_t> id_;  ///< edge id of (u, w) at u * n + w
  std::uint32_t edges_ = 0;
  std::size_t words_ = 0;
  std::vector<std::vector<std::uint64_t>> pivot_;  ///< row leading with bit p
  std::size_t rank_ = 0;
  std::vector<std::uint32_t> path_;
  std::vector<char> on_path_;
};

/// Do the cycles of length ≤ tau span the cycle space of `adj`?
inline bool short_cycles_span(const Adjacency& adj, unsigned tau) {
  return ShortCycleRank(adj, tau).rank() == cycle_space_dim(adj);
}

/// Marks the vertices within `k` hops of any of `sources` (plain BFS).
inline std::vector<char> within(const Adjacency& adj,
                                const std::vector<std::uint32_t>& sources,
                                unsigned k) {
  std::vector<unsigned> dist(adj.size(), k + 1);
  std::vector<std::uint32_t> queue;
  for (const std::uint32_t s : sources) {
    dist[s] = 0;
    queue.push_back(s);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t u = queue[head];
    if (dist[u] == k) continue;
    for (const std::uint32_t w : adj[u]) {
      if (dist[w] > dist[u] + 1) {
        dist[w] = dist[u] + 1;
        queue.push_back(w);
      }
    }
  }
  std::vector<char> in(adj.size(), 0);
  for (std::size_t u = 0; u < adj.size(); ++u) in[u] = dist[u] <= k;
  return in;
}

/// The subgraph induced by the marked vertices, renumbered in id order.
inline Adjacency induced(const Adjacency& adj, const std::vector<char>& keep) {
  std::vector<std::uint32_t> local(adj.size(), 0);
  std::uint32_t n = 0;
  for (std::size_t u = 0; u < adj.size(); ++u) {
    if (keep[u]) local[u] = n++;
  }
  Adjacency sub(n);
  for (std::size_t u = 0; u < adj.size(); ++u) {
    if (!keep[u]) continue;
    for (const std::uint32_t w : adj[u]) {
      if (keep[w]) sub[local[u]].push_back(local[w]);
    }
  }
  return sub;
}

/// Definition 5 on a punctured ball: an empty ball is deletable; otherwise
/// it must be connected with its short cycles spanning its cycle space.
inline bool ball_passes(const Adjacency& ball, unsigned tau) {
  return ball.empty() || (components(ball) == 1 && short_cycles_span(ball, tau));
}

/// VPT vertex test: the ball of the vertices within k hops of v, v removed.
inline bool vertex_deletable(const Adjacency& adj, std::uint32_t v, unsigned k,
                             unsigned tau) {
  std::vector<char> keep = within(adj, {v}, k);
  keep[v] = 0;
  return ball_passes(induced(adj, keep), tau);
}

/// VPT edge test: the ball of the vertices within k hops of u or v, with
/// the link u–v removed.
inline bool edge_deletable(const Adjacency& adj, std::uint32_t u,
                           std::uint32_t v, unsigned k, unsigned tau) {
  Adjacency cut = adj;
  std::erase(cut[u], v);
  std::erase(cut[v], u);
  // Reach is measured with the link still up.
  return ball_passes(induced(cut, within(adj, {u, v}, k)), tau);
}

}  // namespace tgc::brute
