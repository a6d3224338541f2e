#include "tgcover/cycle/candidates.hpp"

#include <algorithm>

#include "chords.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/util/check.hpp"

namespace tgc::cycle {

namespace {

using graph::EdgeId;
using graph::Graph;
using graph::ShortestPathTree;
using graph::VertexId;

constexpr std::uint64_t kEmpty = 0;
constexpr std::uint64_t kOffsetMask = 0xffffffffull;

}  // namespace

std::uint64_t CycleDedup::hash(std::span<const EdgeId> ids) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  std::uint64_t h = 0xcbf29ce484222325ull ^ ids.size();
  std::size_t i = 0;
  for (; i + 1 < ids.size(); i += 2) {
    h ^= std::uint64_t{ids[i]} | std::uint64_t{ids[i + 1]} << 32;
    h *= kMul;
  }
  if (i < ids.size()) {
    h ^= ids[i];
    h *= kMul;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

void CycleDedup::reserve(std::size_t expected) {
  std::size_t slots = 16;
  while (slots < 2 * expected) slots *= 2;
  if (slots > slots_.size()) rehash(slots);
}

void CycleDedup::rehash(std::size_t slots) {
  slots_.assign(slots, kEmpty);
  const std::size_t mask = slots - 1;
  for (std::size_t at = 0; at < keys_.size(); at += 1 + keys_[at]) {
    const std::uint64_t h = hash({keys_.data() + at + 1, keys_[at]});
    std::size_t i = h & mask;
    while (slots_[i] != kEmpty) i = (i + 1) & mask;
    slots_[i] = (h >> 32 << 32) | (at + 1);
  }
}

bool CycleDedup::insert(std::span<const EdgeId> ids) {
  if (2 * (size_ + 1) > slots_.size()) {
    rehash(std::max<std::size_t>(16, 2 * slots_.size()));
  }
  const std::uint64_t h = hash(ids);
  const std::uint64_t tag = h >> 32 << 32;
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = h & mask;
  for (; slots_[i] != kEmpty; i = (i + 1) & mask) {
    if ((slots_[i] & ~kOffsetMask) != tag) continue;
    const std::size_t at = (slots_[i] & kOffsetMask) - 1;
    if (keys_[at] == ids.size() &&
        std::equal(ids.begin(), ids.end(), keys_.begin() + at + 1)) {
      return false;
    }
  }
  const std::size_t at = keys_.size();
  TGC_CHECK_MSG(at + 1 < kOffsetMask, "CycleDedup key arena exceeds 2^32 ids");
  keys_.push_back(static_cast<EdgeId>(ids.size()));
  keys_.insert(keys_.end(), ids.begin(), ids.end());
  slots_[i] = tag | (at + 1);
  ++size_;
  return true;
}

void CycleDedup::clear() {
  std::fill(slots_.begin(), slots_.end(), kEmpty);
  keys_.clear();
  size_ = 0;
}

std::vector<CandidateCycle> fundamental_cycle_candidates(
    const Graph& g, const CandidateOptions& options) {
  std::vector<CandidateCycle> out;
  // The table spans every root — reserve from the chord-count estimate (ν
  // chords per spanning tree; deeper overlap between roots mostly dedups
  // away).
  CycleDedup seen;
  const std::size_t nu = g.num_edges() + 1 - std::min(g.num_edges() + 1,
                                                      g.num_vertices());
  seen.reserve(std::max<std::size_t>(16, 2 * nu));
  ShortestPathTree spt;
  std::vector<EdgeId> ids;

  for (VertexId root = 0; root < g.num_vertices(); ++root) {
    spt.rebuild(g, root, options.depth_limit);
    for_each_chord(g, spt, options.max_length, ids, [&](VertexId lca) {
      if (options.lca_at_root_only && lca != root) return true;
      if (ids.size() < 3) return true;  // chord parallel to a tree edge
                                        // cannot occur in a simple graph;
                                        // defensive only
      if (!seen.insert(ids)) return true;
      util::Gf2Vector edges(g.num_edges());
      for (const EdgeId id : ids) edges.set(id);
      out.push_back(CandidateCycle{std::move(edges),
                                   static_cast<std::uint32_t>(ids.size())});
      return true;
    });
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const CandidateCycle& a, const CandidateCycle& b) {
                     return a.length < b.length;
                   });
  return out;
}

}  // namespace tgc::cycle
