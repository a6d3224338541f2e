#include "tgcover/sim/flood.hpp"

#include "tgcover/obs/trace.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/stamped.hpp"

namespace tgc::sim {

namespace {

/// Calls `fn` on each record of `words` in order, after checking that the
/// record fits and that its origin is a vertex id (origins index the dedup
/// array and arrive in payloads).
template <typename Fn>
void for_each_record(std::span<const std::uint32_t> words, RecordSize size,
                     std::size_t order, Fn&& fn) {
  for (std::size_t i = 0; i < words.size();) {
    const std::size_t length = size(words.subspan(i));
    TGC_CHECK_MSG(length >= 1 && length <= words.size() - i,
                  "flood record of " << length << " words overruns its "
                                     << words.size() - i << " words");
    TGC_CHECK_MSG(words[i] < order,
                  "flood record names non-vertex origin " << words[i]);
    fn(words.subspan(i, length));
    i += length;
  }
}

}  // namespace

void flood(SyncRunner& runner, std::vector<std::vector<std::uint32_t>>& held,
           unsigned radius, std::uint32_t type, RecordSize size) {
  const std::size_t n = runner.graph().num_vertices();
  TGC_CHECK(held.size() == n);
  // Origins the handling node holds. Handlers run one at a time, so one
  // array serves every node: each call re-stamps it from the node's pool.
  util::StampedArray<std::uint8_t> known;
  known.resize(n);

  for (unsigned round = 0; round <= radius; ++round) {
    if (obs::trace_active()) {
      obs::trace_emit(obs::TraceKind::kWave, obs::kTraceNoNode,
                      obs::kTraceNoNode, type, round,
                      static_cast<double>(runner.stats().rounds));
    }
    runner.run_round([&](graph::VertexId node, std::span<const Message> inbox,
                         Broadcast& out) {
      std::vector<std::uint32_t>& mine = held[node];
      known.clear();
      for_each_record(mine, size, n, [&](std::span<const std::uint32_t> rec) {
        known.put(rec[0], 1);
      });
      // Round 0 sends the node's own records, later rounds what it learns.
      const std::size_t fresh = round == 0 ? 0 : mine.size();
      for (const Message& msg : inbox) {
        TGC_CHECK_MSG(msg.type == type, "message of type "
                                            << msg.type << " in a flood of "
                                            << type);
        for_each_record(msg.payload, size, n,
                        [&](std::span<const std::uint32_t> rec) {
                          if (known.contains(rec[0])) return;
                          known.put(rec[0], 1);
                          mine.insert(mine.end(), rec.begin(), rec.end());
                        });
      }
      if (round < radius && mine.size() > fresh) {
        out.send(type, std::span(mine).subspan(fresh));
      }
    });
  }
}

}  // namespace tgc::sim
