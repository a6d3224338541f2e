#include "tgcover/app/rounds.hpp"

#include "tgcover/util/check.hpp"
#include "tgcover/util/table.hpp"

namespace tgc::app {

RoundRow& RoundRow::operator+=(const RoundRow& rhs) {
  active = rhs.active;  // totals row shows the final awake count
  candidates += rhs.candidates;
  deleted += rhs.deleted;
  vpt_tests += rhs.vpt_tests;
  cache_hits += rhs.cache_hits;
  dirty_nodes += rhs.dirty_nodes;
  ball_view_bytes += rhs.ball_view_bytes;
  bfs_expansions += rhs.bfs_expansions;
  horton_candidates += rhs.horton_candidates;
  gf2_pivots += rhs.gf2_pivots;
  messages += rhs.messages;
  messages_lost += rhs.messages_lost;
  retransmissions += rhs.retransmissions;
  ns_verdicts += rhs.ns_verdicts;
  ns_mis += rhs.ns_mis;
  ns_deletion += rhs.ns_deletion;
  logical_cost += rhs.logical_cost;
  return *this;
}

RoundRow row_from_record(const obs::JsonRecord& rec) {
  RoundRow r;
  r.round = rec.u64("round");
  r.active = rec.u64("active");
  r.candidates = rec.u64("candidates");
  r.deleted = rec.u64("deleted");
  r.vpt_tests = rec.u64("vpt_tests");
  r.cache_hits = rec.u64("verdict_cache_hits");
  r.dirty_nodes = rec.u64("dirty_nodes");
  r.ball_view_bytes = rec.u64("ball_view_bytes");
  r.bfs_expansions = rec.u64("bfs_expansions");
  r.horton_candidates = rec.u64("horton_candidates");
  r.gf2_pivots = rec.u64("gf2_pivots");
  r.messages = rec.u64("messages");
  r.messages_lost = rec.u64("messages_lost");
  r.retransmissions = rec.u64("retransmissions");
  r.ns_verdicts = rec.u64("ns_verdicts");
  r.ns_mis = rec.u64("ns_mis");
  r.ns_deletion = rec.u64("ns_deletion");
  obs::CostVec v;
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    v.units[i] = rec.u64(
        std::string(obs::counter_name(static_cast<obs::CounterId>(i))));
  }
  r.logical_cost = obs::logical_cost(v);
  return r;
}

CostRow cost_from_record(const obs::JsonRecord& rec) {
  CostRow c;
  c.round = rec.u64("round");
  c.phase = rec.text("phase");
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    c.vec.units[i] = rec.u64(
        std::string(obs::counter_name(static_cast<obs::CounterId>(i))));
  }
  // Trust the recomputation, not the recorded field — a hand-edited file
  // cannot smuggle an inconsistent scalar into `report`.
  c.logical_cost = obs::logical_cost(c.vec);
  return c;
}

std::string render_round_table(const std::vector<RoundRow>& rows) {
  // "hits"/"dirty"/"view B" mirror the cost table's incremental-rounds
  // columns (DESIGN.md §11) so `tgcover report` shows per-round how much
  // verdict work was reused and how many ball-view bytes were materialized.
  util::Table table({"round", "active", "cand", "del", "vpt", "hits", "dirty",
                     "bfs", "horton", "gf2", "msgs", "lost", "rexmit",
                     "view B", "cost", "verdict ms", "mis ms", "del ms"});
  const auto ms = [](std::uint64_t ns) {
    return util::Table::num(static_cast<double>(ns) / 1e6, 2);
  };
  const auto row_of = [&ms](const std::string& label, const RoundRow& r) {
    return std::vector<std::string>{
        label,
        std::to_string(r.active),
        std::to_string(r.candidates),
        std::to_string(r.deleted),
        std::to_string(r.vpt_tests),
        std::to_string(r.cache_hits),
        std::to_string(r.dirty_nodes),
        std::to_string(r.bfs_expansions),
        std::to_string(r.horton_candidates),
        std::to_string(r.gf2_pivots),
        std::to_string(r.messages),
        std::to_string(r.messages_lost),
        std::to_string(r.retransmissions),
        std::to_string(r.ball_view_bytes),
        std::to_string(r.logical_cost),
        ms(r.ns_verdicts),
        ms(r.ns_mis),
        ms(r.ns_deletion)};
  };
  RoundRow total;
  for (const RoundRow& r : rows) {
    total += r;
    table.add_row(row_of(std::to_string(r.round), r));
  }
  if (!rows.empty()) {
    table.add_row(row_of("total", total));
  }
  return table.to_string();
}

std::string render_cost_table(const std::vector<CostRow>& totals) {
  std::vector<std::string> header{"phase"};
  for (const auto& [name, id] : kCostColumns) header.emplace_back(name);
  header.emplace_back("cost");
  util::Table table(header);
  const auto add = [&table](const std::string& label, const obs::CostVec& v,
                            std::uint64_t cost) {
    std::vector<std::string> row{label};
    for (const auto& [name, id] : kCostColumns) {
      row.push_back(std::to_string(v.get(id)));
    }
    row.push_back(std::to_string(cost));
    table.add_row(row);
  };
  CostRow sum;
  for (const CostRow& c : totals) {
    sum.vec += c.vec;
    add(c.phase, c.vec, c.logical_cost);
  }
  if (!totals.empty()) add("total", sum.vec, obs::logical_cost(sum.vec));
  return table.to_string();
}

std::vector<RoundRow> round_rows(const Bundle& bundle) {
  std::vector<RoundRow> rows;
  for (const obs::JsonRecord& rec : bundle.of("round")) {
    rows.push_back(row_from_record(rec));
  }
  return rows;
}

std::vector<CostRow> cost_rows(const Bundle& bundle, std::string_view type) {
  std::vector<CostRow> rows;
  for (const obs::JsonRecord& rec : bundle.of(type)) {
    rows.push_back(cost_from_record(rec));
  }
  return rows;
}

}  // namespace tgc::app
