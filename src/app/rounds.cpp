#include "tgcover/app/rounds.hpp"

#include "tgcover/util/check.hpp"
#include "tgcover/util/table.hpp"

namespace tgc::app {

RoundRow& RoundRow::operator+=(const RoundRow& rhs) {
  active = rhs.active;  // totals row shows the final awake count
  candidates += rhs.candidates;
  deleted += rhs.deleted;
  counters += rhs.counters;
  ns_verdicts += rhs.ns_verdicts;
  ns_mis += rhs.ns_mis;
  ns_deletion += rhs.ns_deletion;
  return *this;
}

obs::CostVec counters_of(const obs::JsonRecord& rec) {
  obs::CostVec v;
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    v.units[i] = rec.u64(
        std::string(obs::counter_name(static_cast<obs::CounterId>(i))));
  }
  return v;
}

RoundRow row_from_record(const obs::JsonRecord& rec) {
  RoundRow r;
  r.round = rec.u64("round");
  r.active = rec.u64("active");
  r.candidates = rec.u64("candidates");
  r.deleted = rec.u64("deleted");
  r.counters = counters_of(rec);
  r.ns_verdicts = rec.u64("ns_verdicts");
  r.ns_mis = rec.u64("ns_mis");
  r.ns_deletion = rec.u64("ns_deletion");
  return r;
}

CostRow cost_from_record(const obs::JsonRecord& rec) {
  CostRow c;
  c.round = rec.u64("round");
  c.phase = rec.text("phase");
  c.vec = counters_of(rec);
  // Trust the recomputation, not the recorded field — a hand-edited file
  // cannot smuggle an inconsistent scalar into `report`.
  c.logical_cost = obs::logical_cost(c.vec);
  return c;
}

std::string render_round_table(const std::vector<RoundRow>& rows) {
  // "hits"/"dirty"/"view B" mirror the cost table's incremental-rounds
  // columns (DESIGN.md §11) so `tgcover report` shows per-round how much
  // verdict work was reused and how many ball-view bytes were materialized.
  constexpr std::pair<const char*, obs::CounterId> kCounterColumns[] = {
      {"vpt", obs::CounterId::kVptTests},
      {"hits", obs::CounterId::kVerdictCacheHits},
      {"dirty", obs::CounterId::kDirtyNodes},
      {"bfs", obs::CounterId::kBfsExpansions},
      {"horton", obs::CounterId::kHortonCandidates},
      {"gf2", obs::CounterId::kGf2Pivots},
      {"msgs", obs::CounterId::kMessages},
      {"lost", obs::CounterId::kMessagesLost},
      {"rexmit", obs::CounterId::kRetransmissions},
      {"view B", obs::CounterId::kBallViewBytes}};
  std::vector<std::string> header{"round", "active", "cand", "del"};
  for (const auto& [name, id] : kCounterColumns) header.emplace_back(name);
  header.insert(header.end(), {"cost", "verdict ms", "mis ms", "del ms"});
  util::Table table(header);
  const auto ms = [](std::uint64_t ns) {
    return util::Table::num(static_cast<double>(ns) / 1e6, 2);
  };
  const auto row_of = [&](const std::string& label, const RoundRow& r) {
    std::vector<std::string> row{label, std::to_string(r.active),
                                 std::to_string(r.candidates),
                                 std::to_string(r.deleted)};
    for (const auto& [name, id] : kCounterColumns) {
      row.push_back(std::to_string(r.counters.get(id)));
    }
    row.insert(row.end(), {std::to_string(obs::logical_cost(r.counters)),
                           ms(r.ns_verdicts), ms(r.ns_mis), ms(r.ns_deletion)});
    return row;
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
