#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tgcover/app/run_bundle.hpp"
#include "tgcover/obs/cost.hpp"
#include "tgcover/obs/jsonl.hpp"

namespace tgc::app {

/// One row of the paper-style per-round overhead table `tgcover report`
/// prints, parsed from a bundle's `round` records.
struct RoundRow {
  std::uint64_t round = 0;
  std::uint64_t active = 0;
  std::uint64_t candidates = 0;
  std::uint64_t deleted = 0;
  std::uint64_t vpt_tests = 0;
  std::uint64_t cache_hits = 0;       ///< verdicts reused from the cache
  std::uint64_t dirty_nodes = 0;      ///< nodes re-queued by dirty frontiers
  std::uint64_t ball_view_bytes = 0;  ///< ball-view arena bytes materialized
  std::uint64_t bfs_expansions = 0;
  std::uint64_t horton_candidates = 0;
  std::uint64_t gf2_pivots = 0;
  std::uint64_t messages = 0;
  std::uint64_t messages_lost = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t ns_verdicts = 0;
  std::uint64_t ns_mis = 0;
  std::uint64_t ns_deletion = 0;
  /// Machine-independent scalar (obs::logical_cost of the round's counters).
  std::uint64_t logical_cost = 0;

  RoundRow& operator+=(const RoundRow& rhs);
};

RoundRow row_from_record(const obs::JsonRecord& rec);

/// One parsed "cost"/"cost_total" record: a per-phase logical-cost vector.
/// `round` is 0 for run totals.
struct CostRow {
  std::uint64_t round = 0;
  std::string phase;
  obs::CostVec vec;
  std::uint64_t logical_cost = 0;
};

CostRow cost_from_record(const obs::JsonRecord& rec);

/// The fixed-width per-round table `tgcover report` prints.
std::string render_round_table(const std::vector<RoundRow>& rows);

/// The counter columns of the per-phase logical-cost table, as printed and
/// as rendered. "hits"/"dirty"/"view B" are the incremental-rounds counters
/// (DESIGN.md §11): outside the logical-cost scalar (work avoided, memory)
/// but equally machine-independent.
inline constexpr std::pair<const char*, obs::CounterId> kCostColumns[] = {
    {"vpt", obs::CounterId::kVptTests},
    {"hits", obs::CounterId::kVerdictCacheHits},
    {"dirty", obs::CounterId::kDirtyNodes},
    {"bfs", obs::CounterId::kBfsExpansions},
    {"horton", obs::CounterId::kHortonCandidates},
    {"gf2", obs::CounterId::kGf2Pivots},
    {"msgs", obs::CounterId::kMessages},
    {"rexmit", obs::CounterId::kRetransmissions},
    {"waves", obs::CounterId::kRepairWaves},
    {"view B", obs::CounterId::kBallViewBytes}};

/// The per-phase logical-cost table (`tgcover report` prints it when the
/// bundle carries cost_total records).
std::string render_cost_table(const std::vector<CostRow>& totals);

/// The bundle's `round` records as table rows.
std::vector<RoundRow> round_rows(const Bundle& bundle);

/// The bundle's `cost` (per round and phase) or `cost_total` (per phase)
/// records.
std::vector<CostRow> cost_rows(const Bundle& bundle, std::string_view type);

}  // namespace tgc::app
