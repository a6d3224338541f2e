#include "tgcover/obs/obs.hpp"

#include <deque>
#include <mutex>

#include "tgcover/obs/profile.hpp"
#include "tgcover/obs/trace.hpp"

namespace tgc::obs {

namespace {

constexpr std::array<std::string_view, kNumCounters> kCounterNames = {
    "vpt_tests",         "vpt_deletable",     "vpt_vetoed",
    "bfs_expansions",    "horton_candidates", "gf2_pivots",
    "messages",          "payload_words",     "repair_waves",
    "messages_lost",     "retransmissions",   "verdict_cache_hits",
    "dirty_nodes",       "ball_view_bytes",
};

constexpr std::array<std::string_view, kNumPhases> kPhaseNames = {
    "verdicts", "mis", "deletion", "khop", "repair", "other",
};

// A new enumerator without a matching name entry would value-initialize the
// trailing slot to an empty view; catch that at compile time.
static_assert(!kCounterNames.back().empty(),
              "counter name table out of sync with CounterId");
static_assert(!kPhaseNames.back().empty(),
              "phase name table out of sync with CostPhase");

/// The process-wide shard registry. Shards live in a deque (stable
/// addresses, no moves on growth) and are never reclaimed: a worker thread
/// that exits leaves its accumulated totals behind, which is exactly right
/// for monotonic accounting.
struct Registry {
  std::mutex mutex;
  std::deque<detail::Shard> shards;
  std::atomic<bool> enabled{false};
  std::atomic<unsigned> phase{static_cast<unsigned>(CostPhase::kOther)};
};

Registry& registry() {
  static Registry r;
  return r;
}

detail::Shard* register_shard() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  return &r.shards.emplace_back();
}

}  // namespace

std::string_view counter_name(CounterId id) {
  return kCounterNames[static_cast<std::size_t>(id)];
}

std::string_view cost_phase_name(CostPhase phase) {
  const auto p = static_cast<std::size_t>(phase);
  return p < kNumPhases ? kPhaseNames[p] : kPhaseNames.back();  // "other"
}

std::uint64_t logical_cost(const CostVec& v) {
  return v.get(CounterId::kVptTests) + v.get(CounterId::kBfsExpansions) +
         v.get(CounterId::kHortonCandidates) + v.get(CounterId::kGf2Pivots) +
         v.get(CounterId::kMessages) + v.get(CounterId::kRetransmissions) +
         v.get(CounterId::kRepairWaves);
}

namespace detail {

Shard& local_shard() {
  thread_local Shard* shard = register_shard();
  return *shard;
}

std::atomic<bool>& enabled_flag() { return registry().enabled; }

std::atomic<unsigned>& current_phase_slot() { return registry().phase; }

}  // namespace detail

void set_enabled(bool on) {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

Metrics& Metrics::operator-=(const Metrics& rhs) {
  cost -= rhs.cost;
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    spans[i].count -= rhs.spans[i].count;
    spans[i].sum_ns -= rhs.spans[i].sum_ns;
  }
  return *this;
}

Metrics snapshot() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  Metrics m;
  for (const detail::Shard& shard : r.shards) {
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      for (std::size_t i = 0; i < kNumCounters; ++i) {
        m.cost.phases[p].units[i] +=
            shard.units[p][i].load(std::memory_order_relaxed);
      }
    }
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      m.spans[i].count += shard.spans[i].count.load(std::memory_order_relaxed);
      m.spans[i].sum_ns +=
          shard.spans[i].sum_ns.load(std::memory_order_relaxed);
    }
  }
  return m;
}

CostSnapshot cost_snapshot() { return snapshot().cost; }

CostVec local_cost_totals() {
  const detail::Shard& shard = detail::local_shard();
  CostVec t;
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      t.units[i] += shard.units[p][i].load(std::memory_order_relaxed);
    }
  }
  return t;
}

CostAuditScope::CostAuditScope() {
  const detail::Shard& shard = detail::local_shard();
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      before_[p][i] = shard.units[p][i].load(std::memory_order_relaxed);
    }
  }
}

CostAuditScope::~CostAuditScope() {
  detail::Shard& shard = detail::local_shard();
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      const std::uint64_t now =
          shard.units[p][i].load(std::memory_order_relaxed);
      const std::uint64_t delta = now - before_[p][i];
      if (delta != 0) {
        shard.units[p][i].fetch_sub(delta, std::memory_order_relaxed);
      }
    }
  }
}

CostPhase current_phase() {
  return static_cast<CostPhase>(
      detail::current_phase_slot().load(std::memory_order_relaxed));
}

namespace {

void set_current_phase(CostPhase phase) {
  detail::current_phase_slot().store(static_cast<unsigned>(phase),
                                     std::memory_order_relaxed);
  // Phase transitions are timeline landmarks: the execution profiler drops
  // an instant event on the calling thread's lane (no-op when profiling is
  // off — a PhaseScope flips it twice per phase, far off any hot loop).
  detail::profile_on_phase_change(phase);
}

/// A PhaseScope's trace landmark, stamped with the round clock's value now.
void trace_phase(TraceKind kind, CostPhase phase,
                 const std::size_t* round_clock) {
  if (round_clock == nullptr || !trace_active()) return;
  trace_emit(kind, kTraceNoNode, kTraceNoNode,
             static_cast<std::uint32_t>(phase), 0,
             static_cast<double>(*round_clock));
}

}  // namespace

PhaseScope::PhaseScope(CostPhase phase, const std::size_t* round_clock)
    : phase_(phase),
      prev_(current_phase()),
      round_clock_(round_clock),
      timed_(enabled()) {
  if (timed_) start_ns_ = now_ns();
  set_current_phase(phase);
  trace_phase(TraceKind::kPhaseBegin, phase_, round_clock_);
}

PhaseScope::~PhaseScope() {
  trace_phase(TraceKind::kPhaseEnd, phase_, round_clock_);
  set_current_phase(prev_);
  if (!timed_) return;
  auto& slot = detail::local_shard().spans[static_cast<std::size_t>(phase_)];
  slot.count.fetch_add(1, std::memory_order_relaxed);
  slot.sum_ns.fetch_add(now_ns() - start_ns_, std::memory_order_relaxed);
}

}  // namespace tgc::obs
