#include "tgcover/obs/profile.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <thread>

#include "tgcover/obs/obs.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace tgc::obs {

namespace {

constexpr std::array<std::string_view, kNumProfKinds> kKindNames = {
    "task", "idle", "barrier", "fork", "phase", "round",
};
static_assert(!kKindNames.back().empty(),
              "kind name table out of sync with ProfKind");

constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 15;
constexpr unsigned kNoLane = ~0u;

/// One worker lane. Single writer (the registered thread); the ring is a
/// fixed vector indexed modulo capacity, `pushed` counts every event ever
/// recorded so dropped = pushed - capacity once it wraps. The summary
/// accumulators are plain integers for the same single-writer reason.
struct Lane {
  std::vector<ProfileEvent> ring;
  std::uint64_t pushed = 0;
  std::uint64_t tasks = 0;
  std::uint64_t items = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t idle_ns = 0;
  std::uint64_t barrier_ns = 0;
  std::array<std::uint64_t, kNumPhases> phase_tasks{};
  std::array<std::uint64_t, kNumPhases> phase_items{};
  std::array<std::uint64_t, kNumPhases> phase_busy_ns{};
};

struct ProfilerState {
  std::atomic<bool> active{false};
  std::uint64_t t0 = 0;
  std::size_t ring_capacity = kDefaultRingCapacity;
  /// Fixed between begin and end; deque for stable addresses (lanes are
  /// written through raw references while the session runs).
  std::deque<Lane> lanes;
  std::atomic<std::uint64_t> off_lane{0};
  std::atomic<std::uint64_t> parallel_ns{0};
  std::atomic<std::uint64_t> forks{0};
  std::atomic<std::uint64_t> rounds{0};
  // Memory channel (cross-thread: sample mutex).
  std::uint64_t peak_rss_begin = 0;
  std::mutex sample_mutex;
  std::vector<MemorySample> samples;
};

ProfilerState& prof() {
  static ProfilerState s;
  return s;
}

thread_local unsigned t_profile_lane = kNoLane;

/// The calling thread's lane, or nullptr (counted off-lane) when the thread
/// never registered or registered beyond the session's worker count.
Lane* current_lane() {
  ProfilerState& s = prof();
  if (t_profile_lane == kNoLane || t_profile_lane >= s.lanes.size()) {
    s.off_lane.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  return &s.lanes[t_profile_lane];
}

std::uint64_t rebase(std::uint64_t abs_ns) {
  const std::uint64_t t0 = prof().t0;
  return abs_ns > t0 ? abs_ns - t0 : 0;
}

void push(Lane& lane, const ProfileEvent& ev) {
  lane.ring[lane.pushed % lane.ring.size()] = ev;
  ++lane.pushed;
}


}  // namespace

std::string_view prof_kind_name(ProfKind kind) {
  return kKindNames[static_cast<std::size_t>(kind)];
}

// --------------------------------------------------------- ProfileData

bool ProfileData::truncated() const {
  for (const WorkerProfile& w : workers) {
    if (w.dropped > 0) return true;
  }
  return false;
}

std::uint64_t ProfileData::total_busy_ns() const {
  std::uint64_t t = 0;
  for (const WorkerProfile& w : workers) t += w.busy_ns;
  return t;
}

std::uint64_t ProfileData::total_items() const {
  std::uint64_t t = 0;
  for (const WorkerProfile& w : workers) t += w.items;
  return t;
}

double ProfileData::utilization() const {
  if (wall_ns == 0 || workers.empty()) return 0.0;
  const double denom =
      static_cast<double>(wall_ns) * static_cast<double>(workers.size());
  return std::min(1.0, static_cast<double>(total_busy_ns()) / denom);
}

double ProfileData::serial_fraction() const {
  if (wall_ns == 0) return 1.0;
  const std::uint64_t par = std::min(parallel_ns, wall_ns);
  return static_cast<double>(wall_ns - par) / static_cast<double>(wall_ns);
}

double ProfileData::predicted_speedup(unsigned n) const {
  if (n == 0) return 0.0;
  const double s = serial_fraction();
  return 1.0 / (s + (1.0 - s) / static_cast<double>(n));
}

// ------------------------------------------------------------ the session

bool profile_active() {
  return prof().active.load(std::memory_order_acquire);
}

void profile_begin(unsigned workers, std::size_t ring_capacity) {
  ProfilerState& s = prof();
  if (s.active.load(std::memory_order_relaxed)) return;
  s.ring_capacity = ring_capacity != 0 ? ring_capacity : kDefaultRingCapacity;
  s.lanes.clear();
  const unsigned lanes = std::max(1u, workers);
  for (unsigned w = 0; w < lanes; ++w) {
    Lane& lane = s.lanes.emplace_back();
    lane.ring.resize(s.ring_capacity);
  }
  s.off_lane.store(0, std::memory_order_relaxed);
  s.parallel_ns.store(0, std::memory_order_relaxed);
  s.forks.store(0, std::memory_order_relaxed);
  s.rounds.store(0, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(s.sample_mutex);
    s.samples.clear();
  }
  s.peak_rss_begin = peak_rss_bytes();
  t_profile_lane = 0;  // the beginning thread drives the run
  s.t0 = now_ns();
  s.active.store(true, std::memory_order_release);
}

ProfileData profile_end() {
  ProfilerState& s = prof();
  if (!s.active.load(std::memory_order_relaxed)) return ProfileData{};
  // Quiescence contract: the caller guarantees every pool worker finished
  // (joined or parked after its last barrier), so lane reads below are
  // ordered by the pools' own synchronization.
  s.active.store(false, std::memory_order_release);

  ProfileData data;
  data.wall_ns = now_ns() - s.t0;
  data.parallel_ns = s.parallel_ns.load(std::memory_order_relaxed);
  data.forks = s.forks.load(std::memory_order_relaxed);
  data.rounds = s.rounds.load(std::memory_order_relaxed);
  data.off_lane_events = s.off_lane.load(std::memory_order_relaxed);
  data.hardware_concurrency = std::thread::hardware_concurrency();
  data.ring_capacity = s.ring_capacity;
  data.workers.reserve(s.lanes.size());
  for (Lane& lane : s.lanes) {
    WorkerProfile w;
    const std::size_t cap = lane.ring.size();
    const std::uint64_t kept = std::min<std::uint64_t>(lane.pushed, cap);
    w.dropped = lane.pushed - kept;
    w.events.reserve(static_cast<std::size_t>(kept));
    // Oldest kept event first: once wrapped, that is the slot the next push
    // would overwrite.
    const std::uint64_t first = lane.pushed > cap ? lane.pushed % cap : 0;
    for (std::uint64_t i = 0; i < kept; ++i) {
      w.events.push_back(lane.ring[(first + i) % cap]);
    }
    w.tasks = lane.tasks;
    w.items = lane.items;
    w.busy_ns = lane.busy_ns;
    w.idle_ns = lane.idle_ns;
    w.barrier_ns = lane.barrier_ns;
    w.phase_tasks = lane.phase_tasks;
    w.phase_items = lane.phase_items;
    w.phase_busy_ns = lane.phase_busy_ns;
    data.workers.push_back(std::move(w));
  }
  s.lanes.clear();

  data.memory.peak_rss_begin_bytes = s.peak_rss_begin;
  data.memory.peak_rss_end_bytes = peak_rss_bytes();
  {
    const std::lock_guard<std::mutex> lock(s.sample_mutex);
    data.memory.samples = std::move(s.samples);
    s.samples.clear();
  }
  return data;
}

void profile_set_lane(unsigned lane) { t_profile_lane = lane; }

// ------------------------------------------------------------- emission

namespace {

void emit(Lane& lane, ProfKind kind, std::uint64_t start_ns,
          std::uint64_t dur_ns, std::uint64_t value, CostPhase phase) {
  ProfileEvent ev;
  ev.start_ns = rebase(start_ns);
  ev.dur_ns = dur_ns;
  ev.value = value;
  ev.phase = static_cast<std::uint8_t>(phase);
  ev.kind = kind;
  push(lane, ev);
}

}  // namespace

void profile_task(std::uint64_t start_ns, std::uint64_t dur_ns,
                  std::uint64_t items) {
  if (!profile_active()) return;
  Lane* lane = current_lane();
  if (lane == nullptr) return;
  const CostPhase phase = current_phase();
  const std::size_t p = static_cast<std::size_t>(phase);
  ++lane->tasks;
  lane->items += items;
  lane->busy_ns += dur_ns;
  ++lane->phase_tasks[p];
  lane->phase_items[p] += items;
  lane->phase_busy_ns[p] += dur_ns;
  emit(*lane, ProfKind::kTask, start_ns, dur_ns, items, phase);
}

void profile_idle(std::uint64_t start_ns, std::uint64_t dur_ns) {
  if (!profile_active()) return;
  Lane* lane = current_lane();
  if (lane == nullptr) return;
  lane->idle_ns += dur_ns;
  emit(*lane, ProfKind::kIdle, start_ns, dur_ns, 0, current_phase());
}

void profile_barrier(std::uint64_t start_ns, std::uint64_t dur_ns) {
  if (!profile_active()) return;
  Lane* lane = current_lane();
  if (lane == nullptr) return;
  lane->barrier_ns += dur_ns;
  emit(*lane, ProfKind::kBarrier, start_ns, dur_ns, 0, current_phase());
}

void profile_fork(std::uint64_t start_ns, std::uint64_t dur_ns,
                  std::uint64_t items) {
  if (!profile_active()) return;
  prof().parallel_ns.fetch_add(dur_ns, std::memory_order_relaxed);
  prof().forks.fetch_add(1, std::memory_order_relaxed);
  Lane* lane = current_lane();
  if (lane == nullptr) return;
  emit(*lane, ProfKind::kFork, start_ns, dur_ns, items, current_phase());
}

void profile_round(std::uint64_t round) {
  if (!profile_active()) return;
  prof().rounds.fetch_add(1, std::memory_order_relaxed);
  Lane* lane = current_lane();
  if (lane == nullptr) return;
  emit(*lane, ProfKind::kRound, now_ns(), 0, round, current_phase());
}

void profile_mem_sample() {
  if (!profile_active()) return;
  ProfilerState& s = prof();
  MemorySample sample;
  sample.t_ns = rebase(now_ns());
  sample.peak_rss_bytes = peak_rss_bytes();
  const std::lock_guard<std::mutex> lock(s.sample_mutex);
  s.samples.push_back(sample);
}

std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

namespace detail {

void profile_on_phase_change(CostPhase phase) {
  if (!profile_active()) return;
  Lane* lane = current_lane();
  if (lane == nullptr) return;
  emit(*lane, ProfKind::kPhase, now_ns(), 0,
       static_cast<std::uint64_t>(phase), phase);
}

}  // namespace detail

}  // namespace tgc::obs
