// perfbench driver: builds one seeded network, times the public DCC entry
// points on it from the outside, checks the outputs, and prints one JSON line
// of raw results (timings, exact counters, digests, check outcomes and the
// build stamp). perfbench/run.py builds this, checks the pins and prints the
// benchmark's result line; see perfbench/README.md.
//
// Two modes, never mixed in one process:
//   --trace 0  end-to-end: telemetry off (obs::set_enabled(false)); set-up
//              repeated for a tenth of --seconds, the timed call at 1 thread
//              repeated until --seconds have passed (each between two runs
//              of a fixed host-speed probe), then once at --threads.
//   --trace 1  per-layer: telemetry on; the timed call's span histograms and
//              counter deltas, plus replays of the kernels it is built from
//              (VPT, τ-span, GF(2), k-hop collection, MIS, criterion), each
//              under a span of this file's own tracer.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "tgcover/core/criterion.hpp"
#include "tgcover/core/distributed.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/core/repair.hpp"
#include "tgcover/core/scheduler.hpp"
#include "tgcover/core/vpt.hpp"
#include "tgcover/cycle/span.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/graph/subgraph.hpp"
#include "tgcover/io/network_io.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/sim/engine.hpp"
#include "tgcover/sim/khop.hpp"
#include "tgcover/sim/mis.hpp"
#include "tgcover/util/args.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/digest.hpp"
#include "tgcover/util/rng.hpp"
#include "tgcover/version.hpp"

namespace {

using namespace tgc;
using graph::Graph;
using graph::VertexId;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// num / den as a double, 0 when den is 0 (a layer the workload skips).
template <typename N, typename D>
double ratio(N num, D den) {
  const auto d = static_cast<double>(den);
  return d > 0.0 ? static_cast<double>(num) / d : 0.0;
}

// ------------------------------------------------------------- host probe

/// The probe's duration at the host's nominal speed: its median time next to
/// the timed calls over a set of thirty runs on the 4-core Xeon host this
/// benchmark was written on (13.8-14.5 ms per workload).
constexpr double kNominalProbeS = 0.014;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

volatile std::uint64_t g_probe_sink = 0;

/// A fixed job of the two kinds of work the DCC kernel does: breadth-first
/// searches over a sparse random graph and XORs of bit rows. It is written
/// here rather than taken from the library, so no change to the program
/// moves it. On a shared host whose speed drifted by up to 50% over
/// minutes, its duration next to each timed call measures the host's speed
/// at that moment; returns that duration in seconds.
double probe_host() {
  constexpr std::uint32_t kNodes = 1u << 16;
  constexpr std::uint32_t kDegree = 4;
  constexpr std::size_t kRowWords = 8;
  static const std::vector<std::uint32_t> adj = [] {
    std::vector<std::uint32_t> a(kNodes * kDegree);
    std::uint64_t x = 3;
    for (std::uint32_t& w : a) w = static_cast<std::uint32_t>(xorshift(x) % kNodes);
    return a;
  }();
  static const std::vector<std::uint64_t> rows = [] {
    std::vector<std::uint64_t> r(kNodes / 4 * kRowWords);
    std::uint64_t x = 5;
    for (std::uint64_t& w : r) w = xorshift(x);
    return r;
  }();
  static std::vector<std::uint32_t> dist(kNodes), queue(kNodes);

  const auto t0 = Clock::now();
  std::uint64_t sum = 0;
  for (std::uint32_t root = 0; root < 6; ++root) {
    std::fill(dist.begin(), dist.end(), ~0u);
    std::size_t head = 0, tail = 0;
    queue[tail++] = root;
    dist[root] = 0;
    while (head < tail) {
      const std::uint32_t u = queue[head++];
      for (std::uint32_t j = 0; j < kDegree; ++j) {
        const std::uint32_t w = adj[u * kDegree + j];
        if (dist[w] == ~0u) {
          dist[w] = dist[u] + 1;
          queue[tail++] = w;
          sum += w;
        }
      }
    }
  }
  std::uint64_t acc[kRowWords] = {};
  std::uint64_t x = 7;
  const std::size_t num_rows = rows.size() / kRowWords;
  for (int i = 0; i < 400000; ++i) {
    const std::uint64_t r = xorshift(x);
    const std::uint64_t* row = &rows[(r % num_rows) * kRowWords];
    if (acc[r & 7] & 1) {
      for (std::size_t j = 0; j < kRowWords; ++j) acc[j] ^= row[j];
    } else {
      for (std::size_t j = 0; j < kRowWords; ++j) acc[j] += row[j];
    }
  }
  g_probe_sink = sum ^ acc[0] ^ acc[kRowWords - 1];
  return seconds_between(t0, Clock::now());
}

// ----------------------------------------------------------------- tracer

/// The benchmark's own span recorder: one span around each public call this
/// file makes. Spans nest by scope and stay in memory until `write`; a
/// name's self time is its spans' durations minus what their children cover.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name)
        : tracer_(tracer), id_(tracer.open(std::move(name))) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t id_;
  };

  Scope scope(std::string name) { return Scope(*this, std::move(name)); }

  /// Durations of every closed span called `name`, in opening order.
  std::vector<double> durations(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(seconds(s));
    }
    return out;
  }

  /// One JSON object per span: name, parent index, start/end offsets from
  /// the first span, and self time.
  void write(std::ostream& out) const {
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] += seconds(spans_[i]);
      if (spans_[i].parent >= 0) {
        self[static_cast<std::size_t>(spans_[i].parent)] -= seconds(spans_[i]);
      }
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"parent\":" << s.parent
          << ",\"start_ns\":" << s.start_ns - origin
          << ",\"end_ns\":" << s.end_ns - origin << ",\"self_s\":"
          << std::setprecision(9) << self[i] << "}\n";
    }
  }

 private:
  struct Span {
    std::string name;
    long parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  static double seconds(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  std::size_t open(std::string name) {
    const long parent = stack_.empty() ? -1 : static_cast<long>(stack_.back());
    spans_.push_back(Span{std::move(name), parent, now_ns(), 0});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t id) {
    spans_[id].end_ns = now_ns();
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

// ------------------------------------------------------------ JSON output

/// Flat JSON object builder for the driver's single output line.
class Json {
 public:
  Json& num(std::string_view key, double v) {
    std::ostringstream os;
    os << std::setprecision(12) << v;
    return raw(key, os.str());
  }
  Json& count(std::string_view key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& text(std::string_view key, std::string_view v) {
    return raw(key, "\"" + std::string(v) + "\"");
  }
  Json& flag(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& object(std::string_view key, const Json& v) {
    return raw(key, v.str());
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  Json& raw(std::string_view key, const std::string& value) {
    if (!body_.empty()) body_ += ',';
    body_ += "\"" + std::string(key) + "\":" + value;
    return *this;
  }
  std::string body_;
};

// -------------------------------------------------------------- workloads

enum class Kind { kSched, kDist, kRepair };

// Settings every workload shares: the paper's density and periphery band,
// the α-synchronizer's retransmission interval, the crash count of repair,
// and the replayed nodes per awake-set snapshot of the traced run.
constexpr double kDegree = 25.0;
constexpr double kBand = 1.0;
constexpr double kRetransmit = 4.0;
constexpr unsigned kFailures = 3;
constexpr std::size_t kReplayCap = 200;
// Set-up repeats until this share of --seconds has passed (half before the
// timed calls, half after), and at least kMinSetups times on each side.
constexpr double kSetupShare = 0.1;
constexpr unsigned kMinSetups = 2;

struct Spec {
  Kind kind = Kind::kSched;
  std::size_t nodes = 0;
  unsigned tau = 4;
  double loss = 0.0;           // dist: per-message loss probability
  std::uint64_t net_seed = 1;  // deployment (and repair base schedule) seed
  std::uint64_t seed = 1;      // protocol seed: MIS priorities, link loss/delay
  unsigned threads = 2;        // the multi-threaded call's worker count
  double seconds = 1.0;
  bool trace = false;
};

Kind parse_kind(const std::string& s) {
  if (s == "sched") return Kind::kSched;
  if (s == "dist") return Kind::kDist;
  TGC_CHECK_MSG(s == "repair", "--kind must be sched | dist | repair, got '"
                                   << s << "'");
  return Kind::kRepair;
}

core::DccConfig dcc_config(const Spec& s, unsigned threads,
                           std::uint64_t seed) {
  core::DccConfig c;
  c.tau = s.tau;
  c.seed = seed;
  c.num_threads = threads;
  return c;
}

/// The seeded inputs of one run. For repair: the certified base schedule and
/// the crash mask too.
struct Instance {
  core::Network net;
  std::vector<bool> active_before;
  std::vector<bool> failed;
};

/// The `count` awake internal nodes nearest the area's centre (ties by id).
/// Internal only: crashing a boundary-cycle node aborts dcc_repair in
/// remap_edge_vector, which this benchmark does not exercise.
std::vector<bool> central_failures(const core::Network& net,
                                   const std::vector<bool>& awake,
                                   unsigned count) {
  const geom::Rect& a = net.dep.area;
  const double cx = 0.5 * (a.xmin + a.xmax);
  const double cy = 0.5 * (a.ymin + a.ymax);
  std::vector<std::pair<double, VertexId>> order;
  for (VertexId v = 0; v < net.dep.graph.num_vertices(); ++v) {
    if (!awake[v] || !net.internal[v]) continue;
    const double dx = net.dep.positions[v].x - cx;
    const double dy = net.dep.positions[v].y - cy;
    order.emplace_back(dx * dx + dy * dy, v);
  }
  std::sort(order.begin(), order.end());
  TGC_CHECK_MSG(order.size() >= count, "only " << order.size()
                                               << " awake internal nodes");
  std::vector<bool> failed(net.dep.graph.num_vertices(), false);
  for (unsigned i = 0; i < count; ++i) failed[order[i].second] = true;
  return failed;
}

Instance set_up(const Spec& s, Tracer& tracer) {
  const auto span = tracer.scope("setup");
  Instance inst;
  gen::Deployment dep = [&] {
    const auto gen_span = tracer.scope("gen.deploy");
    util::Rng rng(s.net_seed);
    return gen::random_connected_udg(
        s.nodes, gen::side_for_average_degree(s.nodes, 1.0, kDegree), 1.0,
        rng);
  }();
  {
    const auto prep_span = tracer.scope("boundary.prepare");
    inst.net = core::prepare_network(std::move(dep), kBand);
  }
  if (s.kind == Kind::kRepair) {
    const auto base_span = tracer.scope("core.base_schedule");
    inst.active_before =
        core::dcc_schedule(inst.net.dep.graph, inst.net.internal,
                           dcc_config(s, s.threads, s.net_seed))
            .active;
    inst.failed = central_failures(inst.net, inst.active_before, kFailures);
  }
  return inst;
}

/// Everything exact one timed call returns, across the three entry points.
struct Outcome {
  std::vector<bool> active;
  std::uint64_t digest = 0;
  std::size_t survivors = 0;
  std::size_t rounds = 0;     // sched/dist
  std::size_t vpt_tests = 0;  // sched/dist
  sim::TrafficStats traffic;  // dist
  std::size_t messages_lost = 0;
  std::size_t retransmissions = 0;
  std::size_t mis_subrounds = 0;
  std::size_t woken = 0;  // repair
  std::size_t redeleted = 0;
  std::size_t waves = 0;
  unsigned final_radius = 0;
  bool restored = false;
};

Outcome solve(const Spec& s, const Instance& inst, unsigned threads) {
  const core::Network& net = inst.net;
  const Graph& g = net.dep.graph;
  const core::DccConfig config = dcc_config(s, threads, s.seed);
  Outcome o;
  switch (s.kind) {
    case Kind::kSched: {
      core::DccResult r = core::dcc_schedule(g, net.internal, config);
      o.rounds = r.rounds;
      o.vpt_tests = r.vpt_tests;
      o.active = std::move(r.active);
      break;
    }
    case Kind::kDist: {
      core::DccAsyncOptions async;
      async.net.loss_probability = s.loss;
      async.net.seed = s.seed;
      async.retransmit_interval = kRetransmit;
      core::DccDistributedResult r =
          core::dcc_schedule_distributed_async(g, net.internal, config, async);
      o.rounds = r.schedule.rounds;
      o.vpt_tests = r.schedule.vpt_tests;
      o.traffic = r.traffic;
      o.messages_lost = r.messages_lost;
      o.retransmissions = r.retransmissions;
      o.mis_subrounds = r.mis_subrounds;
      o.active = std::move(r.schedule.active);
      break;
    }
    case Kind::kRepair: {
      core::RepairResult r = core::dcc_repair(
          g, net.internal, inst.active_before, inst.failed, net.cb, config);
      o.woken = r.woken;
      o.redeleted = r.redeleted;
      o.final_radius = r.final_radius;
      for (unsigned radius = config.vpt().effective_k();
           radius <= r.final_radius; radius *= 2) {
        ++o.waves;  // the wake radius doubles from k once per wave
      }
      o.restored = r.criterion_restored;
      o.active = std::move(r.active);
      break;
    }
  }
  o.survivors = static_cast<std::size_t>(
      std::count(o.active.begin(), o.active.end(), true));
  o.digest = io::mask_digest(o.active);
  return o;
}

/// Named pass/fail checks; every failure counts toward the run's `failed`.
struct Checks {
  Json json;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void add(std::string_view name, bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "perfbench: check failed: " << name << "\n";
    }
    json.flag(name, ok);
  }
};

/// Workload-specific output checks on the 1-thread outcome. Run outside
/// every timed region.
void check_outcome(const Spec& s, const Instance& inst, const Outcome& o,
                   Checks& checks) {
  const core::Network& net = inst.net;
  const Graph& g = net.dep.graph;
  bool boundary_kept = true;  // only internal nodes may be put to sleep
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const bool awake_before = s.kind != Kind::kRepair ||
                              (inst.active_before[v] && !inst.failed[v]);
    if (!net.internal[v] && awake_before && !o.active[v]) boundary_kept = false;
  }
  checks.add("boundary_kept", boundary_kept);
  switch (s.kind) {
    case Kind::kSched:
      // Theorem 5: VPT deletions preserve τ-partitionability of CB either way.
      checks.add("criterion_preserved",
                 core::criterion_holds(g, o.active, net.cb, s.tau) ==
                     core::criterion_holds(
                         g, std::vector<bool>(g.num_vertices(), true), net.cb,
                         s.tau));
      break;
    case Kind::kDist:
      checks.add("dist_matches_oracle",
                 io::mask_digest(
                     core::dcc_schedule(g, net.internal,
                                        dcc_config(s, s.threads, s.seed))
                         .active) == o.digest);
      checks.add("dist_no_loss_unrecovered",
                 o.retransmissions >= o.messages_lost);
      break;
    case Kind::kRepair: {
      bool failed_asleep = true;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (inst.failed[v] && o.active[v]) failed_asleep = false;
      }
      checks.add("failed_stay_down", failed_asleep);
      checks.add("certificate_restored",
                 o.restored &&
                     core::criterion_holds(g, o.active, net.cb, s.tau));
      break;
    }
  }
}

/// The exact outputs of a call that the pins compare, per entry point.
Json exact_json(const Spec& s, const Outcome& o) {
  Json j;
  j.text("digest", util::hex64(o.digest)).count("awake_nodes", o.survivors);
  if (s.kind == Kind::kDist) {
    j.count("messages", o.traffic.messages)
        .count("retransmissions", o.retransmissions);
  }
  if (s.kind == Kind::kRepair) {
    j.count("woken", o.woken)
        .count("redeleted", o.redeleted)
        .count("waves", o.waves);
  }
  return j;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return ratio(usage.ru_maxrss, 1024);  // ru_maxrss is in KiB
}

// ------------------------------------------------------------ replays

/// Non-failed nodes within `radius` hops of a failed node over the full
/// topology: the set dcc_repair's last wave woke (sleepers among them).
std::vector<bool> near_failures(const Graph& g, const std::vector<bool>& failed,
                                unsigned radius) {
  std::vector<std::uint32_t> dist(g.num_vertices(), graph::kUnreached);
  std::vector<VertexId> queue;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (failed[v]) {
      dist[v] = 0;
      queue.push_back(v);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const VertexId u = queue[head];
    if (dist[u] == radius) continue;
    for (const VertexId w : g.neighbors(u)) {
      if (failed[w] || dist[w] != graph::kUnreached) continue;
      dist[w] = dist[u] + 1;
      queue.push_back(w);
    }
  }
  std::vector<bool> near(g.num_vertices(), false);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    near[v] = !failed[v] && dist[v] != graph::kUnreached;
  }
  return near;
}

/// Active nodes within `k` hops of `v` over the active topology, `v`
/// excluded: the punctured ball Γ^k(v) the VPT test examines.
std::vector<VertexId> punctured_ball(const Graph& g,
                                     const std::vector<bool>& active,
                                     VertexId v, unsigned k) {
  std::vector<VertexId> order{v};
  std::vector<std::uint32_t> depth{0};
  std::vector<bool> seen(g.num_vertices(), false);
  seen[v] = true;
  for (std::size_t head = 0; head < order.size(); ++head) {
    if (depth[head] == k) continue;
    for (const VertexId w : g.neighbors(order[head])) {
      if (!active[w] || seen[w]) continue;
      seen[w] = true;
      order.push_back(w);
      depth.push_back(depth[head] + 1);
    }
  }
  order.erase(order.begin());
  return order;
}

/// One state of the awake set and the nodes whose VPT test is replayed on it.
struct Snapshot {
  std::vector<bool> active;
  std::vector<VertexId> tested;
};

/// Every `stride`-th eligible node, at most `cap` of them.
std::vector<VertexId> sample(const std::vector<bool>& eligible,
                             std::size_t cap) {
  const std::size_t total = static_cast<std::size_t>(
      std::count(eligible.begin(), eligible.end(), true));
  const std::size_t stride = std::max<std::size_t>(1, (total + cap - 1) / cap);
  std::vector<VertexId> out;
  std::size_t seen = 0;
  for (VertexId v = 0; v < eligible.size(); ++v) {
    if (eligible[v] && seen++ % stride == 0) out.push_back(v);
  }
  return out;
}

/// The round-1 and fixpoint awake sets of the timed call, with the nodes
/// the scheduler tests on them (internal ones; for repair, the woken ones).
std::vector<Snapshot> snapshots(const Spec& s, const Instance& inst,
                                const Outcome& o) {
  const core::Network& net = inst.net;
  const std::size_t n = net.dep.graph.num_vertices();
  std::vector<bool> start(n, true);
  std::vector<bool> testable = net.internal;
  if (s.kind == Kind::kRepair) {
    const auto near = near_failures(net.dep.graph, inst.failed, o.final_radius);
    for (VertexId v = 0; v < n; ++v) {
      const bool woken = near[v] && !inst.active_before[v];
      start[v] = !inst.failed[v] && (inst.active_before[v] || woken);
      testable[v] = woken && net.internal[v];
    }
  }
  std::vector<Snapshot> out;
  for (const std::vector<bool>* active : {&std::as_const(start), &o.active}) {
    std::vector<bool> eligible(n, false);
    for (VertexId v = 0; v < n; ++v) eligible[v] = (*active)[v] && testable[v];
    out.push_back(Snapshot{*active, sample(eligible, kReplayCap)});
  }
  return out;
}

std::uint64_t counter(const obs::Metrics& a, const obs::Metrics& b,
                      obs::CounterId id) {
  return b.get(id) - a.get(id);
}

/// Replays the VPT test, the τ-span kernel and the GF(2) eliminator on the
/// snapshots' tested nodes and adds the per-layer metrics to `out`.
void replay_kernels(const Spec& s, const Instance& inst,
                    const std::vector<Snapshot>& snaps, Tracer& tracer,
                    Json& out) {
  const Graph& g = inst.net.dep.graph;
  const core::VptConfig vpt{s.tau, 0};
  const unsigned k = vpt.effective_k();

  // core.vpt: the public test, deletable and vetoed verdicts timed apart.
  std::size_t tests = 0, deletable = 0, members = 0;
  double deletable_s = 0.0, vetoed_s = 0.0;
  {
    const auto span = tracer.scope("replay.vpt");
    core::VptWorkspace ws;
    for (const Snapshot& snap : snaps) {
      for (const VertexId v : snap.tested) {
        bool verdict = false;
        const double t = timed([&] {
          verdict = core::vpt_vertex_deletable(g, snap.active, v, vpt, ws);
        });
        ++tests;
        (verdict ? deletable_s : vetoed_s) += t;
        deletable += verdict ? 1 : 0;
      }
    }
  }
  const std::size_t vetoed = tests - deletable;

  // Punctured balls, induced as stand-alone graphs for the kernel replays.
  std::vector<graph::InducedSubgraph> balls;
  for (const Snapshot& snap : snaps) {
    for (const VertexId v : snap.tested) {
      const std::vector<VertexId> ball = punctured_ball(g, snap.active, v, k);
      members += ball.size();
      graph::InducedSubgraph sub = graph::induce_vertices(g, ball);
      // The VPT test only reaches the span kernel on connected balls.
      if (sub.graph.num_vertices() > 0 && graph::is_connected(sub.graph)) {
        balls.push_back(std::move(sub));
      }
    }
  }

  // cycle and util.gf2: the streaming τ-span test on each ball. Its
  // candidate and GF(2) pivot counters are read around each call, so the
  // figures describe the eliminations the kernel itself performs. The
  // public API does not time elimination apart from candidate generation,
  // so gf2.ns_per_pivot divides the whole span time by the pivot steps.
  double span_s = 0.0;
  std::uint64_t candidates = 0, rank = 0, pivots = 0, xor_bytes = 0,
                words = 0;
  {
    const auto span = tracer.scope("replay.cycle");
    cycle::SpanScratch scratch;
    for (const graph::InducedSubgraph& b : balls) {
      bool spans = false;
      const obs::Metrics m0 = obs::snapshot();
      span_s += timed(
          [&] { spans = cycle::short_cycles_span(b.graph, s.tau, scratch); });
      const obs::Metrics m1 = obs::snapshot();
      candidates += counter(m0, m1, obs::CounterId::kHortonCandidates);
      const std::uint64_t p = counter(m0, m1, obs::CounterId::kGf2Pivots);
      const std::uint64_t row_words = (b.graph.num_edges() + 63) / 64;
      pivots += p;
      xor_bytes += p * row_words * 8;
      words += row_words;
      // The kernel stops at rank ν when S_τ spans; otherwise it exhausts
      // the candidates, whose span has the rank ShortCycleBasis reaches.
      rank += spans ? graph::cycle_space_dimension(b.graph)
                    : cycle::ShortCycleBasis(b.graph, s.tau, false).rank();
    }
  }

  out.count("vpt.tests", tests)
      .count("vpt.deletable", deletable)
      .count("vpt.vetoed", vetoed)
      .num("vpt.deletable_us", 1e6 * ratio(deletable_s, deletable))
      .num("vpt.vetoed_us", 1e6 * ratio(vetoed_s, vetoed))
      .num("vpt.ball_members", ratio(members, tests))
      .num("cycle.span_us", 1e6 * ratio(span_s, balls.size()))
      .count("cycle.candidates", candidates)
      .num("cycle.candidates_per_test", ratio(candidates, balls.size()))
      .num("cycle.rank_per_candidate", ratio(rank, candidates))
      .count("gf2.pivots", pivots)
      .num("gf2.pivots_per_candidate", ratio(pivots, candidates))
      .num("gf2.ns_per_pivot", 1e9 * ratio(span_s, pivots))
      .num("gf2.row_words", ratio(words, balls.size()))
      .count("gf2.xor_bytes_computed", xor_bytes);
}

/// The simulator's k-hop collection and the MIS oracle, replayed on the
/// all-awake network with every internal node a candidate.
void replay_sim(const Spec& s, const Instance& inst, Tracer& tracer,
                Json& out) {
  const Graph& g = inst.net.dep.graph;
  const core::VptConfig vpt{s.tau, 0};
  double khop_s = 0.0, mis_s = 0.0;
  {
    const auto span = tracer.scope("replay.khop");
    sim::RoundEngine engine(g);
    khop_s =
        timed([&] { sim::collect_k_hop_views(engine, vpt.effective_k()); });
  }
  {
    const auto span = tracer.scope("replay.mis");
    const std::vector<bool> all(g.num_vertices(), true);
    mis_s = timed([&] {
      sim::elect_mis_oracle(g, all, inst.net.internal, vpt.mis_radius(),
                            s.seed);
    });
  }
  out.num("sim.khop_collect_s", khop_s).num("mis.oracle_s", mis_s);
}

// ------------------------------------------------------------------ modes

Json stamp(const Spec& s) {
  Json j;
  j.count("hardware_concurrency", std::thread::hardware_concurrency())
      .text("compiler", kCompiler)
      .text("build_type", kBuildType)
      .text("git_sha", kGitSha)
      .count("threads", s.threads);
  return j;
}

/// Sets up repeatedly, each time under the tracer's "setup" span, until
/// half the set-up budget (kSetupShare of --seconds) has passed and at least
/// kMinSetups times; returns the last instance.
Instance set_up_half(const Spec& s, Tracer& tracer) {
  Instance inst;
  const auto start = Clock::now();
  for (unsigned i = 0; i < kMinSetups ||
                       seconds_between(start, Clock::now()) <
                           0.5 * kSetupShare * s.seconds;
       ++i) {
    inst = set_up(s, tracer);
  }
  return inst;
}

/// The first half of the set-ups, and for repair the check that the base
/// schedule certifies.
Instance set_up_checked(const Spec& s, Tracer& tracer, Checks& checks) {
  Instance inst = set_up_half(s, tracer);
  if (s.kind == Kind::kRepair) {
    checks.add("base_certifies",
               core::criterion_holds(inst.net.dep.graph, inst.active_before,
                                     inst.net.cb, s.tau));
  }
  return inst;
}

/// Untraced run: the timed call at 1 thread, repeated until `seconds` have
/// passed, then once at `threads`, between two halves of the set-ups. The
/// host's speed drifts over seconds to minutes, so set-up time is sampled on
/// both sides of the timed calls rather than in one burst, and each 1-thread
/// call is also reported scaled to the host's nominal speed by the probes
/// run just before and after it.
void run_end_to_end(const Spec& s, Tracer& tracer, Json& out, Checks& checks) {
  const Instance inst = set_up_checked(s, tracer, checks);

  std::vector<double> solve_s, scaled_s, probe_s;
  Outcome first;
  bool same_digest = true;
  const auto start = Clock::now();
  do {
    Outcome one;
    const double before = probe_host();
    solve_s.push_back(timed([&] {
      const auto span = tracer.scope("solve");
      one = solve(s, inst, 1);
    }));
    const double after = probe_host();
    probe_s.push_back(0.5 * (before + after));
    scaled_s.push_back(solve_s.back() * kNominalProbeS / probe_s.back());
    if (first.active.empty()) first = one;
    same_digest = same_digest && one.digest == first.digest;
  } while (seconds_between(start, Clock::now()) < s.seconds);
  // One multi-threaded call: its digest must match, and its time is
  // reported but not repeated (2-thread times drifted twice as much as
  // 1-thread ones from run to run on a shared host).
  Outcome many;
  const double solve_mt_s = timed([&] {
    const auto span = tracer.scope("solve_mt");
    many = solve(s, inst, s.threads);
  });
  same_digest = same_digest && many.digest == first.digest;
  checks.add("digest_1t_eq_mt", same_digest);
  check_outcome(s, inst, first, checks);
  set_up_half(s, tracer);

  Json metrics;
  metrics.num("setup_s", median(tracer.durations("setup")))
      .num("solve_s", median(scaled_s))
      .num("solve_wall_s", median(solve_s))
      .num("probe_ms", 1e3 * median(probe_s))
      .num("solve_mt_s", solve_mt_s)
      .count("awake_nodes", first.survivors)
      .num("peak_rss_mib", peak_rss_mib())
      .count("radio_messages", first.traffic.messages)
      .num("radio_kib", ratio(first.traffic.payload_bytes(), 1024));
  out.object("metrics", metrics)
      .object("exact", s.kind == Kind::kRepair
                           ? exact_json(s, first)
                           : exact_json(s, first)
                                 .count("rounds", first.rounds)
                                 .count("vpt_tests", first.vpt_tests))
      .count("solve_calls", solve_s.size() + 1);
}

/// Traced run: per-layer metrics from the scheduler's span histograms, the
/// cost counters, and this file's kernel replays.
void run_traced(const Spec& s, Tracer& tracer, Json& out, Checks& checks) {
  const Instance inst = set_up_checked(s, tracer, checks);

  Outcome plain, traced, many;
  const double untraced_s = timed([&] {
    const auto span = tracer.scope("solve");
    plain = solve(s, inst, 1);
  });
  obs::set_enabled(true);
  const obs::Metrics m0 = obs::snapshot();
  const double traced_s = timed([&] {
    const auto span = tracer.scope("solve.traced");
    traced = solve(s, inst, 1);
  });
  const obs::Metrics d = obs::snapshot() - m0;
  const double traced_mt_s = timed([&] {
    const auto span = tracer.scope("solve_mt.traced");
    many = solve(s, inst, s.threads);
  });
  checks.add("digest_traced_eq_untraced", traced.digest == plain.digest);
  checks.add("digest_1t_eq_mt", many.digest == plain.digest);
  check_outcome(s, inst, traced, checks);

  auto span_s = [&](obs::SpanId id) {
    return static_cast<double>(d.span(id).sum_ns) * 1e-9;
  };
  const double verdicts_s = span_s(obs::SpanId::kVerdicts);
  const double mis_s = span_s(obs::SpanId::kMis);
  const double deletion_s = span_s(obs::SpanId::kDeletion);
  const double khop_s = span_s(obs::SpanId::kKhopCollect);
  const bool dist = s.kind == Kind::kDist;
  const std::uint64_t hits = d.get(obs::CounterId::kVerdictCacheHits);
  const std::uint64_t evaluated = d.get(obs::CounterId::kVptTests);
  const double speedup = ratio(traced_s, traced_mt_s);

  Json m;
  m.num("gen.deploy_s", median(tracer.durations("gen.deploy")))
      .num("boundary.prepare_s", median(tracer.durations("boundary.prepare")))
      .num("solve.traced_s", traced_s)
      .num("sched.verdicts_s", verdicts_s)
      .num("sched.mis_s", mis_s)
      .num("sched.deletion_s", deletion_s)
      .num("sched.remainder_s", traced_s - verdicts_s - mis_s - deletion_s)
      .count("sched.rounds", d.span(obs::SpanId::kMis).count)
      .num("sched.verdicts_share", ratio(verdicts_s, traced_s))
      .num("pool.speedup", speedup)
      .num("pool.efficiency", ratio(speedup, s.threads))
      .count("cache.hits", hits)
      .num("cache.hit_ratio",
           ratio(hits, hits + evaluated))
      .count("cache.dirty_nodes", d.get(obs::CounterId::kDirtyNodes))
      .count("ball.view_bytes", d.get(obs::CounterId::kBallViewBytes))
      .count("ball.bfs_expansions", d.get(obs::CounterId::kBfsExpansions))
      .num("sim.khop_s", khop_s)
      .num("sim.mis_s", dist ? mis_s : 0.0)
      .num("sim.deletion_s", dist ? deletion_s : 0.0)
      .count("sim.engine_rounds", traced.traffic.rounds)
      .count("sim.messages", traced.traffic.messages)
      .count("sim.payload_words", traced.traffic.payload_words)
      .count("sim.messages_lost", traced.messages_lost)
      .count("sim.retransmissions", traced.retransmissions)
      .num("sim.retransmit_ratio",
           ratio(traced.retransmissions, traced.traffic.messages))
      .count("sim.mis_subrounds", traced.mis_subrounds)
      .num("sim.share",
           dist ? ratio(khop_s + mis_s + deletion_s, traced_s) : 0.0)
      .count("repair.waves", d.get(obs::CounterId::kRepairWaves))
      .count("repair.woken", traced.woken)
      .count("repair.redeleted", traced.redeleted)
      .num("repair.wave_s", span_s(obs::SpanId::kRepairWave))
      .num("trace.overhead", ratio(traced_s, untraced_s));

  replay_kernels(s, inst, snapshots(s, inst, traced), tracer, m);
  replay_sim(s, inst, tracer, m);
  const Graph& g = inst.net.dep.graph;
  const double check_s = timed([&] {
    const auto span = tracer.scope("criterion");
    core::criterion_holds(g, traced.active, inst.net.cb, s.tau);
  });
  m.num("criterion.check_s", check_s)
      .count("criterion.nu", graph::cycle_space_dimension(
                                 graph::filter_active(g, traced.active)));
  obs::set_enabled(false);

  out.object("metrics", m)
      .object("exact",
              exact_json(s, traced)
                  .count("rounds", d.span(obs::SpanId::kMis).count)
                  .count("vpt_tests", evaluated)
                  .count("horton_candidates",
                         d.get(obs::CounterId::kHortonCandidates))
                  .count("gf2_pivots", d.get(obs::CounterId::kGf2Pivots)))
      .count("solve_calls", 3);
}

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  Spec s;
  s.kind =
      parse_kind(args.get_string("kind", "sched", "sched | dist | repair"));
  s.nodes = static_cast<std::size_t>(args.get_int("nodes", 400, "node count"));
  s.tau = static_cast<unsigned>(args.get_int("tau", 4, "confine size"));
  s.loss = args.get_double("loss", 0.0, "dist: per-message loss probability");
  s.seed = static_cast<std::uint64_t>(
      args.get_int("seed", 1, "protocol seed: MIS priorities, link loss"));
  s.net_seed = static_cast<std::uint64_t>(
      args.get_int("net-seed", 1, "deployment seed"));
  const std::int64_t threads =
      args.get_int("threads", 2, "worker threads of the multi-threaded call");
  s.seconds = args.get_double("seconds", 1.0, "timed-loop duration");
  s.trace = args.get_int("trace", 0, "1 = per-layer traced run") != 0;
  const std::string trace_out =
      args.get_string("trace-out", "", "write the benchmark's spans here");
  args.finish();

  TGC_CHECK_MSG(kBuildType == "Release",
                "refusing to time a '" << kBuildType
                                        << "' build (need Release)");
  const unsigned hw = std::thread::hardware_concurrency();
  TGC_CHECK_MSG(threads >= 1 && static_cast<std::uint64_t>(threads) <= hw,
                "--threads " << threads << " outside [1, hardware_concurrency="
                             << hw << "]");
  s.threads = static_cast<unsigned>(threads);

  obs::set_enabled(false);
  Tracer tracer;
  Json out;
  Checks checks;
  if (s.trace) {
    run_traced(s, tracer, out, checks);
  } else {
    run_end_to_end(s, tracer, out, checks);
  }
  out.object("checks", checks.json)
      .count("checks_attempted", checks.attempted)
      .count("checks_failed", checks.failed)
      .object("stamp", stamp(s));
  if (!trace_out.empty()) {
    std::ofstream spans(trace_out);
    TGC_CHECK_MSG(spans.good(), "cannot open '" << trace_out << "'");
    tracer.write(spans);
  }
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
