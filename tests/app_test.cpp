// End-to-end tests of the tgcover CLI (the library function behind the
// binary): generate → schedule → verify → quality → render on temp files.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "tgcover/app/cli.hpp"
#include "tgcover/core/certificate.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/io/network_io.hpp"
#include "tgcover/util/check.hpp"

namespace tgc::app {
namespace {

namespace fs = std::filesystem;

int run(std::initializer_list<const char*> argv, std::string* captured = nullptr) {
  std::vector<const char*> full{"tgcover"};
  full.insert(full.end(), argv.begin(), argv.end());
  std::ostringstream out;
  const int rc = run_cli(static_cast<int>(full.size()), full.data(), out);
  if (captured != nullptr) *captured = out.str();
  return rc;
}

class CliFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test process: ctest runs each discovered TEST as its
    // own process, possibly concurrently, and TearDown removes the tree.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("tgc_cli_test_") + info->name());
    fs::create_directories(dir_);
    net_ = (dir_ / "net.tgc").string();
    sched_ = (dir_ / "sched.tgc").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Generates a 60-node network into net_ and writes a mask one node short
  /// of it (node 0 set); returns the mask's path.
  std::string short_mask() {
    EXPECT_EQ(run({"generate", "--nodes", "60", "--degree", "10", "--seed",
                   "2", "--out", net_.c_str()}),
              0);
    const std::string path = (dir_ / "short.tgc").string();
    std::ofstream(path) << "tgcover-mask 1\nnodes 59\nset 0\n";
    return path;
  }

  fs::path dir_;
  std::string net_;
  std::string sched_;
};

/// Runs a command that must refuse the 59-node `mask` on the 60-node
/// network, with an error naming the file and both node counts.
void expect_short_mask_refused(std::initializer_list<const char*> argv,
                               const std::string& mask) {
  try {
    run(argv);
    ADD_FAILURE() << "a mask one node short was accepted";
  } catch (const tgc::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "mask '" + mask + "' has 59 nodes but the network has 60"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(CliFixture, FullWorkflow) {
  std::string out;
  ASSERT_EQ(run({"generate", "--type", "udg", "--nodes", "300", "--degree",
                 "25", "--seed", "5", "--out", net_.c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("300 nodes"), std::string::npos);
  ASSERT_TRUE(fs::exists(net_));

  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--tau", "4", "--out",
                 sched_.c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("scheduled tau=4"), std::string::npos);
  ASSERT_TRUE(fs::exists(sched_));

  // The full network must certify whenever the schedule does; check both.
  const int full_rc =
      run({"verify", "--in", net_.c_str(), "--tau", "4"}, &out);
  const int sched_rc = run({"verify", "--in", net_.c_str(), "--schedule",
                            sched_.c_str(), "--tau", "4"},
                           &out);
  EXPECT_EQ(sched_rc, full_rc);  // Theorem 5: scheduling preserves it

  ASSERT_EQ(run({"quality", "--in", net_.c_str(), "--schedule", sched_.c_str(),
                 "--gamma", "1.4"},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("void sizes"), std::string::npos);

  // Certificate extraction: a file of tau-bounded cycles XORing to CB.
  if (full_rc == 0) {
    const std::string cert = (dir_ / "cert.txt").string();
    ASSERT_EQ(run({"verify", "--in", net_.c_str(), "--schedule",
                   sched_.c_str(), "--tau", "4", "--certificate",
                   cert.c_str()},
                  &out),
              0);
    ASSERT_TRUE(fs::exists(cert));
    std::ifstream in(cert);
    std::string line;
    std::getline(in, line);
    EXPECT_NE(line.find("certificate"), std::string::npos);
    std::size_t cycles = 0;
    while (std::getline(in, line)) {
      if (line.rfind("cycle", 0) == 0) {
        ++cycles;
        // "cycle v1 v2 v3 [v4]": 4 to 5 tokens for tau=4.
        std::istringstream ls(line);
        std::string tok;
        int words = 0;
        while (ls >> tok) ++words;
        EXPECT_GE(words, 4);
        EXPECT_LE(words, 5);
      }
    }
    EXPECT_GT(cycles, 0u);
  }

  const std::string svg = (dir_ / "net.svg").string();
  ASSERT_EQ(run({"render", "--in", net_.c_str(), "--schedule", sched_.c_str(),
                 "--out", svg.c_str()},
                &out),
            0)
      << out;
  EXPECT_TRUE(fs::exists(svg));
}

TEST_F(CliFixture, GenerateQuasiAndStrip) {
  std::string out;
  EXPECT_EQ(run({"generate", "--type", "quasi", "--nodes", "150", "--seed",
                 "3", "--out", net_.c_str()},
                &out),
            0)
      << out;
  EXPECT_TRUE(fs::exists(net_));
  EXPECT_EQ(run({"generate", "--type", "strip", "--nodes", "150", "--seed",
                 "3", "--out", net_.c_str()},
                &out),
            0)
      << out;
}

TEST_F(CliFixture, TraceCommand) {
  std::string out;
  const std::string path = (dir_ / "trace.tgc").string();
  ASSERT_EQ(run({"trace", "--nodes", "120", "--epochs", "40", "--seed", "4",
                 "--out", path.c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("threshold"), std::string::npos);
  EXPECT_TRUE(fs::exists(path));
}

TEST_F(CliFixture, DistributedMatchesOracleSchedule) {
  std::string out;
  ASSERT_EQ(run({"generate", "--nodes", "150", "--degree", "20", "--seed",
                 "8", "--out", net_.c_str()},
                &out),
            0);
  const std::string oracle = (dir_ / "oracle.tgc").string();
  const std::string dist = (dir_ / "dist.tgc").string();
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--tau", "3", "--seed",
                 "5", "--out", oracle.c_str()},
                &out),
            0);
  ASSERT_EQ(run({"distributed", "--in", net_.c_str(), "--tau", "3", "--seed",
                 "5", "--out", dist.c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("radio cost"), std::string::npos);
  // The two executors write identical awake sets (file-level check).
  std::ifstream a(oracle);
  std::ifstream b(dist);
  std::stringstream sa;
  std::stringstream sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// First unsigned integer following `marker` in `text` (or -1).
long number_after(const std::string& text, const std::string& marker) {
  const std::size_t at = text.find(marker);
  if (at == std::string::npos) return -1;
  return std::strtol(text.c_str() + at + marker.size(), nullptr, 10);
}

TEST_F(CliFixture, TraceIsDeterministicAndDoesNotPerturbSchedule) {
  std::string out;
  ASSERT_EQ(run({"generate", "--nodes", "120", "--degree", "18", "--seed",
                 "21", "--out", net_.c_str()},
                &out),
            0);

  // Baseline: untraced schedule.
  const std::string plain = (dir_ / "plain.tgc").string();
  ASSERT_EQ(run({"distributed", "--in", net_.c_str(), "--tau", "3", "--seed",
                 "9", "--out", plain.c_str()},
                &out),
            0)
      << out;

  // Traced runs at several thread counts, plus a repeat of the first: the
  // JSONL trace must be byte-identical every time, and the schedule must be
  // byte-identical to the untraced baseline.
  std::vector<std::string> traces;
  std::size_t variant = 0;
  for (const char* threads : {"1", "2", "4", "1"}) {
    const std::string sched =
        (dir_ / ("sched" + std::to_string(variant) + ".tgc")).string();
    const fs::path bundle = dir_ / ("run" + std::to_string(variant));
    ++variant;
    ASSERT_EQ(run({"distributed", "--in", net_.c_str(), "--tau", "3",
                   "--seed", "9", "--threads", threads, "--out",
                   sched.c_str(), "--obs-out", bundle.string().c_str(),
                   "--obs", "trace"},
                  &out),
              0)
        << out;
    EXPECT_EQ(slurp(sched), slurp(plain)) << "tracing perturbed the schedule";
    traces.push_back(slurp((bundle / "trace.jsonl").string()));
    EXPECT_FALSE(traces.back().empty());
  }
  for (std::size_t i = 1; i < traces.size(); ++i) {
    EXPECT_EQ(traces[i], traces[0]) << "trace differs at variant " << i;
  }
}

TEST_F(CliFixture, TraceAnalyzeMatchesSchedulerRounds) {
  std::string out;
  ASSERT_EQ(run({"generate", "--nodes", "130", "--degree", "20", "--seed",
                 "6", "--out", net_.c_str()},
                &out),
            0);
  const fs::path bundle = dir_ / "run";
  const std::string chrome = (bundle / "trace.chrome.json").string();
  ASSERT_EQ(run({"distributed", "--in", net_.c_str(), "--tau", "3", "--seed",
                 "2", "--out", sched_.c_str(), "--obs-out",
                 bundle.string().c_str(), "--obs", "trace"},
                &out),
            0)
      << out;
  const long sched_rounds = number_after(out, "awake after ");
  ASSERT_GT(sched_rounds, 0) << out;

  // The analyzer recomputes the round count from the event stream alone; it
  // must agree with what the scheduler reported, and the invariants hold.
  std::string analysis;
  ASSERT_EQ(run({"report", (bundle / "trace.jsonl").string().c_str(), "--out",
                 (dir_ / "r.html").string().c_str()},
                &analysis),
            0)
      << analysis;
  EXPECT_NE(analysis.find("trace OK"), std::string::npos) << analysis;
  EXPECT_EQ(number_after(analysis, "scheduler: "), sched_rounds) << analysis;
  EXPECT_NE(analysis.find("causal critical path: "), std::string::npos);

  // The Chrome export exists and leads with the trace-event envelope.
  const std::string chrome_text = slurp(chrome);
  EXPECT_NE(chrome_text.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(chrome_text.find("\"ph\":\"M\""), std::string::npos);
}

TEST_F(CliFixture, AsyncLossyMatchesSyncSchedule) {
  std::string out;
  ASSERT_EQ(run({"generate", "--nodes", "110", "--degree", "18", "--seed",
                 "14", "--out", net_.c_str()},
                &out),
            0);
  const std::string sync_out = (dir_ / "sync.tgc").string();
  const std::string async_out = (dir_ / "async.tgc").string();
  ASSERT_EQ(run({"distributed", "--in", net_.c_str(), "--tau", "3", "--seed",
                 "4", "--out", sync_out.c_str()},
                &out),
            0);
  ASSERT_EQ(run({"distributed", "--in", net_.c_str(), "--tau", "3", "--seed",
                 "4", "--async", "--loss", "0.1", "--retransmit", "3", "--out",
                 async_out.c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("async substrate:"), std::string::npos) << out;
  EXPECT_EQ(slurp(async_out), slurp(sync_out));
}

TEST_F(CliFixture, CertificateCheckerAcceptsVerifyOutputAndNamesCorruptions) {
  std::string out;
  ASSERT_EQ(run({"generate", "--nodes", "150", "--degree", "20", "--seed", "8",
                 "--out", net_.c_str()},
                &out),
            0);
  const std::string cert = (dir_ / "cert.txt").string();
  ASSERT_EQ(run({"verify", "--in", net_.c_str(), "--tau", "4",
                 "--certificate", cert.c_str()},
                &out),
            0)
      << out;
  const core::Network net =
      core::prepare_network(io::load_deployment(net_), 1.0);
  const graph::Graph& g = net.dep.graph;
  std::vector<bool> cb_edges(g.num_edges());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    cb_edges[e] = net.cb.test(e);
  }
  const std::vector<bool> awake(g.num_vertices(), true);

  // The file as written: a header, then one "cycle ..." line per cycle.
  std::vector<std::string> lines;
  {
    std::ifstream in(cert);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 3u);
  const auto check = [&](const std::vector<std::string>& text,
                         const std::vector<bool>& active) {
    std::stringstream in;
    for (const std::string& line : text) in << line << "\n";
    return core::check_certificate(g, active, cb_edges, 4, in);
  };
  const core::CertificateVerdict clean = check(lines, awake);
  EXPECT_TRUE(clean.ok) << "line " << clean.line << ": " << clean.error;

  // Line 2 is the first cycle: "cycle a b c [d]".
  std::vector<graph::VertexId> first;
  {
    std::istringstream tokens(lines[1]);
    std::string word;
    tokens >> word;
    for (graph::VertexId v = 0; tokens >> v;) first.push_back(v);
  }
  ASSERT_GE(first.size(), 3u);
  const auto joined = [](const std::vector<graph::VertexId>& walk) {
    std::string line = "cycle";
    for (const graph::VertexId v : walk) line += " " + std::to_string(v);
    return line;
  };

  {  // A dropped cycle: every line is fine, the sum is not CB.
    std::vector<std::string> text = lines;
    text.erase(text.begin() + 1);
    const core::CertificateVerdict v = check(text, awake);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.line, 0u);
    EXPECT_NE(v.error.find("do not sum to the boundary"), std::string::npos)
        << v.error;
  }
  {  // A non-adjacent pair: the second node swapped for a stranger to the
     // first.
    graph::VertexId stranger = 0;
    while (stranger == first[0] || g.has_edge(first[0], stranger)) ++stranger;
    std::vector<graph::VertexId> walk = first;
    walk[1] = stranger;
    std::vector<std::string> text = lines;
    text[1] = joined(walk);
    const core::CertificateVerdict v = check(text, awake);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.line, 2u);
    EXPECT_NE(v.error.find("are not adjacent"), std::string::npos) << v.error;
  }
  {  // A sleeping node on the first cycle.
    std::vector<bool> active = awake;
    active[first[1]] = false;
    const core::CertificateVerdict v = check(lines, active);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.line, 2u);
    EXPECT_NE(v.error.find("node " + std::to_string(first[1]) + " is asleep"),
              std::string::npos)
        << v.error;
  }
  {  // A cycle longer than tau: a there-and-back detour leaves its edge sum
     // unchanged, so only the length check can catch it.
    std::vector<graph::VertexId> walk = first;
    walk.insert(walk.begin() + 2, {first[0], first[1]});
    std::vector<std::string> text = lines;
    text[1] = joined(walk);
    const core::CertificateVerdict v = check(text, awake);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.line, 2u);
    EXPECT_NE(v.error.find("more than tau = 4"), std::string::npos) << v.error;
  }
}

TEST_F(CliFixture, NonFiniteLinkTimesAreRefused) {
  // An infinite delay made every event time inf (and inf - inf a NaN), and
  // an infinite retransmit interval armed timers that fire at inf; both runs
  // used to exit 0 with a nonsense sim duration or spurious retransmissions.
  std::string out;
  ASSERT_EQ(run({"generate", "--nodes", "60", "--degree", "10", "--seed", "7",
                 "--out", net_.c_str()},
                &out),
            0);
  const struct {
    std::vector<const char*> flags;
    const char* message;
  } cases[] = {
      {{"--min-delay", "inf", "--max-delay", "inf"},
       "link delays must be finite and positive"},
      {{"--retransmit", "inf"},
       "the retransmit interval must be finite and positive"},
  };
  for (const auto& c : cases) {
    std::vector<const char*> argv = {"tgcover", "distributed", "--in",
                                     net_.c_str(), "--tau", "4", "--async",
                                     "--out", sched_.c_str()};
    argv.insert(argv.end(), c.flags.begin(), c.flags.end());
    std::ostringstream sink;
    try {
      const int rc = run_cli(static_cast<int>(argv.size()), argv.data(), sink);
      ADD_FAILURE() << c.flags.front() << " inf exited " << rc;
    } catch (const tgc::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(fs::exists(sched_)) << c.flags.front() << " wrote a mask";
  }
}

TEST_F(CliFixture, SinkFailuresExitNonzero) {
  std::string out;
  ASSERT_EQ(run({"generate", "--nodes", "60", "--degree", "10", "--seed",
                 "2", "--out", net_.c_str()},
                &out),
            0);
  // Unwritable bundle (its directory would sit under a regular file): the
  // run must fail loudly, not exit 0 with the data silently dropped.
  const std::string blocked = (dir_ / "net.tgc" / "run").string();
  EXPECT_EQ(run({"distributed", "--in", net_.c_str(), "--tau", "3", "--out",
                 sched_.c_str(), "--obs-out", blocked.c_str()},
                &out),
            1);
  // Same with the trace collector armed.
  EXPECT_EQ(run({"distributed", "--in", net_.c_str(), "--tau", "3", "--out",
                 sched_.c_str(), "--obs-out", blocked.c_str(), "--obs",
                 "trace"},
                &out),
            1);
}

/// Runs a command whose output file is /dev/full, which opens fine and
/// fails every write: the command must throw an error naming the path, not
/// report the file as written.
void expect_full_disk_refused(std::initializer_list<const char*> argv) {
  std::string out;
  try {
    const int rc = run(argv, &out);
    ADD_FAILURE() << "write to /dev/full exited " << rc << ": " << out;
  } catch (const tgc::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot write '/dev/full'"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(CliFixture, WritesToAFullDiskFailNamingThePath) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  // 200 nodes at the default degree: certifies at tau 5 with a 110-cycle
  // certificate.
  ASSERT_EQ(run({"generate", "--nodes", "200", "--seed", "1", "--out",
                 net_.c_str()}),
            0);
  expect_full_disk_refused(
      {"generate", "--nodes", "60", "--degree", "10", "--out", "/dev/full"});
  expect_full_disk_refused(
      {"schedule", "--in", net_.c_str(), "--out", "/dev/full"});
  expect_full_disk_refused(
      {"render", "--in", net_.c_str(), "--out", "/dev/full"});
  expect_full_disk_refused({"verify", "--in", net_.c_str(), "--tau", "5",
                            "--certificate", "/dev/full"});
}

TEST_F(CliFixture, ObsCollectorUsageErrorsExitTwo) {
  std::string out;
  ASSERT_EQ(run({"generate", "--nodes", "60", "--degree", "10", "--seed",
                 "2", "--out", net_.c_str()},
                &out),
            0);
  const std::string bundle = (dir_ / "run").string();
  // `schedule` runs no simulator: it has no trace or node stream to arm.
  EXPECT_EQ(run({"schedule", "--in", net_.c_str(), "--out", sched_.c_str(),
                 "--obs-out", bundle.c_str(), "--obs", "trace"},
                &out),
            2);
  EXPECT_NE(out.find("'trace'"), std::string::npos) << out;
  EXPECT_EQ(run({"repair", "--in", net_.c_str(), "--obs-out", bundle.c_str(),
                 "--obs", "trace"},
                &out),
            2);
  EXPECT_EQ(run({"distributed", "--in", net_.c_str(), "--out",
                 sched_.c_str(), "--obs-out", bundle.c_str(), "--obs",
                 "trace,bogus"},
                &out),
            2);
  EXPECT_NE(out.find("unknown collector 'bogus'"), std::string::npos) << out;
  EXPECT_EQ(run({"distributed", "--in", net_.c_str(), "--out",
                 sched_.c_str(), "--obs", "nodes"},
                &out),
            2);
  EXPECT_NE(out.find("--obs-out"), std::string::npos) << out;
  EXPECT_FALSE(fs::exists(bundle));
}

TEST_F(CliFixture, CrashedBoundaryNodeIsAnUncertifiedScheduleNotAnAbort) {
  std::string out;
  ASSERT_EQ(run({"generate", "--nodes", "150", "--seed", "7", "--out",
                 net_.c_str()},
                &out),
            0);
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--tau", "4", "--out",
                 sched_.c_str()},
                &out),
            0);
  // Node 0 is awake and carries the boundary-cycle edge (0,93).
  ASSERT_NE(slurp(sched_).find("\nset 0\n"), std::string::npos);
  const std::string failed = (dir_ / "failed.tgc").string();
  {
    std::ofstream f(failed);
    f << "tgcover-mask 1\nnodes 150\nset 0\n";
  }
  EXPECT_EQ(run({"repair", "--in", net_.c_str(), "--schedule", sched_.c_str(),
                 "--failed", failed.c_str(), "--tau", "4", "--out",
                 (dir_ / "repaired.tgc").string().c_str()},
                &out),
            1);
  EXPECT_NE(out.find("certificate not restorable"), std::string::npos) << out;

  // The same node dropped from the mask (asleep rather than crashed).
  std::string mask = slurp(sched_);
  mask.erase(mask.find("set 0\n"), 6);
  const std::string asleep = (dir_ / "asleep.tgc").string();
  std::ofstream(asleep) << mask;
  EXPECT_EQ(run({"verify", "--in", net_.c_str(), "--schedule", asleep.c_str(),
                 "--tau", "4"},
                &out),
            1);
  EXPECT_NE(out.find("does not hold"), std::string::npos) << out;
  EXPECT_EQ(run({"quality", "--in", net_.c_str(), "--schedule",
                 asleep.c_str()},
                &out),
            0);
  EXPECT_NE(out.find("no confine-coverage certificate"), std::string::npos)
      << out;
}

TEST_F(CliFixture, RepairCommand) {
  std::string out;
  ASSERT_EQ(run({"generate", "--nodes", "250", "--degree", "25", "--seed",
                 "12", "--out", net_.c_str()},
                &out),
            0);
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--tau", "4", "--out",
                 sched_.c_str()},
                &out),
            0);
  // An empty failure mask: the repair degenerates to a no-op, and must
  // restore the certificate exactly when the schedule certified.
  const std::string failed = (dir_ / "failed.tgc").string();
  {
    std::ofstream f(failed);
    f << "tgcover-mask 1\nnodes 250\n";
  }
  const std::string repaired = (dir_ / "repaired.tgc").string();
  const int verify_rc =
      run({"verify", "--in", net_.c_str(), "--schedule", sched_.c_str(),
           "--tau", "4"},
          &out);
  const int rc = run({"repair", "--in", net_.c_str(), "--schedule",
                      sched_.c_str(), "--failed", failed.c_str(), "--tau",
                      "4", "--out", repaired.c_str()},
                     &out);
  EXPECT_TRUE(fs::exists(repaired));
  // No failures: repair restores iff the schedule certified to begin with.
  EXPECT_EQ(rc, verify_rc);
}

TEST_F(CliFixture, VerifyRejectsAMaskOfTheWrongSize) {
  const std::string mask = short_mask();
  expect_short_mask_refused(
      {"verify", "--in", net_.c_str(), "--schedule", mask.c_str()}, mask);
}

TEST_F(CliFixture, QualityRejectsAMaskOfTheWrongSize) {
  const std::string mask = short_mask();
  expect_short_mask_refused(
      {"quality", "--in", net_.c_str(), "--schedule", mask.c_str()}, mask);
}

TEST_F(CliFixture, RenderRejectsAMaskOfTheWrongSize) {
  const std::string mask = short_mask();
  const std::string svg = (dir_ / "net.svg").string();
  expect_short_mask_refused({"render", "--in", net_.c_str(), "--schedule",
                             mask.c_str(), "--out", svg.c_str()},
                            mask);
  EXPECT_FALSE(fs::exists(svg));
}

TEST_F(CliFixture, RepairRejectsAMaskOfTheWrongSize) {
  const std::string mask = short_mask();
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--tau", "4", "--out",
                 sched_.c_str()}),
            0);
  const std::string out = (dir_ / "repaired.tgc").string();
  // A short crash mask next to a well-sized schedule, then the reverse.
  expect_short_mask_refused({"repair", "--in", net_.c_str(), "--schedule",
                             sched_.c_str(), "--failed", mask.c_str(),
                             "--out", out.c_str()},
                            mask);
  expect_short_mask_refused({"repair", "--in", net_.c_str(), "--schedule",
                             mask.c_str(), "--failed", sched_.c_str(),
                             "--out", out.c_str()},
                            mask);
  EXPECT_FALSE(fs::exists(out));
}

TEST_F(CliFixture, NegativeCountsAndSeedsAreRefused) {
  // These used to wrap to huge unsigned values: schedule --tau -3 ran
  // tau 4294967293, --seed -1 ran seed 2^64-1, trace --epochs -1 hung, and
  // a negative --nodes died in vector::reserve.
  ASSERT_EQ(run({"generate", "--nodes", "60", "--degree", "10", "--seed", "2",
                 "--out", net_.c_str()}),
            0);
  const std::string out = (dir_ / "out.tgc").string();
  const auto refused = [&](std::initializer_list<const char*> argv,
                           const std::string& flag, const std::string& value) {
    try {
      run(argv);
      ADD_FAILURE() << flag << " " << value << " was accepted";
    } catch (const tgc::CheckError& e) {
      const std::string want =
          flag + " wants a non-negative integer, got '" + value + "'";
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(fs::exists(out)) << flag << " " << value;
  };
  refused({"schedule", "--in", net_.c_str(), "--tau", "-3", "--out",
           out.c_str()},
          "--tau", "-3");
  refused({"schedule", "--in", net_.c_str(), "--seed", "-1", "--out",
           out.c_str()},
          "--seed", "-1");
  refused({"trace", "--epochs", "-1", "--out", out.c_str()}, "--epochs", "-1");
  refused({"generate", "--nodes", "-5", "--out", out.c_str()}, "--nodes", "-5");
  refused({"trace", "--nodes", "-1", "--out", out.c_str()}, "--nodes", "-1");
}

TEST(Cli, HelpAndErrors) {
  std::string out;
  EXPECT_EQ(run({"help"}, &out), 0);
  EXPECT_NE(out.find("commands:"), std::string::npos);
  EXPECT_EQ(run({"frobnicate"}, &out), 2);
  EXPECT_NE(out.find("unknown command"), std::string::npos);
  // Deleted commands: tools/bench_gate.py compares runs and
  // bench_ablation_parallel owns the thread ladder. Their positional
  // arguments must not turn the usage error into a parse error.
  EXPECT_EQ(run({"compare", "run-a", "run-b"}, &out), 2);
  EXPECT_NE(out.find("unknown command 'compare'"), std::string::npos);
  EXPECT_EQ(run({"scale", "--threads", "1,2"}, &out), 2);
  EXPECT_NE(out.find("unknown command 'scale'"), std::string::npos);
  EXPECT_EQ(run({}, &out), 2);  // no subcommand
}

TEST(Cli, UnknownOptionThrows) {
  std::string out;
  EXPECT_THROW(run({"generate", "--bogus", "1"}, &out), tgc::CheckError);
}

TEST(Cli, GenerateUnknownTypeFails) {
  std::string out;
  EXPECT_EQ(run({"generate", "--type", "mesh"}, &out), 2);
  EXPECT_NE(out.find("unknown --type"), std::string::npos);
}

TEST(Cli, MissingInputFileThrows) {
  std::string out;
  EXPECT_THROW(run({"verify", "--in", "/nonexistent/net.tgc"}, &out),
               tgc::CheckError);
}

}  // namespace
}  // namespace tgc::app
