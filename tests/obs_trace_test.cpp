// Causal event tracer: emission/drain roundtrip, sequence-number semantics,
// multithreaded emission, the Chrome/Perfetto and JSONL exports, and the
// checked JsonlWriter sink. Export tests build event vectors by hand.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <thread>
#include <vector>

#include "tgcover/obs/jsonl.hpp"
#include "tgcover/obs/trace.hpp"
#include "tgcover/obs/trace_export.hpp"

namespace tgc::obs {
namespace {

namespace fs = std::filesystem;

TEST(Trace, EmitDrainRoundtrip) {
  trace_begin();
  ASSERT_TRUE(trace_active());
  const std::uint64_t send_seq =
      trace_emit(TraceKind::kSend, 3, 4, 7, 2, 1.0);
  trace_emit(TraceKind::kDeliver, 4, 3, 7, 2, 2.0, send_seq);
  const std::vector<TraceEvent> events = trace_end();
  EXPECT_FALSE(trace_active());

  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, send_seq);
  EXPECT_EQ(events[0].kind, TraceKind::kSend);
  EXPECT_EQ(events[0].node, 3u);
  EXPECT_EQ(events[0].peer, 4u);
  EXPECT_EQ(events[0].type, 7u);
  EXPECT_EQ(events[0].value, 2u);
  EXPECT_EQ(events[1].kind, TraceKind::kDeliver);
  EXPECT_EQ(events[1].flow, send_seq);
  EXPECT_LT(events[0].seq, events[1].seq);
}

TEST(Trace, InactiveEmitsNothing) {
  const std::uint64_t seq = trace_emit(TraceKind::kSend, 0, 1, 1, 0, 0.0);
  EXPECT_EQ(seq, 0u);
  trace_begin();
  EXPECT_TRUE(trace_end().empty());
}

TEST(Trace, SequenceResetsOnBegin) {
  // Two identical traced runs in one process must produce identical
  // sequence numbers — this is what makes repeated traces byte-identical.
  std::vector<std::uint64_t> first, second;
  for (auto* seqs : {&first, &second}) {
    trace_begin();
    seqs->push_back(trace_emit(TraceKind::kSend, 0, 1, 1, 0, 0.0));
    seqs->push_back(trace_emit(TraceKind::kSend, 1, 0, 1, 0, 0.0));
    trace_end();
  }
  EXPECT_EQ(first, second);
  EXPECT_EQ(first[0], 1u);  // 1-based
}

TEST(Trace, MultithreadedEmissionKeepsUniqueSeqs) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  trace_begin();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        trace_emit(TraceKind::kSend, static_cast<std::uint32_t>(t), 0, 1, 0,
                   0.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  const std::vector<TraceEvent> events = trace_end();
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  // trace_end sorts by seq; uniqueness ⇒ strictly increasing.
  for (std::size_t i = 1; i < events.size(); ++i) {
    ASSERT_LT(events[i - 1].seq, events[i].seq);
  }
  EXPECT_EQ(events.front().seq, 1u);
  EXPECT_EQ(events.back().seq,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Trace, KindNamesCoverAllKinds) {
  for (std::size_t i = 0; i < kNumTraceKinds; ++i) {
    EXPECT_FALSE(trace_kind_name(static_cast<TraceKind>(i)).empty());
  }
  EXPECT_EQ(trace_kind_name(TraceKind::kSend), "send");
  EXPECT_EQ(trace_kind_name(TraceKind::kDeactivate), "deactivate");
}

/// A small hand-built causal trace: send on node 0 delivered at node 1.
std::vector<TraceEvent> sample_events() {
  std::vector<TraceEvent> events;
  TraceEvent send;
  send.seq = 1;
  send.wall_ns = 100;
  send.sim = 1.0;
  send.node = 0;
  send.peer = 1;
  send.type = 7;
  send.value = 3;
  send.kind = TraceKind::kSend;
  TraceEvent deliver;
  deliver.seq = 2;
  deliver.wall_ns = 250;
  deliver.sim = 2.0;
  deliver.node = 1;
  deliver.peer = 0;
  deliver.type = 7;
  deliver.value = 3;
  deliver.flow = 1;
  deliver.kind = TraceKind::kDeliver;
  events.push_back(send);
  events.push_back(deliver);
  return events;
}

TEST(TraceExport, ChromeTraceHasTracksAndFlows) {
  std::ostringstream out;
  write_chrome_trace(sample_events(), out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node 1\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);  // flow start
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);  // flow finish
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}

TEST(TraceExport, JsonlIsDeterministicAndOmitsWallClock) {
  std::ostringstream out;
  write_trace_jsonl(sample_events(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"type\":\"trace_header\""), std::string::npos);
  EXPECT_NE(text.find("\"events\":2"), std::string::npos);
  EXPECT_EQ(text.find("wall"), std::string::npos);
  // The send's flow id is its own seq; the deliver carries it.
  EXPECT_NE(text.find("\"kind\":\"send\""), std::string::npos);
  EXPECT_NE(text.find("\"flow\":1"), std::string::npos);

  std::ostringstream again;
  write_trace_jsonl(sample_events(), again);
  EXPECT_EQ(text, again.str());
}

TEST(TraceExport, EmptyTraceProducesValidFiles) {
  std::ostringstream chrome, jsonl;
  write_chrome_trace({}, chrome);
  write_trace_jsonl({}, jsonl);
  EXPECT_NE(chrome.str().find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(jsonl.str().find("\"events\":0"), std::string::npos);
}

TEST(JsonlWriterTest, ReportsOpenFailure) {
  JsonlWriter w("/nonexistent-tgc-dir/out.jsonl");
  EXPECT_FALSE(w.ok());
  EXPECT_FALSE(w.close());
  EXPECT_NE(w.error().find("cannot open"), std::string::npos);
}

TEST(JsonlWriterTest, CleanWriteSucceeds) {
  const fs::path path =
      fs::temp_directory_path() / "tgc_jsonl_writer_test.jsonl";
  {
    JsonlWriter w(path.string());
    ASSERT_TRUE(w.ok());
    w.stream() << "{\"hello\":1}\n";
    EXPECT_TRUE(w.close());
    EXPECT_TRUE(w.error().empty());
    EXPECT_TRUE(w.close());  // idempotent
  }
  EXPECT_TRUE(fs::exists(path));
  fs::remove(path);
}

TEST(JsonlWriterTest, DetectsWriteFailureOnFullDevice) {
  // /dev/full returns ENOSPC on write — the canonical disk-full simulation.
  // Skip on platforms without it.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  JsonlWriter w("/dev/full");
  ASSERT_TRUE(w.ok());
  for (int i = 0; i < 100000 && w.stream().good(); ++i) {
    w.stream() << "{\"pad\":\"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\"}\n";
  }
  EXPECT_FALSE(w.close());
  EXPECT_FALSE(w.error().empty());
}

}  // namespace
}  // namespace tgc::obs
