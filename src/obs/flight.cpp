#include "tgcover/obs/flight.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <ostream>
#include <sstream>

#include "tgcover/obs/manifest.hpp"  // json_escape

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <unistd.h>
#define TGC_FLIGHT_POSIX 1
#else
#define TGC_FLIGHT_POSIX 0
#endif

namespace tgc::obs {

namespace {

/// One thread's ring. `head` counts appends forever; the slot written is
/// head % capacity. Appends are owner-thread-only plain stores — same
/// "own your scratch" discipline as the counter shards.
struct Ring {
  std::atomic<std::uint64_t> head{0};
  FlightRecord slots[kFlightMaxCapacity];
};

/// Ring registry: stable addresses, never reclaimed (a thread that exits
/// leaves its final records behind — exactly what a post-mortem wants).
struct FlightRegistry {
  std::mutex mutex;
  std::deque<Ring> rings;
  std::atomic<std::size_t> capacity{0};
  std::atomic<std::uint64_t> seq{0};
};

FlightRegistry& flight_registry() {
  static FlightRegistry r;
  return r;
}

Ring* register_ring() {
  FlightRegistry& r = flight_registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  return &r.rings.emplace_back();
}

Ring& local_ring() {
  thread_local Ring* ring = register_ring();
  return *ring;
}

/// Collects every written slot (seq != 0) across all rings, seq-sorted.
std::vector<FlightRecord> collect_records() {
  FlightRegistry& r = flight_registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<FlightRecord> records;
  for (const Ring& ring : r.rings) {
    for (const FlightRecord& rec : ring.slots) {
      if (rec.seq != 0) records.push_back(rec);
    }
  }
  std::sort(records.begin(), records.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.seq < b.seq;
            });
  return records;
}

/// The longest line `format_record` writes: every text byte escaped to six.
constexpr std::size_t kMaxRecordLine = 6 * kFlightMaxText + 96;

/// Writes `rec`'s `{"type":"flight",...}` line into `line` and returns its
/// length, the text escaped as json_escape escapes it. It neither allocates
/// nor locks, so both dump paths format records with it.
std::size_t format_record(const FlightRecord& rec, char* line) {
  std::size_t n = 0;
  const auto put = [&](std::string_view chars) {
    n += chars.copy(line + n, chars.size());
  };
  put("{\"type\":\"flight\",\"seq\":");
  n = static_cast<std::size_t>(
      std::to_chars(line + n, line + kMaxRecordLine, rec.seq).ptr - line);
  put(",\"level\":\"");
  put(log_level_name(rec.level));
  put("\",\"msg\":\"");
  for (const char c :
       std::string_view(rec.text, strnlen(rec.text, kFlightMaxText))) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte < 0x20) {
      put("\\u00");
      line[n++] = "0123456789abcdef"[byte >> 4];
      line[n++] = "0123456789abcdef"[byte & 0xf];
      continue;
    }
    if (c == '"' || c == '\\') line[n++] = '\\';
    line[n++] = c;
  }
  put("\"}\n");
  return n;
}

#if TGC_FLIGHT_POSIX

/// Best-effort dump from a fatal-signal handler: no locks, no allocation,
/// a stack buffer and write(2) to stderr. Reading other threads' rings here
/// is racy by design — a torn final record beats no post-mortem at all.
void dump_to_fd(int fd, int sig) {
  char buf[kMaxRecordLine];
  int n = std::snprintf(buf, sizeof(buf),
                        "{\"type\":\"flight_dump\",\"reason\":\"signal %d\"}\n",
                        sig);
  if (n > 0) (void)!write(fd, buf, static_cast<std::size_t>(n));
  FlightRegistry& r = flight_registry();
  // No registry lock (taking a mutex in a signal handler can deadlock) and
  // no sort buffer: each pass writes the record with the smallest seq above
  // the last one written, up to the newest seq when the dump began.
  const std::uint64_t newest = r.seq.load(std::memory_order_relaxed);
  for (std::uint64_t last = 0;;) {
    const FlightRecord* next = nullptr;
    for (const Ring& ring : r.rings) {
      for (const FlightRecord& rec : ring.slots) {
        if (rec.seq > last && rec.seq <= newest &&
            (next == nullptr || rec.seq < next->seq)) {
          next = &rec;
        }
      }
    }
    if (next == nullptr) return;
    last = next->seq;
    (void)!write(fd, buf, format_record(*next, buf));
  }
}

void crash_handler(int sig) {
  if (flight_registry().capacity.load(std::memory_order_relaxed) > 0) {
    dump_to_fd(2, sig);
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

#endif  // TGC_FLIGHT_POSIX

}  // namespace

std::size_t flight_capacity() {
  return flight_registry().capacity.load(std::memory_order_relaxed);
}

void set_flight_capacity(std::size_t slots) {
  flight_registry().capacity.store(std::min(slots, kFlightMaxCapacity),
                                   std::memory_order_relaxed);
}

void flight_note(LogLevel level, std::string_view text) {
  FlightRegistry& r = flight_registry();
  const std::size_t cap = r.capacity.load(std::memory_order_relaxed);
  if (cap == 0) return;
  Ring& ring = local_ring();
  const std::uint64_t pos =
      ring.head.load(std::memory_order_relaxed);  // owner-thread counter
  FlightRecord& rec = ring.slots[pos % cap];
  rec.level = level;
  const std::size_t n = std::min(text.size(), kFlightMaxText - 1);
  std::memcpy(rec.text, text.data(), n);
  rec.text[n] = '\0';
  rec.seq = r.seq.fetch_add(1, std::memory_order_relaxed) + 1;
  ring.head.store(pos + 1, std::memory_order_release);
}

std::vector<FlightRecord> flight_snapshot() { return collect_records(); }

void flight_dump(std::ostream& out, std::string_view reason) {
  const std::vector<FlightRecord> records = collect_records();
  out << "{\"type\":\"flight_dump\",\"reason\":\"" << json_escape(reason)
      << "\",\"records\":" << records.size() << "}\n";
  char line[kMaxRecordLine];
  for (const FlightRecord& rec : records) {
    out.write(line, static_cast<std::streamsize>(format_record(rec, line)));
  }
}

void flight_clear() {
  FlightRegistry& r = flight_registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (Ring& ring : r.rings) {
    for (FlightRecord& rec : ring.slots) rec = FlightRecord{};
    ring.head.store(0, std::memory_order_relaxed);
  }
  r.seq.store(0, std::memory_order_relaxed);
}

void on_check_failed(const char* expr, const char* file, int line,
                     const std::string& msg) noexcept {
  if (flight_capacity() == 0) return;
  // Re-entrancy guard: a failure inside the dump path must not recurse.
  thread_local bool dumping = false;
  if (dumping) return;
  dumping = true;
  try {
    std::ostringstream reason;
    reason << "check failed: " << expr << " at " << file << ":" << line;
    if (!msg.empty()) reason << " — " << msg;
    flight_note(LogLevel::kError, reason.str());
    std::ostringstream dump;
    flight_dump(dump, reason.str());
    std::string text = dump.str();
    if (!text.empty() && text.back() == '\n') text.pop_back();
    log_write_line(text);
  } catch (...) {
    // Post-mortem reporting is best-effort; the CheckError still throws.
  }
  dumping = false;
}

void install_crash_handlers() {
#if TGC_FLIGHT_POSIX
  for (const int sig : {SIGSEGV, SIGABRT, SIGFPE, SIGILL, SIGBUS}) {
    std::signal(sig, crash_handler);
  }
#endif
}

}  // namespace tgc::obs
