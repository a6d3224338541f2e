#include "tgcover/obs/log.hpp"

#include <atomic>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <ostream>

#include "tgcover/obs/flight.hpp"

namespace tgc::obs {

namespace {

/// Process-wide sink + threshold. The mutex serializes whole lines only —
/// each LogLine formats into its own private buffer first, so the critical
/// section is a single streamed write.
struct LogState {
  std::atomic<int> level{static_cast<int>(LogLevel::kInfo)};
  std::mutex mutex;
  std::ostream* sink = nullptr;  // nullptr = stderr
  std::ofstream file;
};

LogState& log_state() {
  static LogState s;
  return s;
}

/// Path-stripped __FILE__, so lines say `src=cli.cpp:42` not a build path.
const char* basename_of(const char* file) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/' || *p == '\\') base = p + 1;
  }
  return base;
}

}  // namespace

std::string_view log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

bool parse_log_level(std::string_view text, LogLevel& out) {
  for (const LogLevel l : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                           LogLevel::kError, LogLevel::kOff}) {
    if (text == log_level_name(l)) {
      out = l;
      return true;
    }
  }
  return false;
}

LogLevel log_level() {
  return static_cast<LogLevel>(
      log_state().level.load(std::memory_order_relaxed));
}

void set_log_level(LogLevel level) {
  log_state().level.store(static_cast<int>(level), std::memory_order_relaxed);
}

bool set_log_file(const std::string& path, std::string* error) {
  LogState& s = log_state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  if (s.file.is_open()) s.file.close();
  s.file.clear();
  s.file.open(path, std::ios::app);
  if (!s.file.is_open()) {
    if (error != nullptr) *error = "cannot open log file '" + path + "'";
    s.sink = nullptr;
    return false;
  }
  s.sink = &s.file;
  return true;
}

void set_log_stream(std::ostream* sink) {
  LogState& s = log_state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  if (s.file.is_open()) s.file.close();
  s.sink = sink;
}

void reset_logging() {
  set_log_stream(nullptr);
  set_log_level(LogLevel::kInfo);
}

void log_write_line(const std::string& line) {
  LogState& s = log_state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  std::ostream& out = s.sink != nullptr ? *s.sink : std::cerr;
  out << line << '\n';
  out.flush();  // diagnostics must survive a crash right after them
}

bool log_active(LogLevel level) {
  if (static_cast<int>(level) >=
      log_state().level.load(std::memory_order_relaxed)) {
    return true;
  }
  // Below the sink threshold, but the flight recorder still wants it: that
  // is the whole point of the ring — `--log-level error` keeps stderr quiet
  // while a post-mortem dump can still show the debug context.
  return flight_capacity() > 0;
}

LogLine::LogLine(LogLevel level, const char* file, int line) : level_(level) {
  buf_ << "level=" << log_level_name(level) << " src=" << basename_of(file)
       << ':' << line << ' ';
}

LogLine::~LogLine() {
  const std::string line = buf_.str();
  if (static_cast<int>(level_) >=
      log_state().level.load(std::memory_order_relaxed)) {
    log_write_line(line);
  }
  flight_note(level_, line);
}

void LogLine::write_quoted(std::string_view v) {
  buf_ << '"';
  for (const char c : v) {
    if (c == '"' || c == '\\') buf_ << '\\';
    buf_ << c;
  }
  buf_ << '"';
}

}  // namespace tgc::obs
