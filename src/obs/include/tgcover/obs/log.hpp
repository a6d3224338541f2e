#pragma once

#include <iosfwd>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>

namespace tgc::obs {

/// Diagnostic severities, ordered. `kOff` is a threshold only — no call
/// site logs at it; `--log-level off` silences everything.
enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Snake names used on the wire and accepted by --log-level.
std::string_view log_level_name(LogLevel level);

/// Parses "debug" | "info" | "warn" | "error" | "off"; false on anything
/// else (the CLI turns that into a usage error naming the subcommand).
bool parse_log_level(std::string_view text, LogLevel& out);

/// Runtime threshold: lines below it are not written to the sink (they may
/// still be retained by the flight recorder — see flight.hpp). Default kInfo.
LogLevel log_level();
void set_log_level(LogLevel level);

/// Redirects log output (and flight-recorder dumps) from stderr to `path`,
/// opened for append so a crash dump lands after the run's own lines. On
/// open failure returns false, fills `*error` when given, and keeps the
/// current sink. Passing set_log_stream(nullptr) restores stderr.
bool set_log_file(const std::string& path, std::string* error = nullptr);
void set_log_stream(std::ostream* sink);

/// Restores defaults: level kInfo, sink stderr. For tests.
void reset_logging();

/// Appends one finished line to the sink under the log mutex. Exposed for
/// the flight recorder's dump framing; everything else goes through TGC_LOG.
void log_write_line(const std::string& line);

/// True when a line at `level` should be *formatted* at all: it either
/// clears the runtime threshold or the flight recorder would retain it.
bool log_active(LogLevel level);

/// A typed `key=value` token for structured lines: numbers print bare,
/// strings print quoted with backslash escaping, so `--log-out` files stay
/// machine-parseable. Build with obs::kv().
template <typename T>
struct KeyValue {
  std::string_view key;
  const T& value;
};

template <typename T>
KeyValue<T> kv(std::string_view key, const T& value) {
  return {key, value};
}

/// One in-flight log statement. Buffers the whole line privately (so
/// concurrent loggers never interleave within a line), then on destruction
/// emits `level=<l> src=<file>:<line> <message...>` to the sink when the
/// runtime threshold admits it and to the flight recorder when that is on.
class LogLine {
 public:
  LogLine(LogLevel level, const char* file, int line);
  ~LogLine();
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    buf_ << v;
    return *this;
  }

  template <typename T>
  LogLine& operator<<(const KeyValue<T>& f) {
    buf_ << ' ' << f.key << '=';
    write_value(f.value);
    return *this;
  }

 private:
  // if constexpr, not overloads: a string literal deduces T = char[N], which
  // would out-rank a const char* overload and print unquoted.
  template <typename T>
  void write_value(const T& v) {
    if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      write_quoted(std::string_view(v));
    } else {
      buf_ << v;
    }
  }
  void write_quoted(std::string_view v);

  std::ostringstream buf_;
  LogLevel level_;
};

/// glog-style expression voidifier: makes the whole TGC_LOG statement a
/// single expression (no dangling-else hazard) of type void.
struct LogVoidify {
  // const&: binds the bare temporary and the lvalue a << chain returns.
  void operator&(const LogLine&) {}
};

}  // namespace tgc::obs

/// Leveled structured logging: `TGC_LOG(kWarn) << "message" <<
/// obs::kv("round", r);`. Argument expressions are evaluated only when the
/// line will actually be retained (sink or flight recorder).
#define TGC_LOG(level)                                          \
  (!::tgc::obs::log_active(::tgc::obs::LogLevel::level))        \
      ? (void)0                                                 \
      : ::tgc::obs::LogVoidify() &                              \
            ::tgc::obs::LogLine(::tgc::obs::LogLevel::level,    \
                                __FILE__, __LINE__)
