#pragma once

#include <charconv>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

namespace tgc::util {

/// Parses all of `text` as a T. False for an empty token, a sign an unsigned
/// T cannot take, leading whitespace, trailing characters ("4x", or "1e3"
/// for an integer) or an out-of-range value.
template <typename T>
bool parse_whole(std::string_view text, T& value) {
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  return ec == std::errc() && end == last;
}

/// Minimal `--key value` / `--flag` command-line parser for the figure
/// benches and examples. Unrecognized keys raise an error so that typos in
/// sweep scripts fail loudly instead of silently using defaults.
class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// Declares an option (for --help and unknown-key checking) and returns its
  /// value, or `def` when absent.
  std::int64_t get_int(const std::string& key, std::int64_t def,
                       const std::string& help = "");
  /// `get_int` for a count, size or seed, parsed straight into the unsigned
  /// T so nothing wraps: "-3", or a value T cannot hold, fails with
  /// "PROG: --KEY wants a non-negative integer, got 'V'".
  template <typename T>
  T get_uint(const std::string& key, T def, const std::string& help = "") {
    static_assert(std::is_unsigned_v<T>);
    const auto it = values_.find(key);
    T v = def;
    if (it != values_.end() && !parse_whole(it->second, v)) {
      reject(key, it->second, "a non-negative integer");
    }
    declared_[key] = {help, std::to_string(def), std::to_string(v)};
    return v;
  }
  double get_double(const std::string& key, double def,
                    const std::string& help = "");
  std::string get_string(const std::string& key, const std::string& def,
                         const std::string& help = "");
  bool get_flag(const std::string& key, const std::string& help = "");

  /// Call after all get_* declarations: exits with usage on --help, throws on
  /// unknown keys (the error names the program/subcommand, e.g.
  /// "tgcover distributed: unknown option --bogus").
  void finish() const;

  /// Every declared key with its *resolved* value (the provided one, or the
  /// default when absent), as printable strings; flags resolve to
  /// "on"/"off". This is what run manifests record, so call it only after
  /// all get_* declarations.
  std::vector<std::pair<std::string, std::string>> resolved() const;

  const std::string& program() const { return program_; }

 private:
  struct Declared {
    std::string help;
    std::string default_repr;
    std::string value_repr;
  };

  /// Throws the CheckError "PROG: --KEY wants WHAT, got 'VALUE'".
  [[noreturn]] void reject(const std::string& key, const std::string& value,
                           const char* what) const;

  std::string program_;
  std::map<std::string, std::string> values_;   // key -> raw value ("" = flag)
  std::map<std::string, Declared> declared_;
  bool help_requested_ = false;
};

}  // namespace tgc::util
