#include "tgcover/util/args.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <system_error>

#include "tgcover/util/check.hpp"

namespace tgc::util {

ArgParser::ArgParser(int argc, const char* const* argv) {
  TGC_CHECK(argc >= 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    TGC_CHECK_MSG(arg.size() > 2 && arg.rfind("--", 0) == 0,
                  "expected --key [value], got '" << arg << "'");
    // "--key=value" binds in one token (the value may be empty or contain
    // further '='); otherwise a following token that does not start with
    // "--" is this key's value.
    const std::size_t eq = arg.find('=', 2);
    if (eq != std::string::npos) {
      const std::string key = arg.substr(2, eq - 2);
      TGC_CHECK_MSG(!key.empty(), "expected --key=value, got '" << arg << "'");
      values_[key] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg.substr(2)] = argv[++i];
    } else {
      values_[arg.substr(2)] = "";
    }
  }
}

namespace {

/// Shortest round-trip decimal form ("0.1", not std::to_string's
/// "0.100000") — doubles land in manifests and the report's provenance
/// table, where the canonical spelling should match what the user typed.
std::string repr_double(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : std::to_string(v);
}

}  // namespace

void ArgParser::reject(const std::string& key, const std::string& value,
                       const char* what) const {
  std::ostringstream msg;
  msg << program_ << ": --" << key << " wants " << what << ", got '" << value
      << "'";
  detail::check_failed("parse_whole(value)", __FILE__, __LINE__, msg.str());
}

std::int64_t ArgParser::get_int(const std::string& key, std::int64_t def,
                                const std::string& help) {
  const auto it = values_.find(key);
  std::int64_t v = def;
  if (it != values_.end() && !parse_whole(it->second, v)) {
    reject(key, it->second, "an integer");
  }
  declared_[key] = {help, std::to_string(def), std::to_string(v)};
  return v;
}

double ArgParser::get_double(const std::string& key, double def,
                             const std::string& help) {
  const auto it = values_.find(key);
  double v = def;
  if (it != values_.end() && !parse_whole(it->second, v)) {
    reject(key, it->second, "a number");
  }
  declared_[key] = {help, repr_double(def), repr_double(v)};
  return v;
}

std::string ArgParser::get_string(const std::string& key,
                                  const std::string& def,
                                  const std::string& help) {
  const auto it = values_.find(key);
  const std::string v = it == values_.end() ? def : it->second;
  declared_[key] = {help, def, v};
  return v;
}

bool ArgParser::get_flag(const std::string& key, const std::string& help) {
  const bool v = values_.count(key) > 0;
  declared_[key] = {help, "off", v ? "on" : "off"};
  return v;
}

void ArgParser::finish() const {
  if (help_requested_) {
    std::printf("usage: %s [options]\n", program_.c_str());
    for (const auto& [key, d] : declared_) {
      std::printf("  --%-18s %s (default: %s)\n", key.c_str(), d.help.c_str(),
                  d.default_repr.c_str());
    }
    std::exit(0);
  }
  for (const auto& [key, value] : values_) {
    (void)value;
    TGC_CHECK_MSG(declared_.count(key) > 0,
                  program_ << ": unknown option --" << key);
  }
}

std::vector<std::pair<std::string, std::string>> ArgParser::resolved() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(declared_.size());
  for (const auto& [key, d] : declared_) out.emplace_back(key, d.value_repr);
  return out;
}

}  // namespace tgc::util
