#ifndef PAM_UTIL_FLAGS_H_
#define PAM_UTIL_FLAGS_H_

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace pam {

/// A minimal command-line flag parser for the CLI tools: accepts
/// `--name=value`, `--name value`, and bare `--name` (boolean true).
/// Anything not starting with `--` is collected as a positional argument.
class FlagParser {
 public:
  /// Parses argv. Returns false (and records an error) on a malformed
  /// argument list (e.g., `--name` at the end when a value was expected is
  /// treated as boolean, so the only failure mode is an empty flag name:
  /// `--` or `--=value`).
  bool Parse(int argc, const char* const* argv);

  /// True if the flag was present on the command line.
  bool Has(const std::string& name) const {
    return values_.count(name) > 0;
  }

  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  /// The numeric getters return `default_value` when the flag is absent
  /// and the parsed value when it is well formed (ParseInt / ParseDouble).
  /// A malformed value also yields `default_value`, and records an error
  /// naming the flag in error() (the first one is kept), so a tool reads
  /// all its numbers, then checks error() once before it starts anything.
  std::int64_t GetInt(const std::string& name,
                      std::int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// True when base-10 strtoll / strtod consume all of `text` (at least
  /// one character) without ERANGE; `*out` is then their result.
  static bool ParseInt(const std::string& text, std::int64_t* out);
  static bool ParseDouble(const std::string& text, double* out);

  const std::vector<std::string>& positional() const { return positional_; }
  /// Why Parse failed, or the first malformed number a getter read.
  const std::string& error() const { return error_; }

  /// Flags seen that are not in `known`; lets tools reject typos.
  std::vector<std::string> UnknownFlags(
      const std::vector<std::string>& known) const;

 private:
  // Records a malformed-number error for `name` unless one is recorded.
  void Malformed(const std::string& name, const char* want) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::string error_;
};

inline bool FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty() || body[0] == '=') {
      error_ = "empty flag name in '" + arg + "'";
      return false;
    }
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` when the next token is not a flag, else boolean.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
  return true;
}

inline std::string FlagParser::GetString(
    const std::string& name, const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

inline bool FlagParser::ParseInt(const std::string& text,
                                 std::int64_t* out) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(begin, &end, 10);
  if (text.empty() || end != begin + text.size() || errno == ERANGE) {
    return false;
  }
  *out = static_cast<std::int64_t>(value);
  return true;
}

inline bool FlagParser::ParseDouble(const std::string& text, double* out) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(begin, &end);
  if (text.empty() || end != begin + text.size() || errno == ERANGE) {
    return false;
  }
  *out = value;
  return true;
}

inline void FlagParser::Malformed(const std::string& name,
                                  const char* want) const {
  if (error_.empty()) {
    error_ = "--" + name + " must be " + want + ", got '" +
             values_.at(name) + "'";
  }
}

inline std::int64_t FlagParser::GetInt(const std::string& name,
                                       std::int64_t default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  std::int64_t value = 0;
  if (!ParseInt(it->second, &value)) {
    Malformed(name, "an integer");
    return default_value;
  }
  return value;
}

inline double FlagParser::GetDouble(const std::string& name,
                                    double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  double value = 0.0;
  if (!ParseDouble(it->second, &value)) {
    Malformed(name, "a number");
    return default_value;
  }
  return value;
}

inline bool FlagParser::GetBool(const std::string& name,
                                bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

inline std::vector<std::string> FlagParser::UnknownFlags(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : values_) {
    bool found = false;
    for (const std::string& k : known) {
      if (k == name) {
        found = true;
        break;
      }
    }
    if (!found) unknown.push_back(name);
  }
  return unknown;
}

}  // namespace pam

#endif  // PAM_UTIL_FLAGS_H_
