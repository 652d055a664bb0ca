// Deterministic mutation fuzzing of FlagParser, the parser every CLI tool
// runs over its argv (ctest label `fuzz`; scripts/ci.sh runs the label
// under ASan/UBSan). An argv is fuzzed as its tokens joined by NUL bytes,
// so the mutators in testing/mutate.h split, merge and edit tokens alike;
// a fixed budget of mutants is drawn from a seeded Prng, so every run
// tries the same inputs and a failure names the trial that caused it. The
// properties:
//   - Parse never crashes, and it fails only with a non-empty message;
//   - every flag it reads gives the same value as `--name=value` and as
//     `--name value` (unless the value itself starts with `--`, which the
//     space form reads as the next flag);
//   - GetInt / GetDouble either return exactly base-10 strtoll / strtod
//     of the whole token, when those consume all of it without ERANGE, or
//     return the default and report the flag as malformed in error().

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "pam/util/flags.h"
#include "pam/util/prng.h"
#include "testing/mutate.h"

namespace pam {
namespace {

using testing::Bytes;
using testing::Printable;

constexpr int kMutants = 3000;
constexpr std::int64_t kIntDefault = -424242;
constexpr double kDoubleDefault = -4.25;

// Argv tokens (without argv[0]) joined by NUL, the byte a C argv ends
// each of its strings with.
Bytes Join(const std::vector<std::string>& tokens) {
  Bytes out;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) out += '\0';
    out += tokens[i];
  }
  return out;
}

std::vector<std::string> Split(const Bytes& bytes) {
  std::vector<std::string> tokens(1);
  for (char c : bytes) {
    if (c == '\0') {
      tokens.emplace_back();
    } else {
      tokens.back() += c;
    }
  }
  return tokens;
}

bool ParseTokens(const std::vector<std::string>& tokens, FlagParser* out) {
  std::vector<const char*> argv = {"prog"};
  for (const std::string& t : tokens) argv.push_back(t.c_str());
  return out->Parse(static_cast<int>(argv.size()), argv.data());
}

// Flag names as they appear in the input: the body of each `--` token up
// to its first `=`.
std::vector<std::string> FlagNames(const std::vector<std::string>& tokens) {
  std::vector<std::string> names;
  for (const std::string& t : tokens) {
    if (t.size() > 2 && t.compare(0, 2, "--") == 0) {
      names.push_back(t.substr(2, t.find('=') - 2));
    }
  }
  return names;
}

// The oracles: the C library's own conversions, applied to the whole
// token.
bool StrtollWhole(const std::string& text, long long* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtoll(text.c_str(), &end, 10);
  return !text.empty() && end == text.c_str() + text.size() &&
         errno != ERANGE;
}

bool StrtodWhole(const std::string& text, double* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size() &&
         errno != ERANGE;
}

bool SameDouble(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

bool NamesFlag(const FlagParser& p, const std::string& name) {
  return p.error().find("--" + name + " ") != std::string::npos;
}

// Checks every property on one argv; returns false after the first
// failure so one bad input is reported once.
bool CheckArgv(const Bytes& input, const std::string& context) {
  const std::vector<std::string> tokens = Split(input);
  FlagParser parsed;
  if (!ParseTokens(tokens, &parsed)) {
    EXPECT_FALSE(parsed.error().empty()) << context;
    return !parsed.error().empty();
  }
  EXPECT_TRUE(parsed.error().empty()) << context;

  for (const std::string& name : FlagNames(tokens)) {
    if (!parsed.Has(name)) continue;
    const std::string value = parsed.GetString(name, "");

    if (value.compare(0, 2, "--") != 0) {
      FlagParser equals;
      FlagParser space;
      const bool equals_ok =
          ParseTokens({"--" + name + "=" + value}, &equals);
      const bool space_ok = ParseTokens({"--" + name, value}, &space);
      if (!equals_ok || !space_ok ||
          equals.GetString(name, "<absent>") != value ||
          space.GetString(name, "<absent>") != value) {
        ADD_FAILURE() << context << ": --" << Printable(name) << " = '"
                      << Printable(value) << "' reads back as '"
                      << Printable(equals.GetString(name, "<absent>"))
                      << "' and '"
                      << Printable(space.GetString(name, "<absent>")) << "'";
        return false;
      }
    }

    // A fresh parser per getter, so error() speaks of this flag only.
    FlagParser for_int;
    ParseTokens(tokens, &for_int);
    const std::int64_t got_int = for_int.GetInt(name, kIntDefault);
    long long want_int = 0;
    const bool int_ok = StrtollWhole(value, &want_int);
    if (int_ok ? got_int != want_int || !for_int.error().empty()
               : got_int != kIntDefault || !NamesFlag(for_int, name)) {
      ADD_FAILURE() << context << ": GetInt(--" << Printable(name)
                    << " '" << Printable(value) << "') = " << got_int
                    << ", error '" << for_int.error() << "'; strtoll "
                    << (int_ok ? "accepts " + std::to_string(want_int)
                               : std::string("rejects"));
      return false;
    }

    FlagParser for_double;
    ParseTokens(tokens, &for_double);
    const double got_double = for_double.GetDouble(name, kDoubleDefault);
    double want_double = 0.0;
    const bool double_ok = StrtodWhole(value, &want_double);
    if (double_ok ? !SameDouble(got_double, want_double) ||
                        !for_double.error().empty()
                  : got_double != kDoubleDefault ||
                        !NamesFlag(for_double, name)) {
      ADD_FAILURE() << context << ": GetDouble(--" << Printable(name)
                    << " '" << Printable(value) << "') = " << got_double
                    << ", error '" << for_double.error() << "'; strtod "
                    << (double_ok ? "accepts " + std::to_string(want_double)
                                  : std::string("rejects"));
      return false;
    }
  }
  return true;
}

// Argv shapes the tools see: both flag syntaxes, bare booleans,
// positionals, signs, exponents, hex, inf/nan, a stray `--`, an empty
// value, and numbers with trailing junk.
std::vector<Bytes> Seeds() {
  return {
      Join({"--ranks", "4", "--minsup=0.5", "--rules"}),
      Join({"--max-k=-1", "--threads-per-rank", "2", "input.txt"}),
      Join({"--minsup", "1e-3", "--dhp=65536", "--top", "+20"}),
      Join({"--fault-rate=0.15", "--fault-seed", "99", "--ranks=2x"}),
      Join({"--minconf", "inf", "--hd-threshold", "0x10", "--seed", " 7"}),
      Join({"--port=", "-5", "--x", "nan", "--y=1,5"}),
      Join({"--x", "1", "--"}),
      Join({"--transactions", "9223372036854775807", "--avg-len",
            "1e400", "--items=-0"}),
  };
}

// Signs, separators, digits, exponent and hex marks, the letters of inf
// and nan, and the NUL that splits or ends a token.
constexpr char kArgvAlphabet[] = "-=.+ eEpx0123456789infa\0";
const testing::MutationSpace kArgvSpace{
    std::string_view(kArgvAlphabet, sizeof(kArgvAlphabet) - 1), nullptr};

TEST(FlagsFuzzTest, SeedsSatisfyEveryProperty) {
  for (const Bytes& seed : Seeds()) {
    EXPECT_TRUE(CheckArgv(seed, "seed " + Printable(seed)));
  }
}

TEST(FlagsFuzzTest, MutantsSatisfyEveryProperty) {
  const std::vector<Bytes> seeds = Seeds();
  Prng rng(0xf1a95);
  int failures = 0;
  for (int trial = 0; trial < kMutants && failures < 5; ++trial) {
    const Bytes input = testing::Mutate(seeds, kArgvSpace, rng);
    if (!CheckArgv(input, "trial " + std::to_string(trial) + " input " +
                              Printable(input))) {
      ++failures;
    }
  }
}

}  // namespace
}  // namespace pam
