// Shared plumbing of the end-to-end benchmark harness: clocks, order
// statistics, the result line, outcome tallies, the in-memory span log,
// and /proc readers. Everything here is harness code; the program under
// test is only ever reached through its public headers.
#ifndef E2EBENCH_HARNESS_COMMON_H_
#define E2EBENCH_HARNESS_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Times `fn` and returns its wall seconds.
template <typename Fn>
double TimeIt(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return SecondsBetween(start, Clock::now());
}

/// Median with the midpoint rule for even counts; 0 for an empty input.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 1]); 0 for an empty input.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Counts operations and the ones whose output check failed. A failed
/// operation makes the whole run incorrect.
class Tally {
 public:
  void Attempt() { ++attempted_; }
  /// Records one attempted operation; `ok` false counts it as failed and
  /// logs `what` to stderr.
  bool Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) Fail(what);
    return ok;
  }
  /// Marks an already-attempted operation as failed.
  void Fail(const std::string& what) {
    ++failed_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The ordered metric list of one run, printed as the final result line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    metrics_.push_back({name, value, unit});
  }

  /// The one-line JSON object the benchmark contract asks for.
  std::string Line(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
      out << (i == 0 ? "" : ", ") << '"' << metrics_[i].name
          << "\": {\"value\": " << value << ", \"unit\": \""
          << metrics_[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// In-memory span log for the traced run: each span records its name,
/// start, end and parent, and the log is written out once the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  // seconds since the log's origin
    double end_s = 0.0;
    int parent = -1;
  };

  /// RAII span: opened under the innermost open span, closed on scope exit.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name) : log_(log) {
      id_ = static_cast<int>(log_.spans_.size());
      const int parent = log_.open_.empty() ? -1 : log_.open_.back();
      log_.spans_.push_back({std::move(name), log_.Now(), 0.0, parent});
      log_.open_.push_back(id_);
    }
    ~Scope() {
      log_.spans_[static_cast<std::size_t>(id_)].end_s = log_.Now();
      log_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    SpanLog& log_;
    int id_ = 0;
  };

  double Duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end_s - s.start_s;
  }

  /// Summed duration of every closed span named `name`.
  double Total(const std::string& name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) total += s.end_s - s.start_s;
    }
    return total;
  }

  /// Share of span `id`'s duration covered by its direct children.
  double ChildCoverage(int id) const {
    double covered = 0.0;
    for (const Span& s : spans_) {
      if (s.parent == id) covered += s.end_s - s.start_s;
    }
    return Ratio(covered, Duration(id));
  }

  /// Writes the spans as one JSON array (name, start, end, parent).
  void WriteJson(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                    "\"end_s\": %.9f, \"parent\": %d}",
                    i, s.name.c_str(), s.start_s, s.end_s, s.parent);
      out << "  " << line << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  double Now() const { return SecondsBetween(origin_, Clock::now()); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Peak resident set of this process (VmHWM), in MB (10^6 bytes).
inline double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

/// Clock ticks per second of /proc/stat.
inline double ClockTicks() {
  const long ticks = ::sysconf(_SC_CLK_TCK);
  return static_cast<double>(ticks > 0 ? ticks : 100);
}

/// Host-wide CPU steal so far, in seconds (the `steal` column of the
/// aggregate cpu line of /proc/stat).
inline double HostStealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t field[8] = {};
  stat >> cpu;
  for (std::uint64_t& f : field) stat >> f;
  return static_cast<double>(field[7]) / ClockTicks();
}

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_COMMON_H_
