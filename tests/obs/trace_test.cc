// Trace-writer schema tests: the span timeline of a session run must nest
// correctly per track, its span counts must agree with the RunMetrics
// matrix, the chrome-trace document must be well-formed JSON, and the
// whole apparatus must cost nothing when no sink is attached.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pam/api/session.h"
#include "pam/mp/payload.h"
#include "pam/obs/chrome_trace.h"
#include "pam/obs/json_metrics.h"
#include "pam/obs/trace.h"
#include "testing/test_support.h"

namespace pam {
namespace {

// Minimal recursive-descent JSON syntax checker — enough of RFC 8259 to
// certify that the Trace Event Format documents the writers emit would be
// accepted by chrome://tracing's (strict) JSON loader.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return p_ == end_;
  }

 private:
  void SkipWs() {
    while (p_ < end_ &&
           (*p_ == ' ' || *p_ == '\n' || *p_ == '\r' || *p_ == '\t')) {
      ++p_;
    }
  }

  bool Literal(const char* lit) {
    const char* q = p_;
    while (*lit != '\0') {
      if (q == end_ || *q != *lit) return false;
      ++q;
      ++lit;
    }
    p_ = q;
    return true;
  }

  bool String() {
    if (p_ == end_ || *p_ != '"') return false;
    ++p_;
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) return false;
      }
      ++p_;
    }
    if (p_ == end_) return false;
    ++p_;  // closing quote
    return true;
  }

  bool Number() {
    const char* start = p_;
    if (p_ < end_ && *p_ == '-') ++p_;
    while (p_ < end_ && *p_ >= '0' && *p_ <= '9') ++p_;
    if (p_ == start || (*start == '-' && p_ == start + 1)) return false;
    if (p_ < end_ && *p_ == '.') {
      ++p_;
      if (p_ == end_ || *p_ < '0' || *p_ > '9') return false;
      while (p_ < end_ && *p_ >= '0' && *p_ <= '9') ++p_;
    }
    if (p_ < end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ < end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (p_ == end_ || *p_ < '0' || *p_ > '9') return false;
      while (p_ < end_ && *p_ >= '0' && *p_ <= '9') ++p_;
    }
    return true;
  }

  bool Object() {
    ++p_;  // '{'
    SkipWs();
    if (p_ < end_ && *p_ == '}') {
      ++p_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (p_ == end_ || *p_ != ':') return false;
      ++p_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (p_ < end_ && *p_ == ',') {
        ++p_;
        continue;
      }
      break;
    }
    if (p_ == end_ || *p_ != '}') return false;
    ++p_;
    return true;
  }

  bool Array() {
    ++p_;  // '['
    SkipWs();
    if (p_ < end_ && *p_ == ']') {
      ++p_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (p_ < end_ && *p_ == ',') {
        ++p_;
        continue;
      }
      break;
    }
    if (p_ == end_ || *p_ != ']') return false;
    ++p_;
    return true;
  }

  bool Value() {
    if (p_ == end_) return false;
    switch (*p_) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  const char* p_;
  const char* end_;
};

std::size_t CountOccurrences(const std::string& text,
                             const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// Runs one algorithm through a session with a chrome-trace sink attached;
// the report carries the structured timeline the assertions inspect.
MiningReport TracedRun(MiningAlgorithm algorithm,
                       const TransactionDatabase& db, int num_ranks,
                       obs::ChromeTraceWriter* writer) {
  MiningRequest request;
  request.algorithm = algorithm;
  request.num_ranks = num_ranks;
  request.config.apriori.minsup_fraction = 0.02;
  MiningSession session;
  session.AddTraceSink(writer);
  return session.Run(request, db);
}

std::size_t CountKind(const obs::Timeline& timeline, obs::SpanKind kind) {
  return static_cast<std::size_t>(
      std::count_if(timeline.spans.begin(), timeline.spans.end(),
                    [kind](const obs::SpanRecord& s) {
                      return s.kind == kind && !s.instant;
                    }));
}

// Within one track (rank), interval spans must strictly nest: any two
// either do not overlap or one contains the other. A partial overlap
// would render as broken stacks in chrome://tracing and would mean a
// ScopedSpan outlived its parent scope.
void ExpectTrackSpansNest(const obs::Timeline& timeline, int rank) {
  std::vector<obs::SpanRecord> track;
  for (const obs::SpanRecord& s : timeline.spans) {
    if (s.rank == rank && !s.instant) track.push_back(s);
  }
  for (std::size_t i = 0; i < track.size(); ++i) {
    for (std::size_t j = i + 1; j < track.size(); ++j) {
      const obs::SpanRecord& a = track[i];
      const obs::SpanRecord& b = track[j];
      const double a_end = a.ts_us + a.dur_us;
      const double b_end = b.ts_us + b.dur_us;
      const bool disjoint = a_end <= b.ts_us || b_end <= a.ts_us;
      const bool a_in_b = b.ts_us <= a.ts_us && a_end <= b_end;
      const bool b_in_a = a.ts_us <= b.ts_us && b_end <= a_end;
      EXPECT_TRUE(disjoint || a_in_b || b_in_a)
          << "rank " << rank << ": " << obs::SpanKindName(a.kind) << " ["
          << a.ts_us << ", " << a_end << ") partially overlaps "
          << obs::SpanKindName(b.kind) << " [" << b.ts_us << ", " << b_end
          << ")";
    }
  }
}

TEST(TraceTest, ChromeTraceIsValidJsonWithOneEventPerSpan) {
  const TransactionDatabase db = testing::SmallQuestDb();
  obs::ChromeTraceWriter writer;
  MiningReport report = TracedRun(MiningAlgorithm::kCD, db, 4, &writer);
  ASSERT_GT(report.frequent.TotalCount(), 0u);
  ASSERT_FALSE(report.timeline.empty());

  const std::string json = writer.ToJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);

  // One "X" event per interval span, one "i" per instant event, and a
  // thread_name metadata record for each of the 4 rank tracks.
  std::size_t instants = 0;
  for (const obs::SpanRecord& s : report.timeline.spans) {
    if (s.instant) ++instants;
  }
  EXPECT_EQ(writer.size(), report.timeline.size());
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"X\""),
            report.timeline.size() - instants);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"i\""), instants);
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"thread_name\""), 4u);
}

TEST(TraceTest, MetricsJsonIsValid) {
  const TransactionDatabase db = testing::SmallQuestDb();
  MiningRequest request;
  request.algorithm = MiningAlgorithm::kHD;
  request.num_ranks = 4;
  request.config.apriori.minsup_fraction = 0.02;
  obs::JsonMetricsWriter writer;
  MiningSession session;
  session.AddMetricsSink(&writer);
  MiningReport report = session.Run(request, db);
  ASSERT_GT(report.metrics.num_passes(), 0);
  EXPECT_TRUE(JsonValidator(writer.ToJson()).Valid())
      << writer.ToJson().substr(0, 400);
}

TEST(TraceTest, SpanCountsMatchRunMetrics) {
  const TransactionDatabase db = testing::SmallQuestDb();
  const struct {
    MiningAlgorithm algorithm;
    int ranks;
  } cases[] = {
      {MiningAlgorithm::kSerial, 1}, {MiningAlgorithm::kCD, 4},
      {MiningAlgorithm::kDD, 4},     {MiningAlgorithm::kDDComm, 4},
      {MiningAlgorithm::kIDD, 4},    {MiningAlgorithm::kHD, 4},
      {MiningAlgorithm::kHPA, 4},
  };
  for (const auto& c : cases) {
    obs::ChromeTraceWriter writer;
    MiningReport report = TracedRun(c.algorithm, db, c.ranks, &writer);
    SCOPED_TRACE(MiningAlgorithmName(c.algorithm));
    ASSERT_GE(report.metrics.num_passes(), 3);

    // Exactly one run span, and one pass span per PassMetrics row: a pass
    // that records no row (the empty-candidate break) emits no span.
    EXPECT_EQ(CountKind(report.timeline, obs::SpanKind::kRun), 1u);
    EXPECT_EQ(CountKind(report.timeline, obs::SpanKind::kPass),
              static_cast<std::size_t>(report.metrics.num_passes()) *
                  static_cast<std::size_t>(c.ranks));
    EXPECT_GT(CountKind(report.timeline, obs::SpanKind::kSubsetCount), 0u);

    for (int rank = 0; rank < c.ranks; ++rank) {
      ExpectTrackSpansNest(report.timeline, rank);
    }
  }
}

TEST(TraceTest, PassSpansContainTheirRingRounds) {
  const TransactionDatabase db = testing::SmallQuestDb();
  obs::ChromeTraceWriter writer;
  MiningReport report = TracedRun(MiningAlgorithm::kIDD, db, 4, &writer);

  std::vector<obs::SpanRecord> passes;
  std::vector<obs::SpanRecord> rounds;
  for (const obs::SpanRecord& s : report.timeline.spans) {
    if (s.instant) continue;
    if (s.kind == obs::SpanKind::kPass) passes.push_back(s);
    if (s.kind == obs::SpanKind::kRingRound) rounds.push_back(s);
  }
  // IDD's counting passes pipeline pages around the whole ring: P-1
  // shifts per counting pass on every rank.
  ASSERT_GE(rounds.size(), 3u);

  for (const obs::SpanRecord& round : rounds) {
    const bool contained = std::any_of(
        passes.begin(), passes.end(), [&round](const obs::SpanRecord& pass) {
          return pass.rank == round.rank && pass.pass_k == round.pass_k &&
                 pass.ts_us <= round.ts_us &&
                 round.ts_us + round.dur_us <= pass.ts_us + pass.dur_us;
        });
    EXPECT_TRUE(contained)
        << "ring round " << round.index << " (rank " << round.rank
        << ", pass " << round.pass_k
        << ") lies outside every pass span of its track";
  }
}

// The disabled path must not touch the span machinery at all: no span
// emission anywhere, and on the serial counting path no transport-buffer
// copies either (the observability layer shares no state with the
// transport, so a delta here would mean spans sneaked a payload copy into
// the kernel).
TEST(TraceTest, NullSinkRunsAreZeroOverhead) {
  const TransactionDatabase db = testing::SmallQuestDb();
  ParallelConfig cfg;
  cfg.apriori.minsup_fraction = 0.02;

  const std::uint64_t spans_before = obs::SpansEmittedTotal();
  const std::uint64_t copies_before = Payload::CopyCount();
  MiningReport serial = MineSerial(db, cfg.apriori);
  ASSERT_GT(serial.frequent.TotalCount(), 0u);
  EXPECT_EQ(Payload::CopyCount(), copies_before);
  MiningReport parallel = testing::SessionMine(Algorithm::kCD, db, 4, cfg);
  ASSERT_GT(parallel.frequent.TotalCount(), 0u);
  EXPECT_EQ(obs::SpansEmittedTotal(), spans_before);
  EXPECT_TRUE(parallel.timeline.empty());
}

}  // namespace
}  // namespace pam
