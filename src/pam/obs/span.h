#ifndef PAM_OBS_SPAN_H_
#define PAM_OBS_SPAN_H_

#include <cstdint>
#include <vector>

namespace pam::obs {

/// The span taxonomy of a mining run (DESIGN.md §10). Spans nest strictly
/// within one track (one rank's timeline):
///
///   run
///   └── pass k
///       ├── tree build
///       ├── collective          (all-reduce / all-gather / bcast / barrier)
///       ├── ring round r        (IDD/HD/DD+comm ring pipeline)
///       │   └── subset count    (one counted page)
///       ├── all-to-all          (DD page exchange / HPA subset routing)
///       │   └── subset count
///       └── subset count        (CD / serial: one counted chunk)
///           └── subset count shard  (one counting-team worker, index =
///                                    shard; only with threads_per_rank > 1)
///
/// kFaultRetry is an *instant* event (a retransmit attempt under fault
/// injection), not an interval. kSubsetCountShard spans of one rank run
/// concurrently on the team's worker threads, so two shards of the same
/// batch may partially overlap on the rank's track — the only kind exempt
/// from the strict-nesting invariant.
enum class SpanKind : std::uint8_t {
  kRun,
  kPass,
  kTreeBuild,
  kRingRound,
  kAllToAll,
  kCollective,
  kSubsetCount,
  kSubsetCountShard,
  kFaultRetry,
  kRuleGen,
  /// One served request of a pam_serve MiningServer, emitted on the worker
  /// thread that executed it (track = worker id, index = request sequence
  /// number). Covers rank-lease wait plus the mining run; the nested run
  /// span taxonomy is available per request via collect_timeline.
  kServeRequest,
  /// Instant: a cancellation fired at this point (detail = the
  /// CancelReason name: "deadline", "cancelled", "watchdog", or
  /// "expired_in_queue" for queue-side shedding). Emitted by the comm
  /// layer when a blocked receive observes the token, and by the serve
  /// worker when it types the response.
  kCancel,
  /// Instant: a serving cache dropped an entry (detail = "budget", "ttl",
  /// or "replaced"), or refused one that cannot fit its budget
  /// ("uncacheable"; a dataset is then served load-through).
  kCacheEvict,
  /// Instant: a served request was answered from the result cache — no
  /// dataset touch, no rank lease. Detail is the static label "hit" (a
  /// detail is never a dataset id: it must point at static storage).
  /// Emitted on the serving worker's track, inside that request's
  /// kServeRequest span (index = the request's admission sequence).
  kResultCacheHit,
};

/// Stable lowercase name ("run", "pass", "ring_round", ...), used as the
/// chrome-trace category and in the JSON writers.
const char* SpanKindName(SpanKind kind);

/// One closed span (or instant event) as observed by a TraceSink. Plain
/// data: no allocation happens on the emitting thread beyond what the
/// sink itself does.
struct SpanRecord {
  SpanKind kind = SpanKind::kRun;
  /// Track id: the world rank whose thread executed the span (0 for
  /// serial runs and for the session-level run span).
  int rank = 0;
  /// Apriori pass the span belongs to (0 = outside any pass).
  int pass_k = 0;
  /// Kind-specific ordinal: ring round number, counting chunk / page
  /// index; -1 when not applicable.
  std::int64_t index = -1;
  /// Optional static label with kind-specific detail (e.g. the collective
  /// name "allreduce"); never owned, must point at static storage.
  const char* detail = nullptr;
  /// Start time in microseconds relative to the session origin.
  double ts_us = 0.0;
  /// Duration in microseconds (0 for instant events).
  double dur_us = 0.0;
  /// True for point events (ph "i" in the Trace Event Format).
  bool instant = false;
};

/// The structured timeline of a run: every span of every rank, in emission
/// order (children close before their parents). MiningReport carries one
/// of these when tracing was enabled.
struct Timeline {
  std::vector<SpanRecord> spans;

  bool empty() const { return spans.empty(); }
  std::size_t size() const { return spans.size(); }
};

}  // namespace pam::obs

#endif  // PAM_OBS_SPAN_H_
