#ifndef PAM_OBS_TRACE_H_
#define PAM_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "pam/obs/span.h"

namespace pam {
// Defined in pam/parallel/metrics.h; the observer interfaces only pass
// references through, so the obs layer stays below the parallel layer.
struct PassMetrics;
struct RunMetrics;
}  // namespace pam

namespace pam::obs {

/// Observer of closed spans. Implementations MUST be thread-safe: every
/// rank thread of a parallel run emits concurrently.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// Called once per span, when it closes (children before parents) or,
  /// for instant events, when they fire.
  virtual void OnSpan(const SpanRecord& span) = 0;
};

/// Static facts about a run, handed to metrics sinks before the first
/// pass completes.
struct RunInfo {
  std::string algorithm;  // "serial", "CD", "HD", ...
  int num_ranks = 1;
  std::uint64_t minsup_count = 0;
};

/// Observer of per-pass work counters. PassMetrics rows stream in as each
/// rank finishes a pass (so a stalled pass is visible before the run
/// ends). Implementations MUST be thread-safe.
class MetricsSink {
 public:
  virtual ~MetricsSink() = default;
  virtual void OnRunBegin(const RunInfo& info) { (void)info; }
  /// One rank completed one pass. Ranks report passes in order, but
  /// interleaving across ranks is arbitrary.
  virtual void OnPassMetrics(int rank, const PassMetrics& metrics) = 0;
  /// The run finished; `metrics` is the fully assembled matrix.
  virtual void OnRunEnd(const RunMetrics& metrics) { (void)metrics; }
};

/// The observer wiring of one MiningSession run: the registered sinks and
/// the clock origin every rank timestamps against. Created by the session
/// only when at least one observer is attached — a null SessionObs* is
/// the disabled fast path (no clock reads, no allocation).
struct SessionObs {
  std::vector<TraceSink*> trace_sinks;
  std::vector<MetricsSink*> metrics_sinks;
  std::chrono::steady_clock::time_point origin;

  bool tracing() const { return !trace_sinks.empty(); }
};

/// Per-rank span emitter. One lives on each rank's stack for the duration
/// of the rank program (installed thread-locally via ScopedTracerInstall);
/// serial runs install one for rank 0 on the calling thread.
class RankTracer {
 public:
  /// `obs` may be null: the tracer is then disabled and emission is a
  /// no-op (ScopedSpan additionally skips its clock reads).
  RankTracer(SessionObs* obs, int rank) : obs_(obs), rank_(rank) {}

  bool tracing() const { return obs_ != nullptr && obs_->tracing(); }
  bool has_metrics_sinks() const {
    return obs_ != nullptr && !obs_->metrics_sinks.empty();
  }
  int rank() const { return rank_; }

  /// Microseconds since the session origin.
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - obs_->origin)
        .count();
  }

  /// Emits a closed span to every trace sink.
  void Emit(const SpanRecord& span);

  /// Emits an instant event at the current time.
  void EmitInstant(SpanKind kind, const char* detail);

  /// Streams one completed pass row to every metrics sink.
  void EmitPassMetrics(const PassMetrics& metrics);

  /// Pass the emitting thread is currently inside (maintained by the
  /// kPass ScopedSpan); child spans stamp it into SpanRecord::pass_k.
  int current_pass_k = 0;

 private:
  SessionObs* obs_;
  int rank_;
};

/// The calling thread's tracer (null when no session is observing it).
/// Span emission sites reach their tracer through this so the signatures
/// of the formulations, the ring pipeline, and the collectives stay
/// unchanged; each rank thread installs its tracer at rank start.
RankTracer* CurrentTracer();

/// RAII thread-local install/restore of a RankTracer.
class ScopedTracerInstall {
 public:
  explicit ScopedTracerInstall(RankTracer* tracer);
  ~ScopedTracerInstall();
  ScopedTracerInstall(const ScopedTracerInstall&) = delete;
  ScopedTracerInstall& operator=(const ScopedTracerInstall&) = delete;

 private:
  RankTracer* previous_;
};

/// RAII interval span against the current thread's tracer. When tracing
/// is disabled this is one thread-local load and a null check — no clock
/// read, no allocation — which keeps the subset-counting hot path
/// zero-overhead (guarded by trace_test's payload-copy and span counters).
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, std::int64_t index = -1,
                      const char* detail = nullptr)
      : ScopedSpan(kind, /*pass_k=*/-1, index, detail) {}

  /// kPass spans name their pass; children pick it up from the tracer.
  ScopedSpan(SpanKind kind, int pass_k, std::int64_t index,
             const char* detail);

  /// Closes and emits the span now (idempotent; the destructor becomes a
  /// no-op). Lets a span end mid-scope, e.g. a tree-build span that must
  /// not include the counting loop that follows it.
  void End();

  /// Drops the span without emitting (e.g. a pass that turned out to have
  /// no candidates and recorded no PassMetrics row).
  void Cancel();

  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  RankTracer* tracer_;  // null when disabled or already ended
  SpanKind kind_;
  std::int64_t index_;
  const char* detail_;
  double start_us_ = 0.0;
  int restore_pass_k_ = 0;  // kPass only: tracer value to restore at End
};

/// Streams `metrics` to the current thread's metrics sinks (no-op when
/// none are attached). Called by every formulation as it records a
/// completed pass row.
void EmitPassMetrics(const PassMetrics& metrics);

/// Process-wide count of spans + instant events ever emitted. The
/// zero-overhead guard asserts this does not move when no sink is
/// attached.
std::uint64_t SpansEmittedTotal();

/// TraceSink that buffers every span in memory; the session drains one of
/// these into MiningReport::timeline.
class TimelineSink : public TraceSink {
 public:
  void OnSpan(const SpanRecord& span) override;

  /// Moves the collected timeline out (sink becomes empty).
  Timeline Take();

 private:
  std::mutex mu_;
  Timeline timeline_;
};

}  // namespace pam::obs

#endif  // PAM_OBS_TRACE_H_
