#include "pam/api/session.h"

#include <cstring>
#include <utility>

#include "pam/util/timer.h"

namespace pam {
std::string MiningAlgorithmName(MiningAlgorithm algorithm) {
  if (algorithm == MiningAlgorithm::kSerial) return "serial";
  return AlgorithmName(ToParallelAlgorithm(algorithm));
}

bool ParseMiningAlgorithm(const std::string& name, MiningAlgorithm* out) {
  if (name == "serial") *out = MiningAlgorithm::kSerial;
  else if (name == "cd") *out = MiningAlgorithm::kCD;
  else if (name == "dd") *out = MiningAlgorithm::kDD;
  else if (name == "ddcomm") *out = MiningAlgorithm::kDDComm;
  else if (name == "idd") *out = MiningAlgorithm::kIDD;
  else if (name == "hd") *out = MiningAlgorithm::kHD;
  else if (name == "hpa") *out = MiningAlgorithm::kHPA;
  else return false;
  return true;
}

bool IsParallel(MiningAlgorithm algorithm) {
  return algorithm != MiningAlgorithm::kSerial;
}

Algorithm ToParallelAlgorithm(MiningAlgorithm algorithm) {
  switch (algorithm) {
    case MiningAlgorithm::kSerial:  // serial Apriori is CD on one rank
    case MiningAlgorithm::kCD:
      return Algorithm::kCD;
    case MiningAlgorithm::kDD:
      return Algorithm::kDD;
    case MiningAlgorithm::kDDComm:
      return Algorithm::kDDComm;
    case MiningAlgorithm::kIDD:
      return Algorithm::kIDD;
    case MiningAlgorithm::kHD:
      return Algorithm::kHD;
    case MiningAlgorithm::kHPA:
      return Algorithm::kHPA;
  }
  return Algorithm::kCD;
}

MiningAlgorithm FromParallelAlgorithm(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kCD:
      return MiningAlgorithm::kCD;
    case Algorithm::kDD:
      return MiningAlgorithm::kDD;
    case Algorithm::kDDComm:
      return MiningAlgorithm::kDDComm;
    case Algorithm::kIDD:
      return MiningAlgorithm::kIDD;
    case Algorithm::kHD:
      return MiningAlgorithm::kHD;
    case Algorithm::kHPA:
      return MiningAlgorithm::kHPA;
  }
  return MiningAlgorithm::kCD;
}

std::uint64_t MiningRequest::CanonicalDigest() const {
  // FNV-1a over a tagged, fixed-order field sequence. Tags keep distinct
  // fields from aliasing (e.g. max_k=2 vs min_confidence bits); fields at
  // their don't-care values are folded at a canonical spelling so
  // default-vs-explicit requests collide.
  std::uint64_t h = 1469598103934665603ull;
  const auto fold = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  const auto fold_f64 = [&fold](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    fold(bits);
  };
  fold(1);  // digest layout version
  const AprioriConfig& apriori = config.apriori;
  if (apriori.minsup_count > 0) {
    // An explicit absolute threshold wins over the fraction (exactly the
    // ResolveMinsup precedence), so the fraction is a don't-care.
    fold(2);
    fold(apriori.minsup_count);
  } else {
    fold(3);
    fold_f64(apriori.minsup_fraction);
  }
  fold(4);
  fold(static_cast<std::uint64_t>(apriori.max_k));
  if (generate_rules) {
    // min_confidence only matters when rules are generated at all.
    fold(5);
    fold_f64(min_confidence);
  }
  return h;
}

void MiningSession::AddTraceSink(obs::TraceSink* sink) {
  if (sink != nullptr) trace_sinks_.push_back(sink);
}

void MiningSession::AddMetricsSink(obs::MetricsSink* sink) {
  if (sink != nullptr) metrics_sinks_.push_back(sink);
}

MiningReport MiningSession::Run(const MiningRequest& request,
                                const TransactionDatabase& db) {
  WallTimer timer;
  const int num_ranks = IsParallel(request.algorithm) ? request.num_ranks : 1;

  // Observer wiring. A null SessionObs* is the disabled fast path: the
  // run does no clock reads and no allocation beyond the mining itself.
  const bool observing = !trace_sinks_.empty() || !metrics_sinks_.empty() ||
                         request.collect_timeline;
  obs::TimelineSink timeline_sink;
  obs::SessionObs observers;
  obs::SessionObs* obs_ptr = nullptr;
  if (observing) {
    observers.trace_sinks = trace_sinks_;
    if (request.collect_timeline || !trace_sinks_.empty()) {
      observers.trace_sinks.push_back(&timeline_sink);
    }
    observers.metrics_sinks = metrics_sinks_;
    observers.origin = std::chrono::steady_clock::now();
    obs_ptr = &observers;

    obs::RunInfo info;
    info.algorithm = MiningAlgorithmName(request.algorithm);
    info.num_ranks = num_ranks;
    info.minsup_count = request.config.apriori.ResolveMinsup(db.size());
    for (obs::MetricsSink* sink : metrics_sinks_) sink->OnRunBegin(info);
  }

  // Cancellation plumbing: resolve the effective token (the caller's, or
  // a fresh one when only a deadline was given), arm the deadline unless
  // someone armed it earlier (the server arms at admission so queue time
  // counts against it), stamp the first heartbeat, and install it into the
  // config copy the formulations read. With no token and no deadline the
  // copy carries a null token — the exact zero-overhead path.
  ParallelConfig config = request.config;
  {
    CancelToken cancel = request.cancel;
    if (!cancel.valid() && request.deadline_ms > 0) {
      cancel = CancelToken::Create();
    }
    if (cancel.valid()) {
      if (request.deadline_ms > 0 && !cancel.has_deadline()) {
        cancel.ArmDeadlineIn(request.deadline_ms);
      }
      cancel.Beat();
      config.apriori.cancel = cancel;
    }
  }

  // The session-level tracer covers the run and rule-generation spans;
  // the rank threads install their own (thread-local, so the two never
  // collide even though rank 0 shares this tracer's track id).
  obs::RankTracer session_tracer(obs_ptr, /*rank=*/0);
  obs::ScopedTracerInstall install(&session_tracer);
  MiningReport report;
  {
    obs::ScopedSpan run_span(obs::SpanKind::kRun, -1,
                             nullptr);
    report = MineParallel(ToParallelAlgorithm(request.algorithm), db,
                          num_ranks, config, obs_ptr);
    if (request.generate_rules) {
      obs::ScopedSpan rule_span(obs::SpanKind::kRuleGen);
      report.rules =
          GenerateRules(report.frequent, db.size(), request.min_confidence);
    }
  }

  for (obs::MetricsSink* sink : metrics_sinks_) {
    sink->OnRunEnd(report.metrics);
  }
  if (obs_ptr != nullptr && (request.collect_timeline ||
                             !trace_sinks_.empty())) {
    report.timeline = timeline_sink.Take();
  }
  report.wall_seconds = timer.Seconds();
  return report;
}

}  // namespace pam
