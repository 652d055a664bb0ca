// pam_mine: mine frequent itemsets and association rules from a basket
// file with any of the six supported formulations (serial, CD, DD,
// DD+comm, IDD, HD, HPA).
//
//   pam_mine --input t15i6.bin --minsup 0.5 --minconf 70
//            --algorithm hd --ranks 8 --rules --top 20
//
// The input may be the binary format of pam_gen or a whitespace text
// basket file (--format text).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "pam/api/session.h"
#include "pam/core/itemsets_io.h"
#include "pam/core/maximal.h"
#include "pam/model/cost_model.h"
#include "pam/model/explain.h"
#include "pam/mp/fault.h"
#include "pam/obs/chrome_trace.h"
#include "pam/obs/json_metrics.h"
#include "pam/tdb/db_stats.h"
#include "pam/tdb/io.h"
#include "pam/util/flags.h"

namespace {

constexpr const char* kUsage = R"(usage: pam_mine [flags]
  --input PATH       basket file (required)
  --format FMT       binary | text (default binary)
  --minsup PCT       minimum support percent (default 1.0)
  --minconf PCT      minimum confidence percent for rules (default 50)
  --algorithm ALG    serial | cd | dd | ddcomm | idd | hd | hpa
                     (default serial)
  --ranks P          logical processors for parallel algorithms (default 4)
  --threads-per-rank T
                     intra-rank counting team size (default 1 = serial
                     counting; results are identical for every T)
  --hd-threshold M   HD candidate threshold m (default 50000)
  --max-k K          stop after pass K (default: run to completion)
  --rules            also generate association rules
  --top N            print at most N itemsets/rules (default 20)
  --machine NAME     t3e | sp2: also print the modeled response time
  --dhp N            enable the DHP pair-hash filter with N buckets
  --explain          print the per-pass cost breakdown (needs --machine)
  --stats            print database statistics before mining
  --maximal          print only maximal frequent itemsets
  --save-itemsets F  persist mined frequent itemsets to F
  --fault-kind K     inject transport faults (parallel algorithms only):
                     corrupt | truncate | duplicate | drop | reorder |
                     stall | mixed
  --fault-rate R     per-delivery-attempt fault probability (default 0.05)
  --fault-seed S     fault schedule seed (default 1; same seed = same faults)
  --fault-retries N  retransmit budget per message (default 3)
  --fault-timeout MS receive deadline in ms under faults (default 5000)
  --trace-out F      write a chrome://tracing span timeline of the run to F
                     (Trace Event Format JSON; one track per rank)
  --metrics-out F    write the per-pass, per-rank work/traffic counters of
                     the run to F as JSON
)";

bool ParseFaultKind(const std::string& name, pam::FaultKind* out) {
  if (name == "corrupt") *out = pam::FaultKind::kCorrupt;
  else if (name == "truncate") *out = pam::FaultKind::kTruncate;
  else if (name == "duplicate") *out = pam::FaultKind::kDuplicate;
  else if (name == "drop") *out = pam::FaultKind::kDrop;
  else if (name == "reorder") *out = pam::FaultKind::kReorder;
  else if (name == "stall") *out = pam::FaultKind::kStall;
  else return false;
  return true;
}

void PrintItemsets(const pam::FrequentItemsets& frequent, std::size_t n,
                   std::size_t top) {
  std::printf("frequent itemsets: %zu (largest size %d)\n",
              frequent.TotalCount(), frequent.MaxK());
  std::size_t printed = 0;
  for (const auto& level : frequent.levels) {
    for (std::size_t i = 0; i < level.size() && printed < top;
         ++i, ++printed) {
      pam::ItemSpan s = level.Get(i);
      std::printf("  {");
      for (std::size_t j = 0; j < s.size(); ++j) {
        std::printf(j ? " %u" : "%u", s[j]);
      }
      std::printf("}  support %.3f%% (%llu)\n",
                  100.0 * static_cast<double>(level.count(i)) /
                      static_cast<double>(n),
                  static_cast<unsigned long long>(level.count(i)));
    }
  }
  if (printed < frequent.TotalCount()) {
    std::printf("  ... (%zu more)\n", frequent.TotalCount() - printed);
  }
}

}  // namespace

int main(int argc, char** argv) {
  pam::FlagParser flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(), kUsage);
    return 2;
  }
  const std::vector<std::string> known = {
      "input",   "format",  "minsup",  "minconf",       "algorithm",
      "ranks",   "rules",   "top",     "max-k",         "hd-threshold",
      "machine", "explain", "stats",   "maximal",       "save-itemsets",
      "dhp",     "help",    "fault-kind", "fault-rate",  "fault-seed",
      "fault-retries", "fault-timeout", "trace-out", "metrics-out",
      "threads-per-rank"};
  for (const std::string& f : flags.UnknownFlags(known)) {
    std::fprintf(stderr, "error: unknown flag --%s\n%s", f.c_str(), kUsage);
    return 2;
  }
  const bool help = flags.GetBool("help", false);
  if (help || !flags.Has("input")) {
    std::fputs(kUsage, flags.Has("input") ? stdout : stderr);
    return help ? 0 : 2;
  }
  // Every number and switch is read before anything is loaded. A malformed
  // one is reported by the parser; an out-of-domain number would reach the
  // miner as no ranks at all, a bucket count near 2^64, or a negative
  // support.
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  const std::int64_t ranks = flags.GetInt("ranks", 4);
  const std::int64_t threads = flags.GetInt("threads-per-rank", 1);
  const std::int64_t max_k = flags.GetInt("max-k", 0);
  const std::int64_t hd_threshold = flags.GetInt("hd-threshold", 50000);
  const std::int64_t dhp = flags.GetInt("dhp", 0);
  const auto top = static_cast<std::size_t>(flags.GetInt("top", 20));
  const double minsup = flags.GetDouble("minsup", 1.0);
  const double minconf = flags.GetDouble("minconf", 50.0);
  const double fault_rate = flags.GetDouble("fault-rate", 0.05);
  const auto fault_seed =
      static_cast<std::uint64_t>(flags.GetInt("fault-seed", 1));
  const auto fault_retries = static_cast<int>(flags.GetInt("fault-retries", 3));
  const auto fault_timeout =
      static_cast<int>(flags.GetInt("fault-timeout", 5000));
  const bool print_stats = flags.GetBool("stats", false);
  const bool rules = flags.GetBool("rules", false);
  const bool explain = flags.GetBool("explain", false);
  const bool maximal = flags.GetBool("maximal", false);
  const char* range_error =
      !flags.error().empty() ? flags.error().c_str()
      : ranks < 1 || ranks > kIntMax ? "--ranks must be from 1 to 2147483647"
      : threads < 1 || threads > kIntMax
          ? "--threads-per-rank must be from 1 to 2147483647"
      : max_k < 0 || max_k > kIntMax ? "--max-k must be from 0 to 2147483647"
      : hd_threshold < 0 ? "--hd-threshold must be at least 0"
      : dhp < 0 ? "--dhp must be at least 0"
      : !(minsup >= 0.0 && minsup <= 100.0)
          ? "--minsup must be a percent from 0 to 100"
          : nullptr;
  if (range_error != nullptr) {
    std::fprintf(stderr, "error: %s\n%s", range_error, kUsage);
    return 2;
  }

  const std::string path = flags.GetString("input", "");
  const std::string format = flags.GetString("format", "binary");
  pam::Result<pam::TransactionDatabase> loaded =
      format == "text" ? pam::ReadText(path) : pam::ReadBinary(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().message().c_str());
    return 1;
  }
  const pam::TransactionDatabase& db = loaded.value();
  std::printf("loaded %zu transactions, %zu items, avg length %.2f\n",
              db.size(), db.NumItems(), db.AverageLength());
  if (print_stats) {
    std::printf("%s", pam::ComputeDbStats(db).ToString().c_str());
  }

  pam::ParallelConfig config;
  config.apriori.minsup_fraction = minsup / 100.0;
  config.apriori.max_k = static_cast<int>(max_k);
  config.hd_threshold_m = static_cast<std::size_t>(hd_threshold);
  config.apriori.dhp_buckets = static_cast<std::size_t>(dhp);
  config.apriori.threads_per_rank = static_cast<int>(threads);

  if (flags.Has("fault-kind")) {
    const std::string kind_name = flags.GetString("fault-kind", "");
    if (kind_name == "mixed") {
      config.fault =
          pam::FaultConfig::Mixed(fault_rate, fault_seed, fault_retries);
    } else {
      pam::FaultKind kind;
      if (!ParseFaultKind(kind_name, &kind)) {
        std::fprintf(stderr, "error: unknown fault kind '%s'\n%s",
                     kind_name.c_str(), kUsage);
        return 2;
      }
      config.fault = pam::FaultConfig::Uniform(kind, fault_rate, fault_seed,
                                               fault_retries);
    }
    config.fault.recv_timeout_ms = fault_timeout;
  }

  const std::string algorithm_name =
      flags.GetString("algorithm", "serial");
  pam::MiningRequest request;
  if (!pam::ParseMiningAlgorithm(algorithm_name, &request.algorithm)) {
    std::fprintf(stderr, "error: unknown algorithm '%s'\n%s",
                 algorithm_name.c_str(), kUsage);
    return 2;
  }
  request.num_ranks = static_cast<int>(ranks);
  request.config = config;
  request.generate_rules = rules;
  request.min_confidence = minconf / 100.0;

  pam::MiningSession session;
  pam::obs::ChromeTraceWriter trace_writer;
  pam::obs::JsonMetricsWriter metrics_writer;
  if (flags.Has("trace-out")) session.AddTraceSink(&trace_writer);
  if (flags.Has("metrics-out")) session.AddMetricsSink(&metrics_writer);

  pam::MiningReport report;
  try {
    report = session.Run(request, db);
  } catch (const pam::CommError& e) {
    std::fprintf(stderr,
                 "error: transport failure: kind=%s rank=%d peer=%d "
                 "tag=%d\n  %s\n",
                 pam::CommErrorKindName(e.kind()), e.rank(), e.peer(),
                 e.tag(), e.what());
    return 1;
  }
  pam::FrequentItemsets frequent = std::move(report.frequent);
  if (pam::IsParallel(request.algorithm)) {
    std::printf("mined with %s on %d logical ranks in %.2fs wall\n",
                pam::MiningAlgorithmName(request.algorithm).c_str(),
                request.num_ranks, report.wall_seconds);
  } else {
    std::printf("mined serially in %.2fs (minsup count %llu)\n",
                report.wall_seconds,
                static_cast<unsigned long long>(report.minsup_count));
  }
  if (config.fault.enabled && pam::IsParallel(request.algorithm)) {
    std::printf("fault injection: %llu injected, %llu retransmits, "
                "%llu bad envelopes discarded (result verified exact by "
                "framing)\n",
                static_cast<unsigned long long>(
                    report.metrics.TotalFaultsInjected()),
                static_cast<unsigned long long>(
                    report.metrics.TotalCommRetries()),
                static_cast<unsigned long long>(
                    report.metrics.TotalFaultsDetected()));
  }
  if (flags.Has("machine") && pam::IsParallel(request.algorithm)) {
    const pam::Algorithm algorithm =
        pam::ToParallelAlgorithm(request.algorithm);
    const std::string machine = flags.GetString("machine", "t3e");
    const pam::CostModel model(machine == "sp2"
                                   ? pam::MachineModel::IbmSp2()
                                   : pam::MachineModel::CrayT3E());
    if (explain) {
      std::printf("%s", pam::ExplainRun(model, algorithm,
                                        report.metrics)
                            .c_str());
    } else {
      std::printf("modeled %s response time: %.3fs\n",
                  model.machine().name.c_str(),
                  model.RunTime(algorithm, report.metrics));
    }
  }

  if (flags.Has("trace-out")) {
    const std::string out_path = flags.GetString("trace-out", "");
    const pam::Status status = trace_writer.WriteFile(out_path);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.message().c_str());
      return 1;
    }
    std::printf("wrote %zu trace events to %s (open in chrome://tracing)\n",
                trace_writer.size(), out_path.c_str());
  }
  if (flags.Has("metrics-out")) {
    const std::string out_path = flags.GetString("metrics-out", "");
    const pam::Status status = metrics_writer.WriteFile(out_path);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.message().c_str());
      return 1;
    }
    std::printf("wrote run metrics to %s\n", out_path.c_str());
  }

  if (flags.Has("save-itemsets")) {
    const std::string out_path = flags.GetString("save-itemsets", "");
    const pam::Status status =
        pam::WriteFrequentItemsets(frequent, out_path);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.message().c_str());
      return 1;
    }
    std::printf("saved frequent itemsets to %s\n", out_path.c_str());
  }

  if (maximal) {
    pam::FrequentItemsets maximal = pam::ExtractMaximal(frequent);
    std::printf("maximal ");
    PrintItemsets(maximal, db.size(), top);
  } else {
    PrintItemsets(frequent, db.size(), top);
  }

  if (request.generate_rules) {
    std::printf("\nrules at %.0f%% confidence: %zu\n",
                request.min_confidence * 100.0, report.rules.size());
    for (std::size_t i = 0; i < report.rules.size() && i < top; ++i) {
      std::printf("  %s\n", report.rules[i].ToString().c_str());
    }
  }
  return 0;
}
