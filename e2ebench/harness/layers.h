// The traced run's layer measurements, all taken from outside the
// program: the serial pipeline replayed one public call at a time under
// harness spans, message-passing replays on the workload's own pages, and
// each formulation's own counters and timeline.
#ifndef E2EBENCH_HARNESS_LAYERS_H_
#define E2EBENCH_HARNESS_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/common.h"
#include "pam/api/session.h"
#include "pam/tdb/database.h"

namespace e2e {

/// The serial pipeline of MiningSession, call by call, with every call
/// in its own span under one root span.
struct SerialReplay {
  pam::FrequentItemsets frequent;
  std::vector<pam::Rule> rules;
  int root_span = -1;
  double wall_s = 0.0;       // root span
  double read_s = 0.0;       // ReadBinary
  double read_mb = 0.0;      // basket file size
  double pass1_s = 0.0;      // CountItems + MakeF1
  double candgen_s = 0.0;    // AprioriGen
  double triangle_s = 0.0;   // pass-2 triangle counting
  double build_s = 0.0;      // HashTree construction
  double subset_s = 0.0;     // HashTree subset counting
  double rulegen_s = 0.0;    // GenerateRules
  std::uint64_t candidates = 0;       // |C_k| summed over k >= 2
  std::uint64_t pair_candidates = 0;  // |C_2|
  std::uint64_t build_inserts = 0;
  std::uint64_t counted_transactions = 0;  // over every counting pass
  std::uint64_t traversal_steps = 0;
  std::uint64_t leaf_visits = 0;
  std::uint64_t leaf_checks = 0;
  std::uint64_t count_increments = 0;  // support added by tree counting
  std::string error;                   // load failure, if any
};

SerialReplay ReplaySerial(const std::string& basket_path,
                          const pam::MiningRequest& request, SpanLog& log);

/// One circulation of the database's pages around 2 ranks through
/// RingShiftAll with a consumer that does nothing; seconds of rank 0.
double RingReplaySeconds(const pam::TransactionDatabase& db,
                         std::size_t page_bytes);

/// DD's page exchange between 2 ranks, replayed with Isend / Recv.
double ExchangeReplaySeconds(const pam::TransactionDatabase& db,
                             std::size_t page_bytes);

/// Median seconds of one AllReduceSum of `words` words at 2 ranks.
double AllReduceSeconds(std::size_t words, int reps);

/// Counters of one parallel formulation run with its timeline collected.
struct ParallelLayer {
  double bytes_sent = 0.0;        // page traffic, all passes and ranks
  double messages = 0.0;          // page messages
  double reduction_words = 0.0;   // count-reduction words
  double imbalance = 1.0;         // max/mean subset work, worst pass
  double comm_wait_s = 0.0;       // slowest rank, comm spans minus counting
};

ParallelLayer MeasureParallel(const pam::MiningReport& report);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_LAYERS_H_
