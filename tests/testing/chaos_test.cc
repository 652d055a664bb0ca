// Chaos matrix for the fault-injecting communicator: every parallel
// formulation x every fault kind x several schedule seeds, over a small
// Quest workload. Each recovered cell must produce byte-identical frequent
// itemsets to serial Apriori — the envelope framing and retransmit
// machinery must hide the faults completely. Unrecoverable cells (drops
// with no retransmit budget) must fail with a structured CommError and
// never hang or return partial results.
//
// Every cell is reproducible from its printed name: the fault schedule is
// a pure function of (seed, src, dst, tag, seq, attempt), independent of
// thread interleaving.

#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "pam/core/serial_apriori.h"
#include "pam/mp/fault.h"
#include "pam/parallel/driver.h"
#include "testing/test_support.h"

namespace pam {
namespace {

constexpr int kRanks = 4;
constexpr double kMinsup = 0.03;

// One workload and serial reference for the whole matrix (the database is
// deterministic, so sharing it across cells is sound).
const TransactionDatabase& ChaosDb() {
  static const TransactionDatabase db = testing::TinyQuestDb();
  return db;
}

const std::map<std::vector<Item>, Count>& ChaosReference() {
  static const std::map<std::vector<Item>, Count> flat = [] {
    AprioriConfig cfg;
    cfg.minsup_fraction = kMinsup;
    return testing::SerialReference(ChaosDb(), cfg);
  }();
  return flat;
}

ParallelConfig ChaosConfig() {
  ParallelConfig cfg;
  cfg.apriori.minsup_fraction = kMinsup;
  cfg.page_bytes = 256;      // many small messages: more fault opportunities
  cfg.hd_threshold_m = 50;   // force HD onto real grids
  return cfg;
}

std::string CellName(Algorithm alg, FaultKind kind, std::uint64_t seed) {
  return AlgorithmName(alg) + std::string("/") + FaultKindName(kind) +
         "/seed" + std::to_string(seed);
}

// ---------------------------------------------------------------------------
// Recovered matrix: faults at 5% per delivery attempt, retransmit budget 8.
// The probability that all nine attempts of one message fault is ~2e-12, so
// every cell deterministically completes — and must match serial exactly.
// ---------------------------------------------------------------------------

class ChaosRecovered
    : public ::testing::TestWithParam<
          std::tuple<Algorithm, FaultKind, std::uint64_t>> {};

TEST_P(ChaosRecovered, MatchesSerialExactly) {
  const auto [alg, kind, seed] = GetParam();
  ParallelConfig cfg = ChaosConfig();
  cfg.fault = FaultConfig::Uniform(kind, 0.05, seed, /*max_retries=*/8);
  cfg.fault.recv_timeout_ms = 10000;

  MiningReport result = MineParallel(alg, ChaosDb(), kRanks, cfg);
  testing::ExpectMatchesSerial(result, ChaosReference(),
                               CellName(alg, kind, seed));
  // Counters are threaded per pass; the whole-run aggregate must be
  // consistent (retries only happen to repair injected faults).
  if (result.metrics.TotalCommRetries() > 0) {
    EXPECT_GT(result.metrics.TotalFaultsInjected(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ChaosRecovered,
    ::testing::Combine(
        ::testing::Values(Algorithm::kCD, Algorithm::kDD, Algorithm::kIDD,
                          Algorithm::kHD),
        ::testing::Values(FaultKind::kCorrupt, FaultKind::kTruncate,
                          FaultKind::kDuplicate, FaultKind::kDrop,
                          FaultKind::kReorder, FaultKind::kStall),
        ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<
        std::tuple<Algorithm, FaultKind, std::uint64_t>>& info) {
      std::string name(AlgorithmName(std::get<0>(info.param)) +
                       std::string("_") +
                       FaultKindName(std::get<1>(info.param)) + "_S" +
                       std::to_string(std::get<2>(info.param)));
      for (char& c : name) {
        if (c == '+') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Mixed storm: all six kinds at once at a high aggregate rate. The fault
// counters must show real activity end to end (injected on send, repaired
// by retries, bad envelopes detected on receive) and the result must still
// be exact.
// ---------------------------------------------------------------------------

TEST(ChaosMixed, HighFaultRateStillExactAndCountersMove) {
  for (Algorithm alg : {Algorithm::kCD, Algorithm::kDD, Algorithm::kIDD,
                        Algorithm::kHD}) {
    ParallelConfig cfg = ChaosConfig();
    cfg.fault = FaultConfig::Mixed(0.3, /*seed=*/99, /*max_retries=*/8);
    cfg.fault.recv_timeout_ms = 10000;

    MiningReport result = MineParallel(alg, ChaosDb(), kRanks, cfg);
    testing::ExpectMatchesSerial(result, ChaosReference(),
                                 AlgorithmName(alg) + std::string(" mixed"));
    EXPECT_GT(result.metrics.TotalFaultsInjected(), 0u) << AlgorithmName(alg);
    EXPECT_GT(result.metrics.TotalCommRetries(), 0u) << AlgorithmName(alg);
    EXPECT_GT(result.metrics.TotalFaultsDetected(), 0u) << AlgorithmName(alg);
  }
}

TEST(ChaosMixed, SameSeedSameFaultSchedule) {
  // The schedule is deterministic: two identical runs inject the same
  // number of faults and retries, pass by pass.
  ParallelConfig cfg = ChaosConfig();
  cfg.fault = FaultConfig::Mixed(0.2, /*seed=*/7, /*max_retries=*/8);
  MiningReport a = MineParallel(Algorithm::kCD, ChaosDb(), kRanks, cfg);
  MiningReport b = MineParallel(Algorithm::kCD, ChaosDb(), kRanks, cfg);
  EXPECT_EQ(a.metrics.TotalFaultsInjected(), b.metrics.TotalFaultsInjected());
  EXPECT_EQ(a.metrics.TotalCommRetries(), b.metrics.TotalCommRetries());
  EXPECT_EQ(testing::Flatten(a.frequent), testing::Flatten(b.frequent));
}

TEST(ChaosMixed, FaultsOffInjectsNothing) {
  // The differential baseline: with the plan disabled the counters stay
  // exactly zero (no schedule consultation on the fast path).
  ParallelConfig cfg = ChaosConfig();
  MiningReport r = MineParallel(Algorithm::kHD, ChaosDb(), kRanks, cfg);
  EXPECT_EQ(r.metrics.TotalFaultsInjected(), 0u);
  EXPECT_EQ(r.metrics.TotalCommRetries(), 0u);
  EXPECT_EQ(r.metrics.TotalFaultsDetected(), 0u);
}

// ---------------------------------------------------------------------------
// Unrecoverable matrix: heavy drops with no retransmit budget. Every cell
// must terminate with a structured CommError — typed, attributed to a rank
// and peer — rather than hanging or returning partial itemsets.
// ---------------------------------------------------------------------------

class ChaosUnrecoverable
    : public ::testing::TestWithParam<std::tuple<Algorithm, std::uint64_t>> {
};

TEST_P(ChaosUnrecoverable, FailsWithTypedErrorNotHang) {
  const auto [alg, seed] = GetParam();
  ParallelConfig cfg = ChaosConfig();
  cfg.fault = FaultConfig::Uniform(FaultKind::kDrop, 0.3, seed,
                                   /*max_retries=*/0);
  cfg.fault.recv_timeout_ms = 200;

  try {
    MiningReport result = MineParallel(alg, ChaosDb(), kRanks, cfg);
    // A run that survives 30% unrepaired drops would itself be a bug in
    // the detection machinery (some pass exchanged no messages it missed).
    ADD_FAILURE() << CellName(alg, FaultKind::kDrop, seed)
                  << ": completed despite unrecoverable drops";
  } catch (const CommError& e) {
    // The first failure is always the deadline expiring on the rank whose
    // message was lost; peers woken by the abort report kAborted but
    // Runtime::Run rethrows the first error.
    EXPECT_EQ(e.kind(), CommErrorKind::kTimeout)
        << CellName(alg, FaultKind::kDrop, seed) << ": " << e.what();
    EXPECT_GE(e.rank(), 0);
    EXPECT_LT(e.rank(), kRanks);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ChaosUnrecoverable,
    ::testing::Combine(::testing::Values(Algorithm::kCD, Algorithm::kDD,
                                         Algorithm::kIDD, Algorithm::kHD),
                       ::testing::Values(11u, 22u, 33u)),
    [](const ::testing::TestParamInfo<std::tuple<Algorithm, std::uint64_t>>&
           info) {
      std::string name(AlgorithmName(std::get<0>(info.param)) +
                       std::string("_S") +
                       std::to_string(std::get<1>(info.param)));
      for (char& c : name) {
        if (c == '+') c = '_';
      }
      return name;
    });

TEST(ChaosUnrecoverable, RuntimeReusableAfterFailure) {
  // A failed run must not poison the process: a fresh clean run right
  // after an aborted one produces exact results.
  ParallelConfig bad = ChaosConfig();
  bad.fault = FaultConfig::Uniform(FaultKind::kDrop, 0.5, /*seed=*/42,
                                   /*max_retries=*/0);
  bad.fault.recv_timeout_ms = 100;
  EXPECT_THROW(MineParallel(Algorithm::kCD, ChaosDb(), kRanks, bad),
               CommError);

  ParallelConfig clean = ChaosConfig();
  MiningReport r = MineParallel(Algorithm::kCD, ChaosDb(), kRanks, clean);
  testing::ExpectMatchesSerial(r, ChaosReference(), "post-failure clean run");
}

}  // namespace
}  // namespace pam
