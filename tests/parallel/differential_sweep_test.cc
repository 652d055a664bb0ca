// Randomized differential sweep: for each seed, draw mining configurations
// from the cross product {minsup} x {num_ranks} x {page_bytes} x
// {use_pass2_triangle} x {threads_per_rank} x {adaptive_balance} x
// {identity_root} and check that CD, DD, IDD, HD and HPA each produce the
// serial Apriori result byte-for-byte. Fault injection is off here; the
// chaos harness (tests/testing/chaos_test.cc) covers the faulty transport.
//
// The draw is deterministic per seed, so a failure report of the form
// "seed=202 draw=3" is enough to reproduce a cell exactly.

#include <cstddef>
#include <string>

#include <gtest/gtest.h>

#include "pam/core/serial_apriori.h"
#include "pam/parallel/driver.h"
#include "pam/util/prng.h"
#include "testing/test_support.h"

namespace pam {
namespace {

class DifferentialSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialSweep, AllAlgorithmsMatchSerial) {
  const std::uint64_t seed = GetParam();
  Prng rng(seed);
  // Tree shape draws from a stream of its own, so the draws of `rng` (and
  // the cells they pick) do not depend on it.
  Prng shape_rng(seed ^ 0x5eed7ee5ULL);

  // Workload varies with the seed so the sweep covers different candidate
  // populations, not just different configs over one database.
  const TransactionDatabase db = testing::SeededQuestDb(seed);

  const double minsups[] = {0.015, 0.02, 0.03};
  const int ranks[] = {2, 3, 4, 6, 8};
  const std::size_t pages[] = {256, 512, 4096};
  const int threads[] = {1, 2, 3};

  constexpr int kDrawsPerSeed = 4;
  for (int draw = 0; draw < kDrawsPerSeed; ++draw) {
    AprioriConfig serial_cfg;
    serial_cfg.minsup_fraction = minsups[rng.NextBounded(3)];
    serial_cfg.use_pass2_triangle = rng.NextBounded(2) == 1;
    serial_cfg.threads_per_rank = threads[rng.NextBounded(3)];
    const int p = ranks[rng.NextBounded(5)];
    const std::size_t page_bytes = pages[rng.NextBounded(3)];

    // The reference is always single-threaded; parallel runs draw their
    // own team size so the sweep crosses it with everything else.
    AprioriConfig reference_cfg = serial_cfg;
    reference_cfg.threads_per_rank = 1;
    const auto serial_flat = testing::SerialReference(db, reference_cfg);
    ASSERT_FALSE(serial_flat.empty());

    ParallelConfig cfg;
    cfg.apriori = serial_cfg;
    cfg.page_bytes = page_bytes;
    cfg.hd_threshold_m = 100;  // force HD onto real grids
    // Adaptive rebalancing must never change mined output: cross it with
    // everything else (only IDD/HD honor it; the rest must ignore it).
    cfg.adaptive_balance = rng.NextBounded(2) == 1;
    // The serial reference keeps the default tree; the parallel runs
    // cross the root dispatch with everything else (adaptive IDD/HD force
    // the identity root whatever the draw).
    cfg.apriori.tree.identity_root = shape_rng.NextBounded(2) == 1;
    for (Algorithm alg : {Algorithm::kCD, Algorithm::kDD, Algorithm::kIDD,
                          Algorithm::kHD, Algorithm::kHPA}) {
      const std::string label =
          AlgorithmName(alg) + " seed=" + std::to_string(seed) +
          " draw=" + std::to_string(draw) +
          " minsup=" + std::to_string(serial_cfg.minsup_fraction) +
          " P=" + std::to_string(p) +
          " page=" + std::to_string(page_bytes) + " tri=" +
          (serial_cfg.use_pass2_triangle ? "1" : "0") +
          " threads=" + std::to_string(serial_cfg.threads_per_rank) +
          " adaptive=" + (cfg.adaptive_balance ? "1" : "0") +
          " idroot=" + (cfg.apriori.tree.identity_root ? "1" : "0");
      ParallelResult result = MineParallel(alg, db, p, cfg);
      testing::ExpectMatchesSerial(result, serial_flat, label);
      EXPECT_EQ(result.metrics.TotalFaultsInjected(), 0u) << label;
      EXPECT_EQ(result.metrics.TotalCommRetries(), 0u) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSweep,
                         ::testing::Values(101u, 202u, 303u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "Seed" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace pam
