#ifndef PAM_DATAGEN_QUEST_GEN_H_
#define PAM_DATAGEN_QUEST_GEN_H_

#include <cstdint>

#include "pam/tdb/database.h"

namespace pam {

/// Parameters for the IBM-Quest-style synthetic market-basket generator
/// described in Agrawal & Srikant, "Fast Algorithms for Mining Association
/// Rules" (VLDB 1994), Section 4.1 — the tool cited as [17] by the paper.
/// The paper's experiments use T15.I6 data (average transaction length 15,
/// average maximal potentially-frequent itemset size 6).
struct QuestConfig {
  /// D: number of transactions to generate.
  std::size_t num_transactions = 10000;
  /// N: number of distinct items.
  Item num_items = 1000;
  /// |T|: average transaction length (Poisson distributed per transaction).
  double avg_transaction_len = 15.0;
  /// |I|: average size of the maximal potentially frequent itemsets
  /// (Poisson distributed per pattern).
  double avg_pattern_len = 6.0;
  /// |L|: number of maximal potentially frequent itemsets in the pool.
  std::size_t num_patterns = 2000;
  /// Mean fraction of a pattern's items shared with the previous pattern
  /// (exponentially distributed per pattern); models cross-pattern
  /// correlation.
  double correlation = 0.5;
  /// Mean of the per-pattern corruption level (clamped normal, sd 0.1):
  /// when instantiating a pattern into a transaction, items are dropped
  /// while a uniform draw stays below the corruption level.
  double corruption_mean = 0.5;
  /// Skewed-prefix mode (off when hot_items == 0 or hot_item_mass == 0):
  /// every uniform item draw is redirected into the "hot prefix"
  /// [0, hot_items) with probability hot_item_mass. Patterns — and hence
  /// candidates — then pile up on a few first-items, the skew that IDD's
  /// bin packing and heavy-prefix split must absorb (bench_balance and
  /// the skewed-prefix table of bench_ablation_partition). When off, the
  /// generator's random stream is bit-identical to before the knob
  /// existed.
  Item hot_items = 0;
  double hot_item_mass = 0.0;
  /// Seed for the deterministic generator.
  std::uint64_t seed = 1;
};

/// The classic named dataset families of the Apriori literature
/// (Agrawal–Srikant Table 3 uses T5.I2, T10.I2, T10.I4, T20.I2, T20.I4,
/// T20.I6; the paper mines T15.I6). "Tx.Iy" = average transaction length
/// x, average maximal pattern length y.
QuestConfig QuestT5I2(std::size_t num_transactions, std::uint64_t seed = 1);
QuestConfig QuestT10I4(std::size_t num_transactions, std::uint64_t seed = 1);
QuestConfig QuestT15I6(std::size_t num_transactions, std::uint64_t seed = 1);
QuestConfig QuestT20I6(std::size_t num_transactions, std::uint64_t seed = 1);

/// Generates a synthetic transaction database.
///
/// Pattern pool construction:
///  * each pattern's length ~ max(1, Poisson(|I|));
///  * a fraction (exp-distributed, mean `correlation`) of items is drawn
///    from the previous pattern, the rest uniformly at random;
///  * each pattern carries an exponential(1) weight, normalized into a
///    discrete picking distribution, and a corruption level.
///
/// Transaction assembly:
///  * length ~ Poisson(|T|);
///  * patterns are picked by weight and corrupted (items dropped while
///    u < corruption);
///  * if a corrupted pattern does not fit in the remaining budget it is
///    added anyway in half of the cases and dropped otherwise (the
///    Agrawal–Srikant rule, simplified to per-transaction scope).
TransactionDatabase GenerateQuest(const QuestConfig& config);

}  // namespace pam

#endif  // PAM_DATAGEN_QUEST_GEN_H_
