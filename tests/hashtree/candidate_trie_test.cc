// The candidate trie, the production counting kernel of every tree pass
// (DESIGN.md §7): counts must equal the hash tree's and brute force's for
// every candidate subset a formulation builds (a CD chunk, DD's
// round-robin share, IDD's prefix partition), with and without IDD's root
// filter, through the counting team at every size, and with items up to
// kMaxItemId. Its SubsetStats definitions are pinned on a hand-built trie.

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pam/core/candidate_partition.h"
#include "pam/core/count_team.h"
#include "pam/hashtree/candidate_trie.h"
#include "pam/hashtree/counting_pool.h"
#include "pam/hashtree/hash_tree.h"
#include "pam/tdb/page_buffer.h"
#include "pam/util/prng.h"
#include "testing/random_db.h"
#include "testing/reference.h"

namespace pam {
namespace {

using testing::RandomCandidates;
using testing::RandomDb;

struct Counted {
  std::vector<Count> counts;
  SubsetStats stats;
};

// Counts every transaction of `db` through `tree` one Subset() call at a
// time, on one scratch.
template <typename Tree>
Counted CountAll(const Tree& tree, const TransactionDatabase& db,
                 std::size_t num_candidates, const Bitmap* filter) {
  Counted out;
  out.counts.assign(num_candidates, 0);
  typename Tree::Scratch scratch = tree.MakeScratch();
  for (std::size_t t = 0; t < db.size(); ++t) {
    tree.Subset(db.Transaction(t), std::span<Count>(out.counts), &out.stats,
                filter, scratch);
  }
  return out;
}

// Brute-force counts of the candidates in `ids` whose first item passes
// `filter` (all when null); every other candidate stays 0.
std::vector<Count> Expected(const TransactionDatabase& db,
                            const ItemsetCollection& candidates,
                            const std::vector<std::uint32_t>& ids,
                            const Bitmap* filter) {
  const std::vector<Count> all =
      testing::CountBruteForce(db, {0, db.size()}, candidates);
  std::vector<Count> expected(candidates.size(), 0);
  for (const std::uint32_t id : ids) {
    if (filter == nullptr || filter->Test(candidates.Get(id)[0])) {
      expected[id] = all[id];
    }
  }
  return expected;
}

// The trie against the hash tree and brute force on one candidate subset
// (every subset below holds many candidates). The root-level counters
// share their definition with a hash tree whose root has split (a root
// leaf is checked once, for the first viable item, and the rest go
// uncounted), so the tree has one-candidate leaves: its root splits once
// it holds two candidates.
void ExpectSubsetAgrees(const TransactionDatabase& db,
                        const ItemsetCollection& candidates,
                        const std::vector<std::uint32_t>& ids,
                        const Bitmap* filter, const std::string& label) {
  const CandidateTrie trie(candidates, ids);
  EXPECT_EQ(trie.num_candidates(), ids.size()) << label;
  EXPECT_EQ(trie.build_inserts(), ids.size()) << label;
  const HashTree tree(candidates, ids, HashTreeConfig{64, 1});
  const Counted by_trie = CountAll(trie, db, candidates.size(), filter);
  const Counted by_tree = CountAll(tree, db, candidates.size(), filter);
  EXPECT_EQ(by_trie.counts, Expected(db, candidates, ids, filter)) << label;
  EXPECT_EQ(by_trie.counts, by_tree.counts) << label;
  EXPECT_EQ(by_trie.stats.transactions, by_tree.stats.transactions) << label;
  EXPECT_EQ(by_trie.stats.root_items_considered,
            by_tree.stats.root_items_considered)
      << label;
  EXPECT_EQ(by_trie.stats.root_items_skipped,
            by_tree.stats.root_items_skipped)
      << label;
}

// k = 2..7 over random collections: every subset shape a formulation
// builds, with IDD's filter on its own partition and a random filter on
// the whole collection.
TEST(CandidateTrieTest, MatchesHashTreeAndBruteForce) {
  const Item universe = 24;
  const TransactionDatabase db = RandomDb(300, universe, 14, 2718);
  Prng rng(1511);
  for (int k = 2; k <= 7; ++k) {
    const ItemsetCollection candidates =
        RandomCandidates(k, 240, universe, 40 + static_cast<std::uint64_t>(k));
    ASSERT_GE(candidates.size(), 100u) << "k=" << k;
    const std::string at = "k=" + std::to_string(k);
    std::vector<std::uint32_t> all(candidates.size());
    std::iota(all.begin(), all.end(), 0u);
    ExpectSubsetAgrees(db, candidates, all, nullptr, at + " all");

    // CD's memory-capped chunks: contiguous id ranges.
    for (std::size_t lo = 0; lo < candidates.size(); lo += 37) {
      const std::size_t hi = std::min(candidates.size(), lo + 37);
      std::vector<std::uint32_t> chunk(hi - lo);
      std::iota(chunk.begin(), chunk.end(), static_cast<std::uint32_t>(lo));
      ExpectSubsetAgrees(db, candidates, chunk, nullptr,
                         at + " chunk@" + std::to_string(lo));
    }
    // DD's round-robin shares.
    const CandidatePartition round_robin =
        PartitionRoundRobin(candidates.size(), 3);
    for (std::size_t p = 0; p < round_robin.ids_per_part.size(); ++p) {
      ExpectSubsetAgrees(db, candidates, round_robin.ids_per_part[p],
                         nullptr, at + " dd part " + std::to_string(p));
    }
    // IDD's prefix partition, with and without its root filter.
    const CandidatePartition prefix = PartitionByPrefix(
        candidates, universe, 3, PrefixStrategy::kBinPacked, true);
    for (std::size_t p = 0; p < prefix.ids_per_part.size(); ++p) {
      const std::string part = at + " idd part " + std::to_string(p);
      ExpectSubsetAgrees(db, candidates, prefix.ids_per_part[p], nullptr,
                         part);
      ExpectSubsetAgrees(db, candidates, prefix.ids_per_part[p],
                         &prefix.first_item_filter[p], part + " filtered");
    }
    // A filter that drops first items the trie holds.
    Bitmap half(universe);
    for (Item x = 0; x < universe; ++x) {
      if (rng.NextBounded(2) == 1) half.Set(x);
    }
    ExpectSubsetAgrees(db, candidates, all, &half, at + " random filter");

    // Ids in any order build the same trie.
    std::vector<std::uint32_t> shuffled = all;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
    }
    ExpectSubsetAgrees(db, candidates, shuffled, nullptr, at + " shuffled");
  }
}

// Through TeamCounter at team sizes {1, 2, 4}, by slice and by page: the
// merged counts and stats equal one scratch counting every transaction.
TEST(CandidateTrieTest, TeamCountsIdenticalAcrossTeamSizes) {
  const TransactionDatabase db = RandomDb(600, 30, 12, 77);
  for (int k = 2; k <= 5; ++k) {
    const ItemsetCollection candidates =
        RandomCandidates(k, 300, 30, 90 + static_cast<std::uint64_t>(k));
    const CandidatePartition prefix = PartitionByPrefix(
        candidates, 30, 2, PrefixStrategy::kBinPacked, true);
    const std::vector<std::uint32_t>& ids = prefix.ids_per_part[0];
    const Bitmap* filter = &prefix.first_item_filter[0];
    const CandidateTrie trie(candidates, ids);
    const Counted base = CountAll(trie, db, candidates.size(), filter);
    const std::vector<Page> pages = Paginate(db, {0, db.size()}, 512);
    ASSERT_GT(pages.size(), 2u);
    for (const int threads : {1, 2, 4}) {
      const std::string label =
          "k=" + std::to_string(k) + " threads=" + std::to_string(threads);
      CountingPool pool(threads);
      for (const bool by_page : {false, true}) {
        Counted got;
        got.counts.assign(candidates.size(), 0);
        TeamCounter team(&pool, &trie, std::span<Count>(got.counts),
                         &got.stats, filter);
        std::size_t processed = 0;
        if (by_page) {
          for (const Page& page : pages) processed += team.CountPage(page);
        } else {
          processed = team.CountSlice(db, {0, db.size()});
        }
        team.Finish();
        EXPECT_EQ(processed, db.size()) << label;
        EXPECT_EQ(got.counts, base.counts) << label << " page=" << by_page;
        EXPECT_TRUE(got.stats == base.stats) << label << " page=" << by_page;
        if (threads > 1) {
          std::uint64_t work = 0;
          for (const std::uint64_t w : team.shard_work()) work += w;
          EXPECT_EQ(work, got.stats.traversal_steps +
                              got.stats.leaf_candidates_checked)
              << label;
        }
      }
    }
  }
}

// Items at the top of the id range: the per-item arrays are sized by the
// largest candidate item, and transaction items above it are skipped.
TEST(CandidateTrieTest, ItemsUpToMaxItemId) {
  const Item top = kMaxItemId;
  TransactionDatabase db;
  db.Add(std::vector<Item>{1, top - 2, top - 1, top});
  db.Add(std::vector<Item>{1, 2, top - 1, top});
  db.Add(std::vector<Item>{top - 3, top - 2, top - 1, top});
  db.Add(std::vector<Item>{2, top - 2});
  ItemsetCollection candidates(3);
  for (const std::vector<Item>& c : std::vector<std::vector<Item>>{
           {1, 2, top},
           {1, top - 2, top},
           {1, top - 1, top},
           {2, top - 1, top},
           {top - 3, top - 1, top},
           {top - 2, top - 1, top}}) {
    candidates.Add(ItemSpan(c.data(), c.size()));
  }
  // A trie over the smaller items still sees transactions with larger ones.
  for (const std::vector<std::uint32_t>& ids :
       {std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5},
        std::vector<std::uint32_t>{0, 3}}) {
    const CandidateTrie trie(candidates, ids);
    const Counted got = CountAll(trie, db, candidates.size(), nullptr);
    EXPECT_EQ(got.counts, Expected(db, candidates, ids, nullptr));
  }
}

// The SubsetStats definitions on a hand-built k = 3 trie:
//   level 1 under 1: {2, 3}; under 2: {3, 5}
//   level 2 under (1,2): {3, 4}; (1,3): {4}; (2,3): {4}; (2,5): {6}
TEST(CandidateTrieTest, StatsDefinitions) {
  ItemsetCollection candidates(3);
  for (const std::vector<Item>& c : std::vector<std::vector<Item>>{
           {1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}, {2, 5, 6}}) {
    candidates.Add(ItemSpan(c.data(), c.size()));
  }
  const CandidateTrie trie(candidates);
  EXPECT_EQ(trie.build_inserts(), 5u);
  EXPECT_EQ(trie.level_size(1), 4u);
  EXPECT_EQ(trie.level_size(2), 5u);
  CandidateTrie::Scratch scratch = trie.MakeScratch();
  const auto count = [&](std::vector<Item> tx, const Bitmap* filter) {
    Counted out;
    out.counts.assign(candidates.size(), 0);
    trie.Subset(ItemSpan(tx.data(), tx.size()), std::span<Count>(out.counts),
                &out.stats, filter, scratch);
    return out;
  };

  // {1,2,3,4}: start items 1 and 2 (the last two cannot start a 3-set).
  // Root lookups 2, level-1 children tested 2 + 2; prefixes (1,2), (1,3)
  // and (2,3) found, testing 2 + 1 + 1 last-level candidates.
  Counted a = count({1, 2, 3, 4}, nullptr);
  EXPECT_EQ(a.counts, (std::vector<Count>{1, 1, 1, 1, 0}));
  EXPECT_EQ(a.stats.transactions, 1u);
  EXPECT_EQ(a.stats.root_items_considered, 2u);
  EXPECT_EQ(a.stats.root_items_skipped, 0u);
  EXPECT_EQ(a.stats.traversal_steps, 6u);
  EXPECT_EQ(a.stats.distinct_leaf_visits, 3u);
  EXPECT_EQ(a.stats.leaf_candidates_checked, 4u);

  // {1,2,5,6}: prefixes (1,2) and (2,5) found, 2 + 1 candidates tested.
  Counted b = count({1, 2, 5, 6}, nullptr);
  EXPECT_EQ(b.counts, (std::vector<Count>{0, 0, 0, 0, 1}));
  EXPECT_EQ(b.stats.traversal_steps, 6u);
  EXPECT_EQ(b.stats.distinct_leaf_visits, 2u);
  EXPECT_EQ(b.stats.leaf_candidates_checked, 3u);

  // {2,3,5,6}: child 3 of item 2 sits at position 1 and needs one item
  // after it (found: 5 or 6 follow), child 5 at position 2 likewise; the
  // start item 3 owns no subtree but still costs its root lookup.
  Counted c = count({2, 3, 5, 6}, nullptr);
  EXPECT_EQ(c.counts, (std::vector<Count>{0, 0, 0, 0, 1}));
  EXPECT_EQ(c.stats.root_items_considered, 2u);
  EXPECT_EQ(c.stats.traversal_steps, 4u);
  EXPECT_EQ(c.stats.distinct_leaf_visits, 2u);
  EXPECT_EQ(c.stats.leaf_candidates_checked, 2u);

  // The root filter skips item 1 before its lookup.
  Bitmap only_two(8);
  only_two.Set(2);
  Counted d = count({1, 2, 3, 4}, &only_two);
  EXPECT_EQ(d.counts, (std::vector<Count>{0, 0, 0, 1, 0}));
  EXPECT_EQ(d.stats.root_items_skipped, 1u);
  EXPECT_EQ(d.stats.root_items_considered, 1u);
  EXPECT_EQ(d.stats.traversal_steps, 3u);
  EXPECT_EQ(d.stats.distinct_leaf_visits, 1u);
  EXPECT_EQ(d.stats.leaf_candidates_checked, 1u);

  // A transaction shorter than k is counted and nothing else.
  Counted e = count({1, 2}, nullptr);
  EXPECT_EQ(e.stats.transactions, 1u);
  EXPECT_EQ(e.stats.root_items_considered, 0u);
  EXPECT_EQ(e.stats.traversal_steps, 0u);
}

}  // namespace
}  // namespace pam
