#include "pam/core/itemsets_io.h"

#include <filesystem>
#include <fstream>
#include <map>

#include <gtest/gtest.h>

#include "pam/parallel/driver.h"
#include "pam/util/prng.h"
#include "testing/itemsets_reader.h"
#include "testing/random_db.h"

namespace pam {
namespace {

using testing::ReadFrequentItemsets;

class ItemsetsIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pam_fi_io_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

std::map<std::vector<Item>, Count> Flatten(const FrequentItemsets& fi) {
  std::map<std::vector<Item>, Count> out;
  for (const auto& level : fi.levels) {
    for (std::size_t i = 0; i < level.size(); ++i) {
      ItemSpan s = level.Get(i);
      out[std::vector<Item>(s.begin(), s.end())] = level.count(i);
    }
  }
  return out;
}

TEST_F(ItemsetsIoTest, RoundTrip) {
  TransactionDatabase db = testing::RandomDb(150, 15, 8, 81);
  AprioriConfig cfg;
  cfg.minsup_count = 6;
  FrequentItemsets frequent = MineSerial(db, cfg).frequent;
  ASSERT_GT(frequent.TotalCount(), 0u);

  ASSERT_TRUE(WriteFrequentItemsets(frequent, Path("fi.bin")).ok());
  auto loaded = ReadFrequentItemsets(Path("fi.bin"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(Flatten(loaded.value()), Flatten(frequent));
}

TEST_F(ItemsetsIoTest, EmptyItemsets) {
  FrequentItemsets empty;
  ASSERT_TRUE(WriteFrequentItemsets(empty, Path("empty.bin")).ok());
  auto loaded = ReadFrequentItemsets(Path("empty.bin"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->TotalCount(), 0u);
}

TEST_F(ItemsetsIoTest, MissingFileFails) {
  EXPECT_FALSE(ReadFrequentItemsets(Path("nope.bin")).ok());
}

TEST_F(ItemsetsIoTest, RejectsWrongMagic) {
  std::ofstream out(Path("bad.bin"), std::ios::binary);
  const std::uint64_t junk[4] = {1, 2, 3, 4};
  out.write(reinterpret_cast<const char*>(junk), sizeof(junk));
  out.close();
  EXPECT_FALSE(ReadFrequentItemsets(Path("bad.bin")).ok());
}

TEST_F(ItemsetsIoTest, FuzzedCorruptionNeverCrashes) {
  TransactionDatabase db = testing::RandomDb(100, 12, 7, 83);
  AprioriConfig cfg;
  cfg.minsup_count = 5;
  FrequentItemsets frequent = MineSerial(db, cfg).frequent;
  ASSERT_TRUE(WriteFrequentItemsets(frequent, Path("base.bin")).ok());

  std::ifstream in(Path("base.bin"), std::ios::binary);
  std::vector<char> base((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();

  Prng rng(997);
  for (int trial = 0; trial < 150; ++trial) {
    std::vector<char> corrupted = base;
    corrupted[rng.NextBounded(corrupted.size())] =
        static_cast<char>(rng.NextU64());
    std::ofstream out(Path("c.bin"), std::ios::binary);
    out.write(corrupted.data(),
              static_cast<std::streamsize>(corrupted.size()));
    out.close();
    auto loaded = ReadFrequentItemsets(Path("c.bin"));
    if (loaded.ok()) {
      // Counts may silently differ, but the structure must be valid.
      for (const auto& level : loaded->levels) {
        EXPECT_TRUE(level.IsSortedUnique());
      }
    }
  }
}

}  // namespace
}  // namespace pam
