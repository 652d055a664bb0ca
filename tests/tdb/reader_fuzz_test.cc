// Deterministic mutation fuzzing of both basket-file readers (ctest label
// `fuzz`; scripts/ci.sh runs it under ASan/UBSan). Each reader gets a fixed
// number of mutants of the seed corpus in tests/tdb/corpus, drawn from a
// seeded Prng by the mutators in testing/mutate.h, so every run tries the
// same inputs and a failure names the trial and the input that caused it.
// The properties:
//   - an error carries a non-empty message;
//   - a loaded database is structurally valid: rows strictly increasing,
//     every id below NumItems(), NumItems() == largest id + 1, at most
//     kMaxItemId + 1;
//   - a loaded binary image, written back by WriteBinary, is the input byte
//     for byte;
//   - a text input loads exactly when the grammar oracle below accepts it,
//     and to the oracle's rows; a rejected one fails with the oracle's
//     error.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "pam/tdb/io.h"
#include "pam/util/prng.h"
#include "testing/mutate.h"

namespace pam {
namespace {

using testing::Bytes;
using testing::Printable;
using Rows = std::vector<std::vector<Item>>;

constexpr int kMutantsPerReader = 3000;

Bytes ReadAll(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Rows RowsOf(const TransactionDatabase& db) {
  Rows rows;
  for (std::size_t t = 0; t < db.size(); ++t) {
    ItemSpan row = db.Transaction(t);
    rows.emplace_back(row.begin(), row.end());
  }
  return rows;
}

::testing::AssertionResult StructurallyValid(const TransactionDatabase& db) {
  std::size_t largest_plus_one = 0;
  for (std::size_t t = 0; t < db.size(); ++t) {
    ItemSpan row = db.Transaction(t);
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0 && row[i - 1] >= row[i]) {
        return ::testing::AssertionFailure() << "row " << t << " unsorted";
      }
      if (row[i] >= db.NumItems()) {
        return ::testing::AssertionFailure()
               << "row " << t << " holds " << row[i] << " >= NumItems() "
               << db.NumItems();
      }
    }
    if (!row.empty()) {
      largest_plus_one =
          std::max(largest_plus_one, std::size_t{row.back()} + 1);
    }
  }
  if (db.NumItems() != largest_plus_one ||
      db.NumItems() > std::size_t{kMaxItemId} + 1) {
    return ::testing::AssertionFailure()
           << "NumItems() " << db.NumItems() << ", largest id + 1 "
           << largest_plus_one;
  }
  return ::testing::AssertionSuccess();
}

// The text grammar of io.h, token by token: C-locale whitespace separates
// tokens; a token is decimal digits with an optional '+'; '-' and digits,
// or a value above kMaxItemId, is out of range; anything else is
// malformed; a line without tokens is skipped. Yields the sorted,
// deduplicated rows, or the leading words of the first error.
struct OracleResult {
  std::optional<Rows> rows;
  std::string error;
};

OracleResult TextOracle(const Bytes& text) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  Rows rows;
  std::size_t begin = 0;
  while (begin < text.size()) {
    const std::size_t end = std::min(text.find('\n', begin), text.size());
    std::vector<Item> row;
    std::size_t i = begin;
    while (true) {
      while (i < end && kSpace.find(text[i]) != kSpace.npos) ++i;
      if (i == end) break;
      std::size_t j = i;
      while (j < end && kSpace.find(text[j]) == kSpace.npos) ++j;
      const std::string_view token(text.data() + i, j - i);
      const std::size_t sign = token[0] == '+' || token[0] == '-' ? 1 : 0;
      if (token.size() == sign) return {std::nullopt, "malformed line"};
      std::uint64_t value = 0;
      for (char c : token.substr(sign)) {
        if (c < '0' || c > '9') return {std::nullopt, "malformed line"};
        value = std::min<std::uint64_t>(value * 10 + (c - '0'),
                                        std::uint64_t{kMaxItemId} + 1);
      }
      if (token[0] == '-' || value > kMaxItemId) {
        return {std::nullopt, "item id out of range"};
      }
      row.push_back(static_cast<Item>(value));
      i = j;
    }
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    if (!row.empty()) rows.push_back(std::move(row));
    begin = end + 1;
  }
  return {std::move(rows), ""};
}

std::uint64_t Word(const Bytes& b, std::size_t index) {
  std::uint64_t v = 0;
  std::memcpy(&v, b.data() + index * sizeof(v), sizeof(v));
  return v;
}

// Overwrites a header or offset word with a boundary value. Words 1 and 2
// are the transaction and item counts, words 3.. the offsets.
void MutateBinaryWord(Bytes& b, Prng& rng) {
  const std::size_t words = b.size() / sizeof(std::uint64_t);
  if (words < 4) return;
  const std::uint64_t items = Word(b, 2);
  const std::uint64_t values[] = {0,
                                  items - 1,
                                  items,
                                  items + 1,
                                  b.size(),
                                  std::uint64_t{1} << 63,
                                  ~std::uint64_t{0}};
  const std::uint64_t v = values[rng.NextBounded(std::size(values))];
  const std::size_t index =
      1 + rng.NextBounded(std::min<std::uint64_t>(words - 1, Word(b, 1) + 3));
  std::memcpy(b.data() + index * sizeof(v), &v, sizeof(v));
}

// Binary mutants draw bytes uniformly and also hit the header and offset
// words; text mutants mostly draw bytes the grammar cares about.
const testing::MutationSpace kBinarySpace{"", MutateBinaryWord};
const testing::MutationSpace kTextSpace{"0123456789 \t\r\n\v\f+-x", {}};

class ReaderFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pam_reader_fuzz_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    std::vector<std::filesystem::path> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(PAM_READER_CORPUS_DIR)) {
      files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& file : files) {
      if (file.extension() == ".bin") binary_seeds_.push_back(ReadAll(file));
      if (file.extension() == ".txt") text_seeds_.push_back(ReadAll(file));
    }
    ASSERT_GE(binary_seeds_.size(), 3u);
    ASSERT_GE(text_seeds_.size(), 3u);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  // Each check returns whether the input loaded.
  bool CheckBinary(const Bytes& input, const std::string& context) {
    WriteAll(Path("in.bin"), input);
    auto loaded = ReadBinary(Path("in.bin"));
    if (!loaded.ok()) {
      EXPECT_FALSE(loaded.status().message().empty()) << context;
      return false;
    }
    EXPECT_TRUE(StructurallyValid(loaded.value())) << context;
    EXPECT_TRUE(WriteBinary(loaded.value(), Path("out.bin")).ok());
    EXPECT_EQ(ReadAll(Path("out.bin")), input) << context;
    return true;
  }

  bool CheckText(const Bytes& input, const std::string& context) {
    WriteAll(Path("in.txt"), input);
    auto loaded = ReadText(Path("in.txt"));
    const OracleResult want = TextOracle(input);
    EXPECT_EQ(loaded.ok(), want.rows.has_value())
        << context << " reader: " << loaded.status().message();
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().message().rfind(want.error, 0), 0u)
          << context << " reader: " << loaded.status().message()
          << "; oracle: " << want.error;
      return false;
    }
    EXPECT_TRUE(StructurallyValid(loaded.value())) << context;
    EXPECT_EQ(RowsOf(loaded.value()), want.rows.value_or(Rows{})) << context;
    return true;
  }

  std::filesystem::path dir_;
  std::vector<Bytes> binary_seeds_;
  std::vector<Bytes> text_seeds_;
};

TEST_F(ReaderFuzzTest, OracleFollowsTheDocumentedGrammar) {
  EXPECT_EQ(TextOracle("3 1 2\n\n7\t7 5\r\n").rows, (Rows{{1, 2, 3}, {5, 7}}));
  EXPECT_EQ(TextOracle("+4 004\n16777215").rows, (Rows{{4}, {16777215}}));
  EXPECT_EQ(TextOracle(" \v\f\r\n").rows, Rows{});
  for (const char* bad : {"1 2 99999999999999999999999", "1 2 16777216",
                          "-0", "4 -12"}) {
    EXPECT_EQ(TextOracle(bad).error, "item id out of range") << bad;
  }
  for (const char* bad : {"5 -", "1+2", "+", "++1", "-+1", "0x1", "1 a"}) {
    EXPECT_EQ(TextOracle(bad).error, "malformed line") << bad;
  }
}

TEST_F(ReaderFuzzTest, EverySeedLoads) {
  for (const Bytes& seed : binary_seeds_) {
    EXPECT_TRUE(CheckBinary(seed, "seed " + Printable(seed)));
  }
  for (const Bytes& seed : text_seeds_) {
    EXPECT_TRUE(CheckText(seed, "seed " + Printable(seed)));
  }
}

TEST_F(ReaderFuzzTest, BinaryMutantsFailCleanlyOrRoundTrip) {
  Prng rng(0x5eedb1);
  int loaded = 0;
  for (int trial = 0; trial < kMutantsPerReader && !HasFailure(); ++trial) {
    const Bytes mutant = testing::Mutate(binary_seeds_, kBinarySpace, rng);
    loaded += CheckBinary(mutant, "trial " + std::to_string(trial) +
                                      " input " + Printable(mutant));
  }
  // A mutator that only ever breaks the file, or never does, tests little.
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kMutantsPerReader);
}

TEST_F(ReaderFuzzTest, TextMutantsLoadExactlyAsTheGrammarSays) {
  Prng rng(0x5eed7e);
  int loaded = 0;
  for (int trial = 0; trial < kMutantsPerReader && !HasFailure(); ++trial) {
    const Bytes mutant = testing::Mutate(text_seeds_, kTextSpace, rng);
    loaded += CheckText(mutant, "trial " + std::to_string(trial) +
                                    " input \"" + Printable(mutant) + "\"");
  }
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kMutantsPerReader);
}

}  // namespace
}  // namespace pam
