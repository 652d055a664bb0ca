#include "pam/tdb/io.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "testing/random_db.h"

namespace pam {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pam_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

void ExpectSameDb(const TransactionDatabase& a, const TransactionDatabase& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    ItemSpan ta = a.Transaction(t);
    ItemSpan tb = b.Transaction(t);
    ASSERT_EQ(std::vector<Item>(ta.begin(), ta.end()),
              std::vector<Item>(tb.begin(), tb.end()))
        << "transaction " << t;
  }
}

TEST_F(IoTest, TextRoundTrip) {
  TransactionDatabase db = testing::RandomDb(200, 50, 10, 3);
  ASSERT_TRUE(WriteText(db, Path("db.txt")).ok());
  auto loaded = ReadText(Path("db.txt"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ExpectSameDb(db, loaded.value());
}

TEST_F(IoTest, BinaryRoundTrip) {
  TransactionDatabase db = testing::RandomDb(200, 50, 10, 4);
  ASSERT_TRUE(WriteBinary(db, Path("db.bin")).ok());
  auto loaded = ReadBinary(Path("db.bin"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ExpectSameDb(db, loaded.value());
}

TEST_F(IoTest, TextReaderSkipsBlankLinesAndSorts) {
  std::ofstream out(Path("manual.txt"));
  out << "3 1 2\n\n7 7 5\n";
  out.close();
  auto loaded = ReadText(Path("manual.txt"));
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  ItemSpan t0 = loaded->Transaction(0);
  EXPECT_EQ(std::vector<Item>(t0.begin(), t0.end()),
            (std::vector<Item>{1, 2, 3}));
  ItemSpan t1 = loaded->Transaction(1);
  EXPECT_EQ(std::vector<Item>(t1.begin(), t1.end()),
            (std::vector<Item>{5, 7}));
}

TEST_F(IoTest, MissingFileFailsCleanly) {
  auto loaded = ReadText(Path("does_not_exist.txt"));
  EXPECT_FALSE(loaded.ok());
  auto loaded_bin = ReadBinary(Path("does_not_exist.bin"));
  EXPECT_FALSE(loaded_bin.ok());
}

TEST_F(IoTest, BinaryRejectsBadMagic) {
  std::ofstream out(Path("junk.bin"), std::ios::binary);
  const char garbage[32] = {1, 2, 3};
  out.write(garbage, sizeof(garbage));
  out.close();
  auto loaded = ReadBinary(Path("junk.bin"));
  EXPECT_FALSE(loaded.ok());
}

TEST_F(IoTest, BinaryRejectsTruncation) {
  TransactionDatabase db = testing::RandomDb(50, 20, 8, 5);
  ASSERT_TRUE(WriteBinary(db, Path("full.bin")).ok());
  // Copy all but the last 16 bytes.
  std::ifstream in(Path("full.bin"), std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::ofstream out(Path("cut.bin"), std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 16));
  out.close();
  auto loaded = ReadBinary(Path("cut.bin"));
  EXPECT_FALSE(loaded.ok());
}

// Ids above kMaxItemId must be refused at the reader, because NumItems()
// sizes per-item arrays: "-1" parses as 2^64 - 1, and 4000000000 or
// 99999999999 (which does not fit an Item) would each ask for gigabytes.
TEST_F(IoTest, TextRejectsOutOfRangeItems) {
  for (const char* line : {"1 2 -1", "1 2 4000000000", "1 2 99999999999",
                           "1 2 16777216", "1 2 99999999999999999999999"}) {
    std::ofstream out(Path("bad.txt"));
    out << "3 4\n" << line << "\n";
    out.close();
    auto loaded = ReadText(Path("bad.txt"));
    ASSERT_FALSE(loaded.ok()) << line;
    EXPECT_NE(loaded.status().message().find("item id out of range"),
              std::string::npos)
        << loaded.status().message();
  }
  std::ofstream out(Path("edge.txt"));
  out << "0 " << kMaxItemId << "\n";
  out.close();
  auto edge = ReadText(Path("edge.txt"));
  ASSERT_TRUE(edge.ok()) << edge.status().message();
  EXPECT_EQ(edge->NumItems(), std::size_t{kMaxItemId} + 1);
}

TEST_F(IoTest, BinaryRejectsOutOfRangeItems) {
  for (const Item last : {kMaxItemId + 1, Item{4000000000u}, ~Item{0}}) {
    TransactionDatabase db;
    db.Add({1, 2});
    db.Add({1, 2, last});
    ASSERT_TRUE(WriteBinary(db, Path("bad.bin")).ok());
    auto loaded = ReadBinary(Path("bad.bin"));
    ASSERT_FALSE(loaded.ok()) << last;
    EXPECT_NE(loaded.status().message().find("item id out of range"),
              std::string::npos)
        << loaded.status().message();
  }
  TransactionDatabase edge;
  edge.Add({0, kMaxItemId});
  ASSERT_TRUE(WriteBinary(edge, Path("edge.bin")).ok());
  auto loaded = ReadBinary(Path("edge.bin"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->NumItems(), std::size_t{kMaxItemId} + 1);
}

// A middle offset past the items passes the size checks; the whole offset
// array must be refused before row 0 is read as 1000 items of a 5-item
// buffer.
TEST_F(IoTest, BinaryRejectsOffsetPastItems) {
  std::ofstream out(Path("stretched.bin"), std::ios::binary);
  const std::uint64_t words[] = {0x50414d5442303146ULL, 2, 5, 0, 1000, 5};
  const std::uint32_t items[] = {1, 2, 3, 4, 5};
  out.write(reinterpret_cast<const char*>(words), sizeof(words));
  out.write(reinterpret_cast<const char*>(items), sizeof(items));
  out.close();
  auto loaded = ReadBinary(Path("stretched.bin"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(),
            "non-monotone offsets in " + Path("stretched.bin"));
}

TEST_F(IoTest, TextRefusesAnEmptyTransaction) {
  // The text grammar cannot spell an empty row (ReadText skips blank
  // lines), so writing one would shrink |D| on the way back.
  Result<TransactionDatabase> db =
      TransactionDatabase::FromCsr({0, 2, 2, 3}, {1, 2, 5});
  ASSERT_TRUE(db.ok()) << db.status().message();
  const Status written = WriteText(db.value(), Path("holey.txt"));
  ASSERT_FALSE(written.ok());
  EXPECT_NE(written.message().find("transaction 1 is empty"),
            std::string::npos)
      << written.message();
  EXPECT_FALSE(std::filesystem::exists(Path("holey.txt")));
}

TEST_F(IoTest, EmptyDatabaseRoundTrips) {
  TransactionDatabase db;
  ASSERT_TRUE(WriteBinary(db, Path("empty.bin")).ok());
  auto loaded = ReadBinary(Path("empty.bin"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0u);
}

}  // namespace
}  // namespace pam
