// pam_gen: generate IBM-Quest-style synthetic market-basket data (the
// T..I..D.. datasets of Agrawal & Srikant used by the paper's evaluation).
//
//   pam_gen --transactions 100000 --items 1000 --avg-len 15
//           --pattern-len 6 --patterns 2000 --seed 7
//           --output t15i6.bin [--text]
//
// Writes the binary format by default (see pam/tdb/io.h); --text writes
// whitespace-separated item ids, one transaction per line.

#include <cstdio>

#include "pam/datagen/quest_gen.h"
#include "pam/tdb/io.h"
#include "pam/util/flags.h"
#include "pam/util/timer.h"

namespace {

constexpr const char* kUsage = R"(usage: pam_gen [flags]
  --transactions N   number of transactions (default 10000)
  --items N          distinct items (default 1000)
  --avg-len T        average transaction length (default 15)
  --pattern-len I    average pattern length (default 6)
  --patterns L       size of the pattern pool (default 2000)
  --correlation C    cross-pattern correlation (default 0.5)
  --corruption C     mean corruption level (default 0.5)
  --hot-items H      skewed-prefix mode: size of the hot item prefix
                     (default 0 = off)
  --hot-mass F       probability an item draw lands in the hot prefix
                     (default 0; needs --hot-items)
  --seed S           PRNG seed (default 1)
  --output PATH      output file (required)
  --text             write the text format instead of binary
)";

}  // namespace

int main(int argc, char** argv) {
  pam::FlagParser flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(), kUsage);
    return 2;
  }
  const std::vector<std::string> known = {
      "transactions", "items",       "avg-len",    "pattern-len",
      "patterns",     "correlation", "corruption", "seed",
      "output",       "text",        "help",       "hot-items",
      "hot-mass"};
  for (const std::string& f : flags.UnknownFlags(known)) {
    std::fprintf(stderr, "error: unknown flag --%s\n%s", f.c_str(), kUsage);
    return 2;
  }
  if (flags.GetBool("help", false) || !flags.Has("output")) {
    std::fputs(kUsage, flags.Has("output") ? stdout : stderr);
    return flags.GetBool("help", false) ? 0 : 2;
  }

  pam::QuestConfig config;
  config.num_transactions =
      static_cast<std::size_t>(flags.GetInt("transactions", 10000));
  config.num_items = static_cast<pam::Item>(flags.GetInt("items", 1000));
  config.avg_transaction_len = flags.GetDouble("avg-len", 15.0);
  config.avg_pattern_len = flags.GetDouble("pattern-len", 6.0);
  config.num_patterns =
      static_cast<std::size_t>(flags.GetInt("patterns", 2000));
  config.correlation = flags.GetDouble("correlation", 0.5);
  config.corruption_mean = flags.GetDouble("corruption", 0.5);
  config.hot_items = static_cast<pam::Item>(flags.GetInt("hot-items", 0));
  config.hot_item_mass = flags.GetDouble("hot-mass", 0.0);
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  if (!flags.error().empty()) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(), kUsage);
    return 2;
  }

  pam::WallTimer timer;
  pam::TransactionDatabase db = pam::GenerateQuest(config);
  const std::string path = flags.GetString("output", "");
  const pam::Status status = flags.GetBool("text", false)
                                 ? pam::WriteText(db, path)
                                 : pam::WriteBinary(db, path);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.message().c_str());
    return 1;
  }
  std::printf(
      "wrote %zu transactions (%zu items, avg length %.2f) to %s in "
      "%.2fs\n",
      db.size(), db.NumItems(), db.AverageLength(), path.c_str(),
      timer.Seconds());
  return 0;
}
