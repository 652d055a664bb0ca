// pam_e2e: end-to-end and per-layer benchmark of the pam miner.
//
//   pam_e2e --workload deep_t15i6|scan_t10i4 --seed N --seconds S
//           --trace 0|1 [--tiny] [--tamper]
//
// The harness generates the workload's basket file from the seed, then
// drives the program only through that file: ReadBinary, the
// MiningSession entry point, and the MiningServer behind its TCP front
// end. Scratch files go under .bench_work/. --trace 0 prints the
// end-to-end metrics, --trace 1 the per-layer ones (e2ebench/NOTES.md
// defines each). Every operation's output is checked; the last stdout
// line is the JSON result, and the exit code is non-zero when any check
// failed. --tiny shrinks every input for the self-test, and --tamper
// corrupts one result to prove the checks catch it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness/check.h"
#include "harness/common.h"
#include "harness/layers.h"
#include "harness/serve.h"
#include "pam/api/session.h"
#include "pam/datagen/quest_gen.h"
#include "pam/tdb/io.h"
#include "pam/util/prng.h"

namespace e2e {
namespace {

using pam::MiningAlgorithm;
using pam::MiningReport;
using pam::MiningRequest;
using pam::TransactionDatabase;
using pam::serve::ResponseFrame;
using pam::serve::ServeStatus;

constexpr std::uint64_t kDefaultSeed = 1997;
constexpr int kRanks = 2;  // every parallel formulation runs at P=2
constexpr int kMinSetups = 3;         // set-ups before the warm-up
constexpr double kSetupShare = 0.1;   // set-ups' share of the timed loop
constexpr int kMinReps = 3;
constexpr int kMaxReps = 100;
constexpr std::size_t kHitsPerRep = 50;     // closed-loop repeats per rep
constexpr std::size_t kTracedHits = 1000;   // a p99 with ten samples beyond
constexpr int kTracedMines = 5;             // fresh mines of the traced run
constexpr double kLoadBudgetS = 0.05;       // repeated loads per rep

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 20.0;
  bool trace = false;
  bool tiny = false;
  bool tamper = false;

  std::string Dir() const { return ".bench_work/" + workload; }
};

struct Formulation {
  MiningAlgorithm algorithm;
  const char* metric;  // end-to-end metric name
  const char* key;     // per-layer name
};
constexpr Formulation kFormulations[] = {
    {MiningAlgorithm::kSerial, "serial_s", "serial"},
    {MiningAlgorithm::kCD, "cd_s", "cd"},
    {MiningAlgorithm::kDD, "dd_s", "dd"},
    {MiningAlgorithm::kDDComm, "ddcomm_s", "ddcomm"},
    {MiningAlgorithm::kIDD, "idd_s", "idd"},
    {MiningAlgorithm::kHD, "hd_s", "hd"},
};
constexpr std::size_t kNumFormulations = std::size(kFormulations);

// One workload: the generator draw behind its basket file and the request
// mined over it.
struct Problem {
  pam::QuestConfig data;  // data.seed is the fixed base draw
  double minsup = 0.0;
  bool rules = false;
  double min_confidence = 0.5;
};

// Base generator seed of every workload. The workload seed does not pick
// a new generator draw: independent Quest draws change the mining work
// several-fold (NOTES.md, "Seeds"), so it relabels the items and reorders
// the transactions of this one draw instead.
constexpr std::uint64_t kBaseSeed = 1997;

Problem DeepProblem(bool tiny) {
  Problem p;
  p.data = pam::QuestT15I6(tiny ? 3000 : 20000, kBaseSeed);
  p.data.num_patterns = 400;
  p.minsup = 0.005;
  p.rules = true;
  return p;
}

Problem ScanProblem(bool tiny) {
  Problem p;
  p.data = pam::QuestT10I4(tiny ? 40000 : 2000000, kBaseSeed);
  p.minsup = 0.0125;
  p.rules = true;
  return p;
}

// The base draw with its items renamed by a seeded permutation and its
// transactions in a seeded order: a different file with the same itemset
// structure (counts, rules) for every seed.
TransactionDatabase Relabel(const TransactionDatabase& base,
                            std::uint64_t seed) {
  pam::Prng rng(seed);
  const auto shuffle = [&rng](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.NextBounded(i)]);
    }
  };
  std::vector<pam::Item> name(base.NumItems());
  std::iota(name.begin(), name.end(), pam::Item{0});
  shuffle(name);
  std::vector<std::size_t> order(base.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  shuffle(order);
  TransactionDatabase out;
  std::vector<pam::Item> tx;
  for (std::size_t t : order) {
    tx.clear();
    for (pam::Item it : base.Transaction(t)) tx.push_back(name[it]);
    out.Add(tx);
  }
  return out;
}

// Serial-result digests recorded at full scale for the default seed and
// the held-out seed (NOTES.md).
std::optional<std::uint64_t> RecordedDigest(const std::string& name,
                                            std::uint64_t seed) {
  static const std::map<std::pair<std::string, std::uint64_t>,
                        std::uint64_t>
      kDigests = {
          {{"deep_t15i6", 1997}, 0x981164cd92cefe69ull},
          {{"deep_t15i6", 2718}, 0x744919ed76303052ull},
          {{"scan_t10i4", 1997}, 0x376adb2d8e0a59e4ull},
          {{"scan_t10i4", 2718}, 0xd8b1e441f14f13c6ull},
      };
  auto it = kDigests.find({name, seed});
  if (it == kDigests.end()) return std::nullopt;
  return it->second;
}

MiningRequest SoloRequest(const Problem& p, MiningAlgorithm algorithm) {
  MiningRequest req;
  req.algorithm = algorithm;
  req.num_ranks = kRanks;
  req.config.apriori.minsup_fraction = p.minsup;
  req.generate_rules = p.rules;
  req.min_confidence = p.min_confidence;
  return req;
}

bool SameResult(const MiningReport& a, const MiningReport& b) {
  return SameFrequent(a.frequent, b.frequent) && SameRules(a.rules, b.rules);
}

bool SameResult(const ResponseFrame& f, const MiningReport& ref) {
  return f.status == ServeStatus::kOk &&
         SameFrequent(f.frequent, ref.frequent) &&
         SameRules(f.rules, ref.rules);
}

std::optional<TransactionDatabase> Load(const std::string& path,
                                        Tally& tally) {
  pam::Result<TransactionDatabase> db = pam::ReadBinary(path);
  tally.Attempt();
  if (!db.ok()) {
    tally.Fail("load " + path + ": " + db.status().message());
    return std::nullopt;
  }
  return std::move(db.value());
}

// Holds a fresh serial result to the independent recount and, for the
// named seeds, to the recorded digest; prints the workload property line.
// The recount's threshold is derived here from the fraction, not taken
// from the program, so a change to the program's rounding fails too.
void VerifyReference(const Options& o, const Problem& p,
                     const TransactionDatabase& db, const MiningReport& ref,
                     Tally& tally) {
  const std::string& name = o.workload;
  const auto minsup = static_cast<pam::Count>(
      std::ceil(p.minsup * static_cast<double>(db.size())));
  if (minsup != ref.minsup_count) {
    tally.Fail(name + " minsup count " + std::to_string(ref.minsup_count) +
               ", expected " + std::to_string(minsup));
  }
  const std::string diff =
      VerifyWithOracle(db, minsup, ref.frequent,
                       p.rules ? &ref.rules : nullptr, p.min_confidence);
  if (!diff.empty()) tally.Fail(name + " serial output: " + diff);
  const std::uint64_t digest = ResultDigest(ref.frequent, ref.rules);
  std::printf("# %s seed %llu: digest 0x%016llx, %zu itemsets, largest "
              "size %d, %zu rules, %zu passes\n",
              name.c_str(), static_cast<unsigned long long>(o.seed),
              static_cast<unsigned long long>(digest),
              ref.frequent.TotalCount(), ref.frequent.MaxK(),
              ref.rules.size(), ref.metrics.per_pass.size());
  const std::optional<std::uint64_t> recorded =
      o.tiny ? std::nullopt : RecordedDigest(name, o.seed);
  if (recorded && *recorded != digest) {
    tally.Fail(name + " serial digest differs from the one recorded for "
               "seed " + std::to_string(o.seed));
  }
}

// Latencies of served requests, split by how the server answered (the
// response's own from_result_cache flag).
struct Served {
  std::vector<double> hit_ms, mine_ms, all_ms;
  std::vector<double> hit_queue_ms, mine_queue_ms, mine_service_ms;

  void Record(const ResponseFrame& f, double latency_ms) {
    all_ms.push_back(latency_ms);
    if (f.from_result_cache) {
      hit_ms.push_back(latency_ms);
      hit_queue_ms.push_back(f.queue_seconds * 1e3);
    } else {
      mine_ms.push_back(latency_ms);
      mine_queue_ms.push_back(f.queue_seconds * 1e3);
      mine_service_ms.push_back(f.service_seconds * 1e3);
    }
  }
};

// ---------------------------------------------------------------------------
// Per-layer metrics of the traced run.

void AddServeLayer(ServeStack& stack, const Served& served,
                   const ResponseFrame& sample, const std::string& basket,
                   std::uint64_t* tag, Tally& tally, Report& report) {
  report.Add("serve.req_p99_ms", Percentile(served.all_ms, 0.99), "ms");
  report.Add("serve.hit_queue_ms", Median(served.hit_queue_ms), "ms");
  report.Add("serve.mine_queue_ms", Median(served.mine_queue_ms), "ms");
  report.Add("serve.mine_service_ms", Median(served.mine_service_ms), "ms");
  std::vector<double> rtt_us;
  pam::serve::ServerStats stats;
  for (int i = 0; i < 21; ++i) {
    pam::Result<pam::serve::ServerStats> got = pam::Status::Ok();
    rtt_us.push_back(TimeIt([&] { got = stack.Stats((*tag)++); }) * 1e6);
    if (tally.Check(got.ok(), "stats frame")) stats = got.value();
  }
  report.Add("serve.stats_rtt_us", Median(rtt_us), "us");
  report.Add("serve.result_resident_mb",
             static_cast<double>(stats.result_resident_bytes) / 1e6, "MB");
  report.Add("serve.result_hit_ratio",
             Ratio(static_cast<double>(stats.result_hits),
                   static_cast<double>(stats.result_hits +
                                       stats.result_misses)),
             "ratio");
  report.Add("serve.dataset_hit_ratio",
             Ratio(static_cast<double>(stats.cache_hits),
                   static_cast<double>(stats.cache_hits + stats.cache_misses)),
             "ratio");
  report.Add("serve.dataset_evictions",
             static_cast<double>(stats.cache_evictions), "count");
  report.Add("serve.dataset_resident_mb",
             static_cast<double>(stats.cache_resident_bytes) / 1e6, "MB");
  report.Add("serve.peak_queue_depth",
             static_cast<double>(stats.peak_queue_depth), "count");

  std::vector<double> encode_us, decode_us;
  for (int i = 0; i < 21; ++i) {
    std::vector<std::byte> frame;
    encode_us.push_back(
        TimeIt([&] { frame = pam::serve::EncodeResponse(sample); }) * 1e6);
    // The decoder takes the body: skip the u32 length + u8 type header.
    const std::span<const std::byte> body(frame.data() + 5, frame.size() - 5);
    pam::Result<ResponseFrame> decoded = pam::Status::Ok();
    decode_us.push_back(
        TimeIt([&] { decoded = pam::serve::DecodeResponse(body); }) * 1e6);
    tally.Check(decoded.ok() &&
                    SameFrequent(decoded.value().frequent, sample.frequent) &&
                    SameRules(decoded.value().rules, sample.rules),
                "response codec round trip");
  }
  report.Add("serve.encode_us", Median(encode_us), "us");
  report.Add("serve.decode_us", Median(decode_us), "us");

  std::vector<double> load_ms;
  for (int i = 0; i < 3; ++i) {
    pam::serve::DatasetCache cold;
    cold.Register("cold", [basket] { return pam::ReadBinary(basket); });
    bool ok = false;
    load_ms.push_back(TimeIt([&] { ok = cold.Get("cold").ok(); }) * 1e3);
    tally.Check(ok, "cold dataset load");
  }
  report.Add("serve.dataset_load_ms", Median(load_ms), "ms");
}

// Every mining-layer metric: the replayed serial pipeline, the
// message-passing replays, and each formulation's counters and timeline.
void AddMiningLayers(const Options& o, const Problem& p,
                     const std::string& basket, const TransactionDatabase& db,
                     const MiningReport& ref, double serial_s, Tally& tally,
                     Report& report) {
  std::vector<SerialReplay> replays;
  double coverage = 1.0;
  for (int i = 0; i < 3; ++i) {
    SpanLog log;
    SerialReplay replay =
        ReplaySerial(basket, SoloRequest(p, MiningAlgorithm::kSerial), log);
    tally.Attempt();
    if (!replay.error.empty()) {
      tally.Fail("replay load: " + replay.error);
      return;
    }
    if (!SameFrequent(replay.frequent, ref.frequent) ||
        !SameRules(replay.rules, ref.rules)) {
      tally.Fail("replayed serial pipeline differs from MiningSession");
    }
    coverage = std::min(coverage, log.ChildCoverage(replay.root_span));
    if (i == 0) log.WriteJson(o.Dir() + "/replay.spans.json");
    replays.push_back(std::move(replay));
  }
  const auto med = [&](double SerialReplay::*field) {
    std::vector<double> v;
    for (const SerialReplay& r : replays) v.push_back(r.*field);
    return Median(v);
  };
  const SerialReplay& r = replays.back();
  const double wall = med(&SerialReplay::wall_s);
  const double read_s = med(&SerialReplay::read_s);
  const double subset_s = med(&SerialReplay::subset_s);
  const double triangle_s = med(&SerialReplay::triangle_s);
  report.Add("tdb.read_s", read_s, "s");
  report.Add("tdb.read_mb_per_s", Ratio(r.read_mb, read_s), "MB/s");
  report.Add("tdb.read_share", Ratio(read_s, wall), "ratio");
  report.Add("core.pass1_s", med(&SerialReplay::pass1_s), "s");
  report.Add("core.candgen_s", med(&SerialReplay::candgen_s), "s");
  report.Add("core.candidates", static_cast<double>(r.candidates), "count");
  report.Add("core.rulegen_s", med(&SerialReplay::rulegen_s), "s");
  report.Add("core.rules", static_cast<double>(r.rules.size()), "count");
  // Counting time as one figure, split by shares: on scan_t10i4 the tree
  // never runs, and a time that is always 0 says nothing per run.
  const double build_s = med(&SerialReplay::build_s);
  const double count_s = triangle_s + build_s + subset_s;
  report.Add("hashtree.count_s", count_s, "s");
  report.Add("hashtree.count_ns_per_tx",
             Ratio(count_s * 1e9, static_cast<double>(r.counted_transactions)),
             "ns");
  report.Add("hashtree.triangle_share", Ratio(triangle_s, wall), "ratio");
  report.Add("hashtree.build_share", Ratio(build_s, wall), "ratio");
  report.Add("hashtree.subset_share", Ratio(subset_s, wall), "ratio");
  report.Add("hashtree.build_inserts", static_cast<double>(r.build_inserts),
             "count");
  report.Add("hashtree.traversal_steps",
             static_cast<double>(r.traversal_steps), "count");
  report.Add("hashtree.leaf_visits", static_cast<double>(r.leaf_visits),
             "count");
  report.Add("hashtree.leaf_checks", static_cast<double>(r.leaf_checks),
             "count");
  report.Add("hashtree.hit_ratio",
             Ratio(static_cast<double>(r.count_increments),
                   static_cast<double>(r.leaf_checks)),
             "ratio");

  // The first parallel run in a process is slow, so each replay gets an
  // untimed warm-up before the median of three.
  const auto median_of_three = [](const auto& fn) {
    fn();
    return Median({fn(), fn(), fn()});
  };
  const std::size_t page_bytes = pam::ParallelConfig{}.page_bytes;
  const double ring_s =
      median_of_three([&] { return RingReplaySeconds(db, page_bytes); });
  const double exchange_s =
      median_of_three([&] { return ExchangeReplaySeconds(db, page_bytes); });
  const double allreduce_s =
      AllReduceSeconds(std::max<std::uint64_t>(1, r.pair_candidates), 21);
  pam::MiningSession session;
  const double idd_s = median_of_three([&] {
    MiningReport idd;
    const double s = TimeIt(
        [&] { idd = session.Run(SoloRequest(p, MiningAlgorithm::kIDD), db); });
    tally.Check(SameResult(idd, ref), "IDD (traced run) differs from serial");
    return s;
  });
  report.Add("mp.ring_s", ring_s, "s");
  report.Add("mp.ring_share", Ratio(ring_s, idd_s), "ratio");
  report.Add("mp.exchange_s", exchange_s, "s");
  report.Add("mp.allreduce_s", allreduce_s, "s");

  for (const Formulation& f : kFormulations) {
    if (f.algorithm == MiningAlgorithm::kSerial) continue;
    MiningRequest req = SoloRequest(p, f.algorithm);
    req.collect_timeline = true;
    const MiningReport run = session.Run(req, db);
    tally.Check(SameResult(run, ref),
                std::string(f.key) + " (timeline run) differs from serial");
    const ParallelLayer layer = MeasureParallel(run);
    const std::string prefix = std::string("parallel.") + f.key + ".";
    report.Add(prefix + "bytes_sent", layer.bytes_sent, "B");
    report.Add(prefix + "messages", layer.messages, "count");
    report.Add(prefix + "reduction_words", layer.reduction_words, "count");
    report.Add(prefix + "imbalance", layer.imbalance, "ratio");
    report.Add(prefix + "comm_wait_s", layer.comm_wait_s, "s");
  }
  report.Add("trace.coverage", coverage, "ratio");
  report.Add("trace.overhead", Ratio(wall - read_s, serial_s), "ratio");
}

// What one timed rep measured.
struct RepSample {
  std::vector<double> load_s;  // each load of the basket file
  std::vector<double> alg_s = std::vector<double>(kNumFormulations, 0.0);
  Served served;
};

// ---------------------------------------------------------------------------
// One run of a workload: solo reps through MiningSession, each followed by
// a closed-loop block of requests to the server.

class Workload {
 public:
  Workload(const Options& o, Problem problem)
      : o_(o),
        problem_(std::move(problem)),
        basket_(o.Dir() + "/" + o.workload + ".basket") {}

  ~Workload() {
    stack_.reset();
    std::error_code ec;
    std::filesystem::remove(basket_, ec);  // regenerated by every run
  }
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  Tally& tally() { return tally_; }
  Report& report() { return report_; }

  void Measure() {
    // The first set-up's stack serves the run. The others are dropped
    // (their tear-down untimed) and only add samples to setup_s.
    std::vector<double> setup_s;
    stack_ = TimedSetUp(setup_s);
    if (!stack_) return;
    for (int i = 1; i < kMinSetups; ++i) {
      if (!TimedSetUp(setup_s)) return;
    }
    Rep(-1, nullptr);  // warm-up: checked, not timed
    ServeBlock(-1, kHitsPerRep, nullptr);
    std::vector<RepSample> reps;
    std::vector<double> rep_s;
    const Clock::time_point begin = Clock::now();
    for (int rep = 0; rep < kMaxReps && reference_; ++rep) {
      // More set-ups before each rep, until they fill kSetupShare of the
      // time so far. A set-up that is short next to a rep (deep_t15i6)
      // is thereby sampled across the whole run, so host drift averages
      // out of setup_s as it does out of the reps.
      while (std::accumulate(setup_s.begin(), setup_s.end(), 0.0) <
             kSetupShare * SecondsBetween(begin, Clock::now())) {
        if (!TimedSetUp(setup_s)) return;
      }
      RepSample& sample = reps.emplace_back();
      rep_s.push_back(TimeIt([&] {
        Rep(rep, &sample);
        ServeBlock(rep, kHitsPerRep, &sample.served);
      }));
      const double elapsed = SecondsBetween(begin, Clock::now());
      if (rep + 1 >= kMinReps && elapsed + Median(rep_s) > o_.seconds) break;
    }
    std::vector<double> load_s, hit_ms, mine_ms;
    std::vector<std::vector<double>> alg_s(kNumFormulations);
    for (const RepSample& r : reps) {
      load_s.insert(load_s.end(), r.load_s.begin(), r.load_s.end());
      for (std::size_t f = 0; f < kNumFormulations; ++f) {
        alg_s[f].push_back(r.alg_s[f]);
      }
      hit_ms.insert(hit_ms.end(), r.served.hit_ms.begin(),
                    r.served.hit_ms.end());
      mine_ms.insert(mine_ms.end(), r.served.mine_ms.begin(),
                     r.served.mine_ms.end());
    }
    std::printf("# %zu setups, %zu reps, %zu loads, %zu hits, %zu mines\n",
                setup_s.size(), reps.size(), load_s.size(), hit_ms.size(),
                mine_ms.size());
    report_.Add("setup_s", Median(setup_s), "s");
    report_.Add("load_s", Median(load_s), "s");
    for (std::size_t f = 0; f < kNumFormulations; ++f) {
      report_.Add(kFormulations[f].metric, Median(alg_s[f]), "s");
    }
    report_.Add("hit_p50_ms", Median(hit_ms), "ms");
    report_.Add("mine_p50_ms", Median(mine_ms), "ms");
    report_.Add("peak_rss_mb", PeakRssMb(), "MB");
  }

  void Trace() {
    const double steal_start = HostStealSeconds();
    stack_ = SetUp();
    if (!stack_) return;
    // An untimed warm-up rep (it also verifies the reference), then the
    // untraced serial baseline.
    Rep(-1, nullptr);
    if (!reference_) return;
    std::optional<TransactionDatabase> db = Load(basket_, tally_);
    if (!db) return;
    std::vector<double> serial_s;
    for (int i = 0; i < 3; ++i) {
      MiningReport serial;
      serial_s.push_back(TimeIt([&] {
        serial = session_.Run(SoloRequest(problem_, MiningAlgorithm::kSerial),
                              *db);
      }));
      tally_.Check(SameResult(serial, *reference_),
                   "serial differs between runs");
    }
    AddMiningLayers(o_, problem_, basket_, *db, *reference_, Median(serial_s),
                    tally_, report_);
    db.reset();
    // As in Measure, the warm-up block loads the dataset, so the traced
    // mines find it resident; the cold load is serve.dataset_load_ms.
    ServeBlock(-1, kHitsPerRep, nullptr);
    Served served;
    for (int block = 0; block < kTracedMines; ++block) {
      ServeBlock(block, kTracedHits / kTracedMines, &served);
    }
    pam::Result<ResponseFrame> sample =
        stack_->Call(tag_++, ServedRequest(0));
    if (!tally_.Check(sample.ok() && SameResult(sample.value(), *reference_),
                      "sample response")) {
      return;
    }
    AddServeLayer(*stack_, served, sample.value(), basket_, &tag_, tally_,
                  report_);
    // In clock ticks, the unit /proc/stat counts in: a whole number that
    // can repeat exactly between runs, so it is reported as a count.
    report_.Add("host.steal_ticks",
                std::round((HostStealSeconds() - steal_start) * ClockTicks()),
                "count");
  }

 private:
  // Generates and writes the basket file, starts the server and its TCP
  // front end, and connects a client. Null when any step failed. Every
  // set-up writes the same bytes, so rewriting the file under a running
  // stack changes nothing it serves.
  std::unique_ptr<ServeStack> SetUp() {
    const TransactionDatabase db =
        Relabel(pam::GenerateQuest(problem_.data), o_.seed);
    const pam::Status written = pam::WriteBinary(db, basket_);
    if (!tally_.Check(written.ok(), "write " + basket_ + ": " +
                                        written.message())) {
      return nullptr;
    }
    pam::serve::ServerConfig c;
    c.pool_ranks = kRanks;
    c.workers = 2;
    c.max_queue = 4096;  // quotas stay unlimited: nothing is refused
    c.result_cache = true;
    // Room for a few results, so the entries the reps leave behind do not
    // grow the resident set with the number of reps.
    c.result_cache_budget_bytes = 4 << 20;
    auto stack = std::make_unique<ServeStack>(c, "data", basket_);
    if (!tally_.Check(stack->error().empty(),
                      "server start-up: " + stack->error())) {
      return nullptr;
    }
    return stack;
  }

  // One set-up, its time appended to `setup_s`. The returned stack is
  // torn down by the caller, outside the timing.
  std::unique_ptr<ServeStack> TimedSetUp(std::vector<double>& setup_s) {
    std::unique_ptr<ServeStack> stack;
    setup_s.push_back(TimeIt([&] { stack = SetUp(); }));
    return stack;
  }

  // The workload's request as served: CD at 2 ranks. A max_k past the
  // deepest level leaves work and output unchanged but gives each rep's
  // fresh mine its own result-cache key.
  MiningRequest ServedRequest(int rep) const {
    MiningRequest req = SoloRequest(problem_, MiningAlgorithm::kCD);
    req.tenant = "bench";
    req.dataset = "data";
    req.config.apriori.max_k = 1000 + rep;
    return req;
  }

  // One rep of the solo path: load the basket file, then every
  // formulation, each output held to the serial reference. A timed rep
  // records into `sample` (null for the warm-up) and prints one line with
  // the host CPU steal it suffered. Loads are short on deep_t15i6, so the
  // rep repeats them until kLoadBudgetS is spent.
  void Rep(int rep, RepSample* sample) {
    const double steal_start = HostStealSeconds();
    std::optional<TransactionDatabase> db;
    double loading = 0.0;
    do {
      const double t_load = TimeIt([&] { db = Load(basket_, tally_); });
      if (!db) return;
      if (sample != nullptr) sample->load_s.push_back(t_load);
      loading += t_load;
    } while (sample != nullptr && loading < kLoadBudgetS);
    std::vector<MiningReport> out(kNumFormulations);
    for (std::size_t j = 0; j < kNumFormulations; ++j) {
      // The order rotates each rep so drift spreads over the formulations.
      const std::size_t f =
          (j + static_cast<std::size_t>(rep + 1)) % kNumFormulations;
      const MiningRequest req =
          SoloRequest(problem_, kFormulations[f].algorithm);
      const double s = TimeIt([&] { out[f] = session_.Run(req, *db); });
      if (sample != nullptr) sample->alg_s[f] = s;
    }
    if (!reference_) {
      VerifyReference(o_, problem_, *db, out[0], tally_);
      reference_ = out[0];
    }
    if (o_.tamper && !tampered_) {
      Tamper(&out[1].frequent);
      tampered_ = true;
    }
    for (std::size_t f = 0; f < kNumFormulations; ++f) {
      tally_.Check(SameResult(out[f], *reference_),
                   std::string(kFormulations[f].key) + " (rep " +
                       std::to_string(rep) + ") differs from serial");
    }
    if (sample == nullptr) return;
    std::printf("# rep %d: steal %.2f s, load %.4f", rep,
                HostStealSeconds() - steal_start, Median(sample->load_s));
    for (std::size_t f = 0; f < kNumFormulations; ++f) {
      std::printf(" %s %.4f", kFormulations[f].key, sample->alg_s[f]);
    }
    std::printf("\n");
  }

  // The closed-loop block after each rep: one fresh mine of the served
  // request, then `hits` repeats answered from the result cache.
  void ServeBlock(int rep, std::size_t hits, Served* served) {
    Served scratch;
    Served& out = served != nullptr ? *served : scratch;
    const MiningRequest req = ServedRequest(rep);
    for (std::size_t i = 0; i <= hits; ++i) {
      pam::Result<ResponseFrame> got = pam::Status::Ok();
      const double ms = TimeIt([&] { got = stack_->Call(tag_++, req); }) * 1e3;
      if (!tally_.Check(got.ok() && SameResult(got.value(), *reference_),
                        "served request differs from the solo run")) {
        continue;
      }
      tally_.Check(got.value().from_result_cache == (i > 0),
                   i > 0 ? "repeat request missed the result cache"
                         : "fresh request answered from the result cache");
      out.Record(got.value(), ms);
    }
  }

  const Options& o_;
  const Problem problem_;
  const std::string basket_;
  Tally tally_;
  Report report_;
  std::unique_ptr<ServeStack> stack_;
  std::uint64_t tag_ = 1;
  pam::MiningSession session_;
  std::optional<MiningReport> reference_;  // verified serial output
  bool tampered_ = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: pam_e2e --workload deep_t15i6|scan_t10i4 --seed N "
               "--seconds S --trace 0|1 [--tiny] [--tamper]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--tamper") {
      o.tamper = true;
    } else {
      return Usage();
    }
  }
  std::optional<Problem> problem;
  if (o.workload == "deep_t15i6") problem = DeepProblem(o.tiny);
  if (o.workload == "scan_t10i4") problem = ScanProblem(o.tiny);
  if (!problem || o.seconds <= 0.0) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(o.Dir(), ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", o.Dir().c_str(),
                 ec.message().c_str());
    return 1;
  }
  std::printf("# pam_e2e workload=%s seed=%llu seconds=%g trace=%d "
              "ranks=%d host_cores=%u build=%s cxx=%s flags=\"%s\"\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, kRanks,
              std::thread::hardware_concurrency(), PAM_E2E_BUILD_TYPE,
              PAM_E2E_CXX, PAM_E2E_CXX_FLAGS);
  bool correct = false;
  std::string line;
  {
    Workload w(o, *problem);
    if (o.trace) {
      w.Trace();
    } else {
      w.Measure();
    }
    correct = w.tally().failed() == 0 && w.tally().attempted() > 0;
    line = w.report().Line(correct, w.tally().attempted(),
                           w.tally().failed());
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
