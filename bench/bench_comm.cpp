// Transport microbenchmark: zero-copy shared-payload forwarding vs the
// legacy copy-per-hop regime, plus the acceptance scenario for the
// zero-copy rework — the Figure 6 ring pipeline circulating a
// T10.I4.D100K database at P = 8 — and a cross-formulation equivalence
// check (serial vs CD/DD/IDD/HD frequent itemsets must be identical).
// Writes BENCH_comm.json, with the build type and the host core count the
// timings were taken under. Exits non-zero if any formulation disagrees.
//
// "legacy" mode reproduces the pre-payload transport cost model inside the
// current API: every hop receives into an owned vector (one copy out of
// the transport) and re-sends the raw bytes (one copy into a fresh payload
// plus a from-scratch checksum). "zero_copy" forwards the received handle.
//
// Usage: bench_comm [--smoke]   (--smoke shrinks every axis for CI)

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "pam/mp/payload.h"
#include "pam/mp/runtime.h"
#include "pam/parallel/common.h"
#include "pam/util/timer.h"

namespace {

using namespace pam;

// The classic T10.I4 workload (10-item transactions, 4-item patterns,
// 1000 items), as in bench_hashtree_kernel.
QuestConfig RingWorkload(std::size_t n) {
  QuestConfig q;
  q.num_transactions = n;
  q.num_items = 1000;
  q.avg_transaction_len = 10;
  q.avg_pattern_len = 4;
  q.num_patterns = 400;
  q.seed = 1997;
  return q;
}

// ---- Forward-depth sweep -------------------------------------------------

// Every rank seeds one payload of `payload_bytes` and the ring forwards
// for `depth` hops (each rank sends `depth` messages and receives
// `depth`). Returns the best wall time over `reps` repetitions.
double TimeForwardChain(int p, std::size_t payload_bytes, int depth,
                        bool zero_copy, int reps) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    Runtime rt(p);
    WallTimer timer;
    rt.Run([&](Comm& comm) {
      const std::vector<std::byte> seed(
          payload_bytes, std::byte{static_cast<unsigned char>(comm.rank())});
      if (zero_copy) {
        Payload current = Payload::Copy(seed);
        for (int hop = 0; hop < depth; ++hop) {
          comm.Isend(comm.RightNeighbor(), kTagRingData, std::move(current));
          current = comm.RecvPayload(comm.LeftNeighbor(), kTagRingData);
        }
      } else {
        std::vector<std::byte> current = seed;
        for (int hop = 0; hop < depth; ++hop) {
          comm.Isend(comm.RightNeighbor(), kTagRingData,
                     std::span<const std::byte>(current));  // copy + checksum
          current = comm.Recv(comm.LeftNeighbor(), kTagRingData);  // copy out
        }
      }
    });
    const double s = timer.Seconds();
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

struct SweepPoint {
  int p = 0;
  std::size_t payload_bytes = 0;
  int depth = 0;
  double legacy_seconds = 0.0;
  double zero_copy_seconds = 0.0;
};

void AppendSweepJson(std::string* out, const SweepPoint& s) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "    {\"p\": %d, \"payload_bytes\": %zu, \"depth\": %d,\n"
                "     \"legacy_seconds\": %.6f, \"zero_copy_seconds\": %.6f,\n"
                "     \"speedup\": %.3f}",
                s.p, s.payload_bytes, s.depth, s.legacy_seconds,
                s.zero_copy_seconds, s.legacy_seconds / s.zero_copy_seconds);
  *out += buf;
}

// ---- Ring-shift acceptance scenario --------------------------------------

// The pre-change RingShiftAll, shape-for-shape (copy out of the transport
// into an owned Page each hop, re-wrap into a fresh payload on re-send),
// used as the "before" side of the comparison.
std::uint64_t LegacyRingShiftAll(Comm& comm,
                                 const std::vector<Page>& local_pages,
                                 const std::function<void(PageView)>& process) {
  const int p = comm.size();
  if (p == 1) {
    for (const Page& page : local_pages) process(page);
    return 0;
  }
  std::uint64_t rounds = local_pages.size();
  comm.AllReduceMax(std::span<std::uint64_t>(&rounds, 1));
  std::uint64_t bytes_sent = 0;
  const Page empty_page;
  Page sbuf;
  Page rbuf;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    sbuf = round < local_pages.size() ? local_pages[round] : empty_page;
    for (int step = 0; step < p - 1; ++step) {
      RecvRequest req = comm.Irecv(comm.LeftNeighbor(), kTagRingData);
      comm.Isend(comm.RightNeighbor(), kTagRingData,
                 std::span<const std::byte>(
                     reinterpret_cast<const std::byte*>(sbuf.data()),
                     sbuf.size() * sizeof(std::uint32_t)));
      bytes_sent += sbuf.size() * sizeof(std::uint32_t);
      if (!sbuf.empty()) process(sbuf);
      comm.Wait(req);
      rbuf.assign(reinterpret_cast<const std::uint32_t*>(req.data().data()),
                  reinterpret_cast<const std::uint32_t*>(req.data().data() +
                                                         req.data().size()));
      std::swap(sbuf, rbuf);
    }
    if (!sbuf.empty()) process(sbuf);
  }
  return bytes_sent;
}

struct RingScenario {
  std::size_t transactions = 0;
  int p = 0;
  std::size_t page_bytes = 0;
  double legacy_seconds = 0.0;
  double zero_copy_seconds = 0.0;
  std::uint64_t checksum_legacy = 0;  // word-sum over all processed pages
  std::uint64_t checksum_zero_copy = 0;
};

RingScenario TimeRingScenario(const TransactionDatabase& db, int p,
                              std::size_t page_bytes, int reps) {
  RingScenario out;
  out.transactions = db.size();
  out.p = p;
  out.page_bytes = page_bytes;
  for (int mode = 0; mode < 2; ++mode) {
    const bool zero_copy = mode == 1;
    double best = 0.0;
    std::uint64_t wordsum = 0;
    for (int rep = 0; rep < reps; ++rep) {
      Runtime rt(p);
      std::atomic<std::uint64_t> sum{0};
      WallTimer timer;
      rt.Run([&](Comm& comm) {
        const std::vector<Page> pages =
            Paginate(db, db.RankSlice(comm.rank(), comm.size()), page_bytes);
        // A light touch per word keeps the page resident without letting
        // counting dominate transport (the thing being measured).
        std::uint64_t local = 0;
        auto process = [&local](PageView page) {
          for (std::uint32_t w : page) local += w;
        };
        if (zero_copy) {
          parallel_internal::RingShiftAll(comm, pages, process, nullptr);
        } else {
          LegacyRingShiftAll(comm, pages, process);
        }
        sum += local;
      });
      const double s = timer.Seconds();
      if (rep == 0 || s < best) best = s;
      wordsum = sum.load();
    }
    if (zero_copy) {
      out.zero_copy_seconds = best;
      out.checksum_zero_copy = wordsum;
    } else {
      out.legacy_seconds = best;
      out.checksum_legacy = wordsum;
    }
  }
  return out;
}

// ---- Cross-formulation equivalence ---------------------------------------

bool MiningOutputsIdentical(const TransactionDatabase& db, int p,
                            std::string* detail) {
  AprioriConfig apriori;
  apriori.minsup_fraction = 0.005;
  const MiningReport serial = MineSerial(db, apriori);

  ParallelConfig config;
  config.apriori = apriori;
  bool ok = true;
  for (Algorithm algorithm : {Algorithm::kCD, Algorithm::kDD, Algorithm::kIDD,
                              Algorithm::kHD}) {
    const MiningReport result = bench::Mine(algorithm, db, p, config);
    const bool same = bench::SameItemsets(serial.frequent, result.frequent);
    ok = ok && same;
    *detail += (detail->empty() ? "" : ", ") + AlgorithmName(algorithm) +
               (same ? "=ok" : "=MISMATCH");
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke =
      argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::Banner("Zero-copy transport: shared-payload forwarding vs "
                "copy-per-hop",
                "engineering baseline for the Figure 6 ring pipeline "
                "(T10.I4 workload)");

  const int reps = smoke ? 1 : 3;

  // Forward-depth sweep: cost of a hop as a function of payload size, ring
  // size, and chain depth.
  std::vector<SweepPoint> sweep;
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{16 * 1024}
            : std::vector<std::size_t>{4 * 1024, 64 * 1024, 1024 * 1024};
  const std::vector<int> rings = smoke ? std::vector<int>{4}
                                       : std::vector<int>{4, 8};
  const int depth = smoke ? 8 : 64;
  for (int p : rings) {
    for (std::size_t bytes : sizes) {
      SweepPoint point;
      point.p = p;
      point.payload_bytes = bytes;
      point.depth = depth;
      point.legacy_seconds = TimeForwardChain(p, bytes, depth, false, reps);
      point.zero_copy_seconds = TimeForwardChain(p, bytes, depth, true, reps);
      sweep.push_back(point);
      std::printf(
          "forward p=%d  %7zu B  depth %3d:  legacy %8.4f s  "
          "zero-copy %8.4f s  speedup %5.2fx\n",
          p, bytes, depth, point.legacy_seconds, point.zero_copy_seconds,
          point.legacy_seconds / point.zero_copy_seconds);
    }
  }

  // Acceptance scenario: the whole database around a P=8 ring, page 16 KiB.
  const std::size_t n = bench::ScaledN(smoke ? 10000 : 100000);
  const TransactionDatabase db = GenerateQuest(RingWorkload(n));
  const int ring_p = smoke ? 4 : 8;
  const RingScenario ring = TimeRingScenario(db, ring_p, 16 * 1024, reps);
  std::printf(
      "\nring shift T10.I4.D%zu p=%d page=16K: legacy %8.4f s  "
      "zero-copy %8.4f s  speedup %5.2fx  (page word-sums %s)\n",
      n, ring_p, ring.legacy_seconds, ring.zero_copy_seconds,
      ring.legacy_seconds / ring.zero_copy_seconds,
      ring.checksum_legacy == ring.checksum_zero_copy ? "match" : "DIFFER");

  // Equivalence: the rebuilt transport must not change mining output.
  std::string equivalence_detail;
  const bool identical =
      MiningOutputsIdentical(db, smoke ? 4 : 8, &equivalence_detail);
  std::printf("mining equivalence vs serial: %s\n",
              equivalence_detail.c_str());

  std::string json = "{\n";
  json += "  \"workload\": \"T10.I4.D" + std::to_string(n) + "\",\n";
  json += "  \"smoke\": " + std::string(smoke ? "true" : "false") + ",\n";
  json += "  \"build_type\": \"" + std::string(PAM_BUILD_TYPE) + "\",\n";
  json += "  \"host_cpu_cores\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"reps\": " + std::to_string(reps) + ",\n";
  json += "  \"forward_sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    AppendSweepJson(&json, sweep[i]);
    json += i + 1 < sweep.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "  \"ring_shift\": {\"transactions\": %zu, \"p\": %d, "
      "\"page_bytes\": %zu,\n"
      "   \"legacy_seconds\": %.6f, \"zero_copy_seconds\": %.6f, "
      "\"speedup\": %.3f,\n"
      "   \"processed_identical\": %s},\n",
      ring.transactions, ring.p, ring.page_bytes, ring.legacy_seconds,
      ring.zero_copy_seconds, ring.legacy_seconds / ring.zero_copy_seconds,
      ring.checksum_legacy == ring.checksum_zero_copy ? "true" : "false");
  json += buf;
  json += "  \"mining_output_identical\": " +
          std::string(identical ? "true" : "false") + "\n}\n";

  std::FILE* f = std::fopen("BENCH_comm.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote BENCH_comm.json\n");
  }

  if (!identical || ring.checksum_legacy != ring.checksum_zero_copy) {
    std::printf("FAIL: outputs differ\n");
    return 1;
  }
  return 0;
}
