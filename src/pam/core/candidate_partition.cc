#include "pam/core/candidate_partition.h"

#include <algorithm>
#include <cassert>

namespace pam {

LoadSummary CandidatePartition::CandidateBalance() const {
  std::vector<std::uint64_t> sizes;
  sizes.reserve(ids_per_part.size());
  for (const auto& ids : ids_per_part) sizes.push_back(ids.size());
  return Summarize(sizes);
}

CandidatePartition PartitionRoundRobin(std::size_t num_candidates,
                                       int num_parts) {
  assert(num_parts > 0);
  CandidatePartition out;
  out.ids_per_part.resize(static_cast<std::size_t>(num_parts));
  for (std::size_t i = 0; i < num_candidates; ++i) {
    out.ids_per_part[i % static_cast<std::size_t>(num_parts)].push_back(
        static_cast<std::uint32_t>(i));
  }
  return out;
}

CandidatePartition PartitionByPrefix(const ItemsetCollection& candidates,
                                     std::size_t num_items, int num_parts,
                                     PrefixStrategy strategy,
                                     bool split_heavy_prefixes,
                                     const std::vector<std::uint64_t>* item_cost) {
  assert(num_parts > 0);
  assert(candidates.IsSortedUnique());
  const std::size_t m = candidates.size();

  // Contiguous runs of candidates sharing a first item.
  struct Run {
    Item first_item = 0;
    std::uint32_t begin = 0;  // candidate index range [begin, end)
    std::uint32_t end = 0;
  };
  std::vector<Run> runs;
  for (std::size_t i = 0; i < m;) {
    const Item first = candidates.Get(i)[0];
    std::size_t j = i + 1;
    while (j < m && candidates.Get(j)[0] == first) ++j;
    runs.push_back(Run{first, static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(j)});
    i = j;
  }

  // A run of c candidates weighs c (the static candidate-count scheme)
  // or c * item_cost[first] when measured per-item costs are supplied.
  const auto run_weight = [&](const Run& r) -> std::uint64_t {
    const std::uint64_t c = r.end - r.begin;
    if (item_cost == nullptr) return c;
    const auto f = static_cast<std::size_t>(r.first_item);
    return c * (f < item_cost->size() ? (*item_cost)[f] : 1);
  };
  std::uint64_t total_weight = 0;
  for (const Run& r : runs) total_weight += run_weight(r);

  // Optionally split heavy first-items into sub-ranges so no single element
  // exceeds the ideal per-part share (of weight, which equals candidate
  // count in the static scheme).
  if (split_heavy_prefixes && total_weight > 0) {
    const std::uint64_t threshold =
        (total_weight + static_cast<std::uint64_t>(num_parts) - 1) /
        static_cast<std::uint64_t>(num_parts);
    std::vector<Run> refined;
    for (const Run& r : runs) {
      const std::uint64_t w = run_weight(r);
      const std::size_t c = r.end - r.begin;
      if (threshold == 0 || w <= threshold) {
        refined.push_back(r);
        continue;
      }
      // Split by weight, but sub-range boundaries are positional: never
      // finer than one candidate per piece.
      const std::size_t pieces = static_cast<std::size_t>(
          std::min<std::uint64_t>((w + threshold - 1) / threshold, c));
      for (std::size_t p = 0; p < pieces; ++p) {
        Run piece = r;
        piece.begin = r.begin + static_cast<std::uint32_t>(p * c / pieces);
        piece.end = r.begin + static_cast<std::uint32_t>((p + 1) * c / pieces);
        if (piece.end > piece.begin) refined.push_back(piece);
      }
    }
    runs = std::move(refined);
  }

  std::vector<std::uint64_t> weights;
  weights.reserve(runs.size());
  for (const Run& r : runs) weights.push_back(run_weight(r));

  const BinPackingResult packing = strategy == PrefixStrategy::kBinPacked
                                       ? PackBins(weights, num_parts)
                                       : PackContiguous(weights, num_parts);

  CandidatePartition out;
  out.ids_per_part.resize(static_cast<std::size_t>(num_parts));
  out.first_item_filter.assign(static_cast<std::size_t>(num_parts),
                               Bitmap(num_items));
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const int part = packing.bin_of[r];
    auto& ids = out.ids_per_part[static_cast<std::size_t>(part)];
    for (std::uint32_t i = runs[r].begin; i < runs[r].end; ++i) {
      ids.push_back(i);
    }
    out.first_item_filter[static_cast<std::size_t>(part)].Set(
        runs[r].first_item);
  }
  for (auto& ids : out.ids_per_part) std::sort(ids.begin(), ids.end());
  return out;
}

std::uint64_t PartitionDigest(const CandidatePartition& partition) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (b * 8)) & 0xffULL;
      h *= 1099511628211ULL;  // FNV prime
    }
  };
  mix(partition.ids_per_part.size());
  for (const auto& ids : partition.ids_per_part) {
    mix(ids.size());
    for (std::uint32_t id : ids) mix(id);
  }
  return h;
}

std::uint64_t PartitionMoves(const CandidatePartition& a,
                             const CandidatePartition& b) {
  std::size_t m = 0;
  for (const auto& ids : a.ids_per_part) m += ids.size();
  std::vector<int> owner(m, -1);
  for (std::size_t p = 0; p < a.ids_per_part.size(); ++p) {
    for (std::uint32_t id : a.ids_per_part[p]) {
      if (id < m) owner[id] = static_cast<int>(p);
    }
  }
  std::uint64_t moves = 0;
  for (std::size_t p = 0; p < b.ids_per_part.size(); ++p) {
    for (std::uint32_t id : b.ids_per_part[p]) {
      if (id >= m || owner[id] != static_cast<int>(p)) ++moves;
    }
  }
  return moves;
}

}  // namespace pam
