#include "pam/parallel/load_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace pam {
namespace {

constexpr double kCorrLo =
    static_cast<double>(LoadModel::kCostScale / LoadModel::kMaxSkew);
constexpr double kCorrHi =
    static_cast<double>(LoadModel::kCostScale * LoadModel::kMaxSkew);

std::uint64_t ClampFixed(double value) {
  return static_cast<std::uint64_t>(
      std::llround(std::clamp(value, kCorrLo, kCorrHi)));
}

}  // namespace

LoadModel::LoadModel(std::size_t num_items) : density_(num_items, 0.0) {}

std::vector<Item> LoadModel::DistinctFirstItems(
    const ItemsetCollection& candidates) {
  std::vector<Item> items;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Item f = candidates.Get(i)[0];
    if (items.empty() || items.back() != f) items.push_back(f);
  }
  return items;
}

double LoadModel::DensityOf(Item item) const {
  const auto f = static_cast<std::size_t>(item);
  return f < density_.size() ? density_[f] : 0.0;
}

void LoadModel::Observe(const PassFeedback& fb) {
  if (!fb.tree_pass) return;
  std::uint64_t total_meas = 0;
  for (std::uint64_t w : fb.part_work) total_meas += w;

  // Grid-policy calibration: how much subset work one (transaction, tree)
  // visit costs, and how much of it is leaf checking (which scales with
  // the local tree size) vs traversal (which barely does).
  if (fb.transactions > 0 && fb.num_candidates > 0 && total_meas > 0 &&
      fb.grid_rows > 0) {
    work_per_txn_visit_ = static_cast<double>(total_meas) /
                          static_cast<double>(fb.transactions);
    const std::uint64_t split_total = fb.traversal_steps + fb.leaf_checks;
    size_sensitive_frac_ =
        split_total > 0 ? static_cast<double>(fb.leaf_checks) /
                              static_cast<double>(split_total)
                        : 0.0;
    cal_candidates_local_ =
        std::max(1.0, static_cast<double>(fb.num_candidates) /
                          static_cast<double>(fb.grid_rows));
    calibrated_ = true;
  }

  // Density update: each measured first item's work per candidate,
  // relative to this pass's mean candidate, equal-blend EMA'd into the
  // stored density. Relative (scale-free) so measurements from passes of
  // very different total work mix cleanly. Identical inputs in identical
  // order on every rank keep the model bit-identical across ranks.
  if (fb.first_items.size() != fb.item_work.size() ||
      fb.first_items.size() != fb.item_candidates.size()) {
    return;
  }
  std::uint64_t item_total = 0;
  std::uint64_t cand_total = 0;
  for (std::size_t i = 0; i < fb.first_items.size(); ++i) {
    item_total += fb.item_work[i];
    cand_total += fb.item_candidates[i];
  }
  if (item_total == 0 || cand_total == 0) return;
  const double mean_per_candidate =
      static_cast<double>(item_total) / static_cast<double>(cand_total);
  for (std::size_t i = 0; i < fb.first_items.size(); ++i) {
    const auto f = static_cast<std::size_t>(fb.first_items[i]);
    if (f >= density_.size() || fb.item_candidates[i] == 0) continue;
    const double measured =
        static_cast<double>(fb.item_work[i]) /
        (static_cast<double>(fb.item_candidates[i]) * mean_per_candidate);
    density_[f] =
        density_[f] > 0.0 ? 0.5 * (density_[f] + measured) : measured;
  }
}

std::vector<std::uint64_t> LoadModel::ItemCosts(
    const ItemsetCollection& candidates) const {
  if (!calibrated_ || candidates.empty()) return {};
  // Per-item candidate counts of this pass (runs are contiguous in the
  // sorted collection), then a normalization pass so the mean candidate
  // costs exactly kCostScale under the current composition.
  std::vector<std::uint32_t> count(density_.size(), 0);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto f = static_cast<std::size_t>(candidates.Get(i)[0]);
    if (f < count.size()) ++count[f];
  }
  double total_weight = 0.0;
  for (std::size_t f = 0; f < count.size(); ++f) {
    if (count[f] == 0) continue;
    const double d = density_[f] > 0.0 ? density_[f] : 1.0;
    total_weight += d * static_cast<double>(count[f]);
  }
  if (total_weight <= 0.0) return {};
  const double mean_density =
      total_weight / static_cast<double>(candidates.size());
  std::vector<std::uint64_t> costs(density_.size(), kCostScale);
  for (std::size_t f = 0; f < count.size(); ++f) {
    if (count[f] == 0) continue;
    const double d = density_[f] > 0.0 ? density_[f] : 1.0;
    costs[f] =
        ClampFixed(static_cast<double>(kCostScale) * d / mean_density);
  }
  return costs;
}

int LoadModel::ChooseGridRows(std::size_t num_candidates,
                              std::uint64_t transactions_per_rank,
                              std::uint64_t wire_bytes_per_rank,
                              int num_ranks, int fallback) const {
  if (!calibrated_ || num_ranks <= 1 || num_candidates == 0) return fallback;
  const double check_frac = size_sensitive_frac_;
  const double base_frac = 1.0 - check_frac;
  int best_g = fallback > 0 ? fallback : 1;
  double best_cost = std::numeric_limits<double>::infinity();
  for (int g = 1; g <= num_ranks; ++g) {
    if (num_ranks % g != 0) continue;
    const double local_candidates =
        static_cast<double>(num_candidates) / static_cast<double>(g);
    const double per_visit =
        work_per_txn_visit_ *
        (base_frac + check_frac * (local_candidates / cal_candidates_local_));
    const double count_work = static_cast<double>(g) *
                              static_cast<double>(transactions_per_rank) *
                              per_visit;
    const double ring_work = kWorkPerCommByte * static_cast<double>(g - 1) *
                             static_cast<double>(wire_bytes_per_rank);
    const double build_work = kWorkPerTreeInsert * local_candidates;
    const double reduce_work =
        num_ranks / g > 1 ? kWorkPerReduceWord * local_candidates : 0.0;
    const double cost = count_work + ring_work + build_work + reduce_work;
    // Strict < keeps ties on the smaller G: fewer DB copies in flight.
    if (cost < best_cost) {
      best_cost = cost;
      best_g = g;
    }
  }
  return best_g;
}

}  // namespace pam
