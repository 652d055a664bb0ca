#include "pam/model/explain.h"

#include <cstdarg>
#include <cstdio>

namespace pam {
namespace {

void Appendf(std::string& out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string& out, const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  const int n = vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  if (n > 0) out.append(buffer, static_cast<std::size_t>(n));
}

}  // namespace

std::string ExplainRun(const CostModel& model, Algorithm algorithm,
                       const RunMetrics& metrics) {
  std::string out;
  Appendf(out, "%s on %d ranks, machine: %s\n",
          AlgorithmName(algorithm).c_str(), metrics.num_ranks(),
          model.machine().name.c_str());
  Appendf(out, "%4s %9s %10s %9s | %9s %9s %9s %9s %9s %9s | %9s %8s\n",
          "pass", "grid", "cands", "freq", "subset", "build", "moveData",
          "reduce", "bcast", "io", "total", "imbal");

  double run_total = 0.0;
  for (int pass = 0; pass < metrics.num_passes(); ++pass) {
    const auto& row = metrics.per_pass[static_cast<std::size_t>(pass)];
    const PassMetrics& first = row[0];
    const PassTimeBreakdown t = model.PassTime(algorithm, row);
    const LoadSummary balance = metrics.SubsetWorkBalance(pass);
    run_total += t.Total();
    char grid[16];
    snprintf(grid, sizeof(grid), "%dx%d", first.grid_rows,
             first.grid_cols);
    Appendf(out,
            "%4d %9s %10zu %9zu | %8.3fs %8.3fs %8.3fs %8.3fs %8.3fs "
            "%8.3fs | %8.3fs %7.1f%%\n",
            first.k, grid, first.num_candidates_global,
            first.num_frequent_global, t.subset, t.tree_build, t.data_comm,
            t.reduction, t.broadcast, t.io, t.Total(),
            balance.imbalance_percent);
  }
  Appendf(out, "modeled response time: %.3fs\n", run_total);
  return out;
}

}  // namespace pam
