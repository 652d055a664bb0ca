#include "pam/obs/json_metrics.h"

#include <cstdio>

namespace pam::obs {
namespace {

void AppendField(std::string* out, const char* name, std::uint64_t value,
                 bool* first) {
  if (!*first) out->append(",");
  *first = false;
  out->append("\"");
  out->append(name);
  out->append("\":");
  out->append(std::to_string(value));
}

std::string PassRowJson(int rank, const PassMetrics& m) {
  std::string out = "{";
  bool first = true;
  AppendField(&out, "rank", static_cast<std::uint64_t>(rank), &first);
  AppendField(&out, "k", static_cast<std::uint64_t>(m.k), &first);
  AppendField(&out, "candidates_global", m.num_candidates_global, &first);
  AppendField(&out, "candidates_local", m.num_candidates_local, &first);
  AppendField(&out, "frequent_global", m.num_frequent_global, &first);
  AppendField(&out, "tree_build_inserts", m.tree_build_inserts, &first);
  AppendField(&out, "transactions_processed", m.transactions_processed,
              &first);
  AppendField(&out, "traversal_steps", m.subset.traversal_steps, &first);
  AppendField(&out, "distinct_leaf_visits", m.subset.distinct_leaf_visits,
              &first);
  AppendField(&out, "leaf_candidates_checked",
              m.subset.leaf_candidates_checked, &first);
  AppendField(&out, "data_bytes_sent", m.data_bytes_sent, &first);
  AppendField(&out, "data_messages_sent", m.data_messages_sent, &first);
  AppendField(&out, "reduction_words", m.reduction_words, &first);
  AppendField(&out, "broadcast_words", m.broadcast_words, &first);
  AppendField(&out, "db_scans", static_cast<std::uint64_t>(m.db_scans),
              &first);
  AppendField(&out, "local_db_wire_bytes", m.local_db_wire_bytes, &first);
  AppendField(&out, "faults_injected", m.comm_faults_injected, &first);
  AppendField(&out, "comm_retries", m.comm_retries, &first);
  AppendField(&out, "faults_detected", m.comm_faults_detected, &first);
  AppendField(&out, "grid_rows", static_cast<std::uint64_t>(m.grid_rows),
              &first);
  AppendField(&out, "grid_cols", static_cast<std::uint64_t>(m.grid_cols),
              &first);
  AppendField(&out, "partition_digest", m.partition_digest, &first);
  AppendField(&out, "threads_per_rank",
              static_cast<std::uint64_t>(m.threads_per_rank), &first);
  out.append(",\"shard_subset_work\":[");
  for (std::size_t i = 0; i < m.shard_subset_work.size(); ++i) {
    if (i > 0) out.append(",");
    out.append(std::to_string(m.shard_subset_work[i]));
  }
  out.append("]");
  char wall[64];
  std::snprintf(wall, sizeof(wall), ",\"wall_seconds\":%.6f",
                m.wall_seconds);
  out.append(wall);
  out.append("}");
  return out;
}

}  // namespace

void JsonMetricsWriter::OnRunBegin(const RunInfo& info) {
  std::lock_guard<std::mutex> lock(mu_);
  info_ = info;
}

void JsonMetricsWriter::OnPassMetrics(int rank, const PassMetrics& metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  const int pass_index = passes_seen_[rank]++;
  rows_[{pass_index, rank}] = metrics;
  if (pass_index + 1 > num_passes_) num_passes_ = pass_index + 1;
}

void JsonMetricsWriter::OnRunEnd(const RunMetrics& metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  run_ended_ = true;
  total_data_bytes_ = 0;
  for (int p = 0; p < metrics.num_passes(); ++p) {
    total_data_bytes_ += metrics.TotalDataBytes(p);
  }
  total_faults_injected_ = metrics.TotalFaultsInjected();
  total_retries_ = metrics.TotalCommRetries();
  total_faults_detected_ = metrics.TotalFaultsDetected();
}

std::string JsonMetricsWriter::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"algorithm\":\"" + info_.algorithm + "\"";
  out += ",\"ranks\":" + std::to_string(info_.num_ranks);
  out += ",\"minsup_count\":" + std::to_string(info_.minsup_count);
  out += ",\"complete\":";
  out += run_ended_ ? "true" : "false";
  out += ",\"passes\":[\n";
  for (int pass = 0; pass < num_passes_; ++pass) {
    if (pass > 0) out += ",\n";
    out += "{\"pass\":" + std::to_string(pass) + ",\"per_rank\":[";
    bool first = true;
    std::vector<std::uint64_t> subset_work;
    for (const auto& [key, row] : rows_) {
      if (key.first != pass) continue;
      if (!first) out += ",\n";
      first = false;
      out += PassRowJson(key.second, row);
      subset_work.push_back(row.subset.traversal_steps +
                            row.subset.leaf_candidates_checked);
    }
    out += "]";
    // Per-pass load-imbalance summary over the ranks' subset work (the
    // paper's computation-time imbalance), visible without a bench run.
    const LoadSummary balance = Summarize(subset_work);
    char summary[160];
    std::snprintf(summary, sizeof(summary),
                  ",\"imbalance\":{\"max\":%.0f,\"mean\":%.3f,"
                  "\"stddev\":%.3f,\"max_over_mean\":%.4f}",
                  balance.max, balance.mean, balance.stddev,
                  balance.imbalance);
    out += summary;
    out += "}";
  }
  out += "\n]";
  if (run_ended_) {
    out += ",\"totals\":{\"data_bytes_sent\":" +
           std::to_string(total_data_bytes_);
    out += ",\"faults_injected\":" + std::to_string(total_faults_injected_);
    out += ",\"comm_retries\":" + std::to_string(total_retries_);
    out += ",\"faults_detected\":" + std::to_string(total_faults_detected_);
    out += "}";
  }
  out += "}\n";
  return out;
}

Status JsonMetricsWriter::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Error("cannot open metrics output '" + path + "'");
  }
  const std::string json = ToJson();
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    return Status::Error("short write to metrics output '" + path + "'");
  }
  return Status::Ok();
}

}  // namespace pam::obs
