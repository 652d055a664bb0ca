#include "pam/util/cancel.h"

#include <cassert>

namespace pam {
namespace {

std::int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             CancelToken::Clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* CancelReasonName(CancelReason reason) {
  switch (reason) {
    case CancelReason::kNone:
      return "none";
    case CancelReason::kDeadline:
      return "deadline";
    case CancelReason::kCancelled:
      return "cancelled";
    case CancelReason::kWatchdog:
      return "watchdog";
  }
  return "?";
}

CancelledError::CancelledError(CancelReason reason, int rank,
                               const std::string& detail)
    : std::runtime_error("run " + std::string(CancelReasonName(reason)) +
                         " at rank " + std::to_string(rank) + ": " + detail),
      reason_(reason),
      rank_(rank) {}

CancelToken CancelToken::Create() {
  auto state = std::make_shared<State>();
  state->last_beat_us.store(NowUs(), std::memory_order_relaxed);
  return CancelToken(std::move(state));
}

bool CancelToken::has_deadline() const {
  return state_ != nullptr &&
         state_->deadline_us.load(std::memory_order_relaxed) !=
             std::numeric_limits<std::int64_t>::max();
}

void CancelToken::ArmDeadlineIn(double ms) {
  assert(ms >= -kMaxDeadlineMs && ms <= kMaxDeadlineMs);
  if (state_ == nullptr) return;
  const std::int64_t us = NowUs() + static_cast<std::int64_t>(ms * 1000.0);
  // Deadlines only tighten: keep the minimum of all armed values.
  std::int64_t current = state_->deadline_us.load(std::memory_order_relaxed);
  while (us < current && !state_->deadline_us.compare_exchange_weak(
                             current, us, std::memory_order_relaxed)) {
  }
}

void CancelToken::Cancel(CancelReason reason) {
  if (state_ == nullptr || reason == CancelReason::kNone) return;
  int expected = 0;
  state_->reason.compare_exchange_strong(expected, static_cast<int>(reason),
                                         std::memory_order_release);
}

CancelReason CancelToken::Check() const {
  if (state_ == nullptr) return CancelReason::kNone;
  const int latched = state_->reason.load(std::memory_order_acquire);
  if (latched != 0) return static_cast<CancelReason>(latched);
  const std::int64_t deadline =
      state_->deadline_us.load(std::memory_order_relaxed);
  if (deadline != std::numeric_limits<std::int64_t>::max() &&
      NowUs() >= deadline) {
    int expected = 0;
    state_->reason.compare_exchange_strong(
        expected, static_cast<int>(CancelReason::kDeadline),
        std::memory_order_release);
    return static_cast<CancelReason>(
        state_->reason.load(std::memory_order_acquire));
  }
  return CancelReason::kNone;
}

void CancelToken::ThrowIfCancelled(int rank) const {
  const CancelReason reason = Check();
  if (reason == CancelReason::kNone) return;
  throw CancelledError(reason, rank, "cancellation check point");
}

void CancelToken::Beat() const {
  if (state_ == nullptr) return;
  state_->last_beat_us.store(NowUs(), std::memory_order_relaxed);
}

void CancelToken::Checkpoint(int rank) const {
  if (state_ == nullptr) return;
  Beat();
  ThrowIfCancelled(rank);
}

double CancelToken::MillisSinceBeat() const {
  if (state_ == nullptr) return 0.0;
  const std::int64_t last =
      state_->last_beat_us.load(std::memory_order_relaxed);
  return static_cast<double>(NowUs() - last) / 1000.0;
}

}  // namespace pam
