#ifndef PAM_UTIL_CANCEL_H_
#define PAM_UTIL_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

namespace pam {

/// Why a cooperative run stopped early.
enum class CancelReason : int {
  kNone = 0,
  kDeadline,   // the token's deadline passed
  kCancelled,  // an explicit Cancel() (client abort, server shutdown)
  kWatchdog,   // the serve watchdog saw no progress heartbeat in time
};

/// Stable lowercase name ("none", "deadline", "cancelled", "watchdog").
const char* CancelReasonName(CancelReason reason);

/// Thrown from a cancellation check point when its token has fired. The
/// mining stack treats this like CommError: the first rank to throw aborts
/// the world, the others unwind with CommError{kAborted}, and Runtime::Run
/// rethrows this — so a cancelled MiningSession::Run surfaces exactly one
/// typed CancelledError to its caller (the serve layer maps the reason to
/// kDeadlineExceeded / kCancelled / a watchdog kMiningFault).
class CancelledError : public std::runtime_error {
 public:
  CancelledError(CancelReason reason, int rank, const std::string& detail);

  CancelReason reason() const { return reason_; }
  /// Rank whose check point fired (0 for serial / non-rank contexts).
  int rank() const { return rank_; }

 private:
  CancelReason reason_;
  int rank_;
};

/// Shared cancellation + deadline handle threaded from serve admission down
/// to the counting loop (DESIGN.md §13). Copies share one state: the serve
/// layer, the client, the watchdog, every rank thread, and every counting
/// shard all observe the same flag.
///
/// A default-constructed token is *null*: valid() is false and every check
/// degenerates to one pointer test — the solo mining paths pay nothing.
///
/// Check points come in two flavours:
///  - Check() / ThrowIfCancelled(): polls the flag (and latches kDeadline
///    once the deadline passes). Called from blocking comm waits on every
///    bounded slice, so a fired token unblocks a waiting rank promptly.
///  - Beat(): stamps the progress heartbeat the serve watchdog reads.
///    Stamped only where the run has genuinely advanced (pass boundaries,
///    ring rounds, counting intervals) — never inside a blocked wait, so a
///    stalled world stops beating and the watchdog can convert it into a
///    typed abort instead of a hung lease.
///
/// Thread-safe; all operations are lock-free atomics.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// Null token: never cancels, all checks are no-ops.
  CancelToken() = default;

  /// The longest deadline ArmDeadlineIn() takes, in milliseconds (about
  /// 31 years): now plus this many microseconds stays far inside int64.
  static constexpr double kMaxDeadlineMs = 1e12;

  /// A live token with no deadline (cancel/watchdog only).
  static CancelToken Create();

  bool valid() const { return state_ != nullptr; }
  bool has_deadline() const;

  /// Arms (or tightens) a deadline `ms` from now on a live token: the
  /// effective deadline only ever moves earlier. No-op on a null token.
  /// `ms` must lie in [-kMaxDeadlineMs, kMaxDeadlineMs]: outside it (or
  /// NaN) the conversion would overflow.
  void ArmDeadlineIn(double ms);

  /// Fires the token with `reason` (first reason wins; later calls are
  /// no-ops). No-op on a null token.
  void Cancel(CancelReason reason = CancelReason::kCancelled);

  /// Polls the token: kNone while live, else the latched reason. Observes
  /// a passed deadline by latching kDeadline.
  CancelReason Check() const;

  /// Check() + throw CancelledError when fired.
  void ThrowIfCancelled(int rank = 0) const;

  /// Stamps the watchdog progress heartbeat.
  void Beat() const;
  /// Beat() + ThrowIfCancelled(): the standard progress check point.
  void Checkpoint(int rank = 0) const;
  /// Milliseconds since the last Beat() (token creation counts as one).
  /// Returns 0 on a null token.
  double MillisSinceBeat() const;

 private:
  struct State {
    std::atomic<int> reason{0};
    /// Deadline as microseconds on the steady clock; INT64_MAX = none.
    std::atomic<std::int64_t> deadline_us{
        std::numeric_limits<std::int64_t>::max()};
    /// Last progress heartbeat, microseconds on the steady clock.
    std::atomic<std::int64_t> last_beat_us{0};
  };

  explicit CancelToken(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

}  // namespace pam

#endif  // PAM_UTIL_CANCEL_H_
