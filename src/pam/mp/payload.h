#ifndef PAM_MP_PAYLOAD_H_
#define PAM_MP_PAYLOAD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace pam {

/// FNV-1a 64-bit checksum folding 8 payload bytes per multiply (plus a
/// packed tail word and the length). This is the framing checksum of every
/// transport envelope; it is a process-local integrity check, not a wire
/// format, so the host byte order does not matter.
std::uint64_t PayloadChecksum(std::span<const std::byte> bytes);

/// A refcounted immutable message payload. Handles are cheap to copy and
/// share one buffer; the buffer is never mutated after construction, so a
/// payload can sit in several mailboxes (ring forwarding, duplication
/// faults, one-to-many sends) at once without any aliasing hazard. The
/// payload owns its buffer, and the allocator frees it when the last
/// handle drops. The framing checksum is computed once per payload —
/// word-at-a-time, on first use — and memoized, so forwarding hops and
/// receiver verification cost a load and a compare, not a recompute.
class Payload {
 public:
  /// Empty payload (zero bytes; HPA's end-of-stream markers).
  Payload() = default;

  /// Materializes a payload by copying `bytes` into a buffer of its own.
  /// The single point where the transport copies message bytes.
  static Payload Copy(std::span<const std::byte> bytes);

  /// Wraps an already-built buffer without copying (fault injection
  /// builds its corrupt/truncate clones explicitly, then adopts them).
  static Payload Adopt(std::vector<std::byte> bytes);

  /// Payloads materialized by Copy (monotonic, process-wide). Copy is the
  /// only way bytes enter the transport, so this counts every copy it
  /// makes; forwarding a handle never increments it, and the `comm_perf`
  /// guard test pins ring forwarding to zero per-hop copies through it.
  static std::uint64_t CopyCount();

  std::span<const std::byte> bytes() const {
    return rep_ == nullptr
               ? std::span<const std::byte>()
               : std::span<const std::byte>(rep_->data.data(),
                                            rep_->data.size());
  }
  const std::byte* data() const {
    return rep_ == nullptr ? nullptr : rep_->data.data();
  }
  std::size_t size() const { return rep_ == nullptr ? 0 : rep_->data.size(); }
  bool empty() const { return size() == 0; }

  /// Memoized PayloadChecksum of the bytes. Thread-safe: concurrent first
  /// calls compute the same value and race benignly on the memo.
  std::uint64_t checksum() const;

  /// True if both handles share the same buffer (not a content compare).
  bool SharesBufferWith(const Payload& other) const {
    return rep_ == other.rep_ && rep_ != nullptr;
  }

 private:
  struct Rep {
    explicit Rep(std::vector<std::byte> b) : data(std::move(b)) {}
    const std::vector<std::byte> data;
    mutable std::atomic<std::uint64_t> memo{0};
    mutable std::atomic<bool> memo_valid{false};
  };
  explicit Payload(std::shared_ptr<const Rep> rep) : rep_(std::move(rep)) {}

  std::shared_ptr<const Rep> rep_;
};

}  // namespace pam

#endif  // PAM_MP_PAYLOAD_H_
