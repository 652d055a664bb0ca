#include "pam/mp/payload.h"

#include <cstring>

namespace pam {
namespace {

std::atomic<std::uint64_t> g_copy_count{0};

}  // namespace

std::uint64_t PayloadChecksum(std::span<const std::byte> bytes) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  const std::size_t n = bytes.size();
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
    std::uint64_t word;
    std::memcpy(&word, bytes.data() + i, sizeof(word));
    h ^= word;
    h *= kPrime;
  }
  if (i < n) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, bytes.data() + i, n - i);
    h ^= tail;
    h *= kPrime;
  }
  // Fold in the length so a payload truncated at a word boundary (tail
  // bytes happening to be zero) still changes the checksum.
  h ^= static_cast<std::uint64_t>(n);
  h *= kPrime;
  return h;
}

Payload Payload::Copy(std::span<const std::byte> bytes) {
  if (bytes.empty()) return Payload();
  g_copy_count.fetch_add(1, std::memory_order_relaxed);
  return Adopt(std::vector<std::byte>(bytes.begin(), bytes.end()));
}

Payload Payload::Adopt(std::vector<std::byte> bytes) {
  if (bytes.empty()) return Payload();
  return Payload(std::make_shared<const Rep>(std::move(bytes)));
}

std::uint64_t Payload::CopyCount() {
  return g_copy_count.load(std::memory_order_relaxed);
}

std::uint64_t Payload::checksum() const {
  if (rep_ == nullptr) return PayloadChecksum({});
  if (rep_->memo_valid.load(std::memory_order_acquire)) {
    return rep_->memo.load(std::memory_order_relaxed);
  }
  const std::uint64_t value = PayloadChecksum(bytes());
  rep_->memo.store(value, std::memory_order_relaxed);
  rep_->memo_valid.store(true, std::memory_order_release);
  return value;
}

}  // namespace pam
