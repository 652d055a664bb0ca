#ifndef PAM_TESTS_TESTING_COLLECTIVES_H_
#define PAM_TESTS_TESTING_COLLECTIVES_H_

// Byte-vector collectives that the communicator tests exercise but no
// miner calls, built on Comm's public operations: an all-gather over
// AllGatherPayload and a binomial-tree broadcast over point-to-point
// payload sends.

#include <cstddef>
#include <span>
#include <vector>

#include "pam/mp/comm.h"
#include "pam/mp/payload.h"

namespace pam::testing {

/// A user tag (below the communicator's reserved collective range) that no
/// test sends on otherwise.
inline constexpr int kBcastTag = 0x3fff0000;

/// Every member's bytes, indexed by comm rank, as owned vectors.
inline std::vector<std::vector<std::byte>> AllGather(
    Comm& comm, std::span<const std::byte> mine) {
  const std::vector<Payload> payloads =
      comm.AllGatherPayload(Payload::Copy(mine));
  std::vector<std::vector<std::byte>> out;
  out.reserve(payloads.size());
  for (const Payload& payload : payloads) {
    out.emplace_back(payload.bytes().begin(), payload.bytes().end());
  }
  return out;
}

/// Broadcasts `data` (read on `root` only) to every member along a
/// binomial tree over virtual ranks vrank = (rank - root) mod P: a
/// non-root receives once, from the peer that clears its lowest set bit,
/// then forwards the received handle down the remaining bit positions
/// (log2(P) depth). Returns the root's bytes on every member.
inline std::vector<std::byte> Bcast(Comm& comm, int root,
                                    std::span<const std::byte> data) {
  const int p = comm.size();
  const int vrank = (comm.rank() - root + p) % p;
  Payload payload = comm.rank() == root ? Payload::Copy(data) : Payload();
  int mask = 1;
  while (mask < p) {
    if (vrank & mask) {
      payload = comm.RecvPayload((vrank - mask + root) % p, kBcastTag);
      break;
    }
    mask <<= 1;
  }
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (vrank + mask < p && (vrank & mask) == 0) {
      comm.Isend((vrank + mask + root) % p, kBcastTag, payload);
    }
  }
  return std::vector<std::byte>(payload.bytes().begin(),
                                payload.bytes().end());
}

}  // namespace pam::testing

#endif  // PAM_TESTS_TESTING_COLLECTIVES_H_
