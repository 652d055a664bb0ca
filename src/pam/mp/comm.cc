#include "pam/mp/comm.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

#include "pam/obs/trace.h"
#include "pam/util/types.h"

namespace pam {
namespace internal_mp {

bool EnvelopeIntact(const Envelope& envelope) {
  return envelope.payload.size() == envelope.declared_size &&
         envelope.payload.checksum() == envelope.checksum;
}

void Mailbox::Put(Envelope envelope, bool front) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (front) {
      queue_.push_front(std::move(envelope));
    } else {
      queue_.push_back(std::move(envelope));
    }
  }
  cv_.notify_all();
}

bool Mailbox::ScanLocked(std::uint64_t comm_id, int src_world, int tag,
                         Envelope* envelope) {
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->comm_id != comm_id || it->tag != tag ||
        (src_world != -1 && it->src_world != src_world)) {
      ++it;
      continue;
    }
    std::uint64_t& expected =
        expected_seq_[std::make_tuple(comm_id, it->src_world, tag)];
    if (it->seq < expected) {
      // Stale duplicate of an already delivered message.
      it = queue_.erase(it);
      ++discarded_;
      continue;
    }
    if (it->seq > expected) {
      // Hole: an earlier message of this stream is still in flight
      // (reordered behind us, or awaiting retransmit). Deliver it first.
      ++it;
      continue;
    }
    if (!EnvelopeIntact(*it)) {
      // Corrupt or truncated attempt at the head of the stream; discard
      // and keep scanning — an intact retransmit with the same seq may
      // already be queued behind it.
      it = queue_.erase(it);
      ++discarded_;
      continue;
    }
    *envelope = std::move(*it);
    queue_.erase(it);
    ++expected;
    return true;
  }
  return false;
}

Mailbox::TakeStatus Mailbox::TakeFor(std::uint64_t comm_id, int src_world,
                                     int tag, int timeout_ms,
                                     Envelope* envelope) {
  std::unique_lock<std::mutex> lock(mu_);
  const bool finite = timeout_ms >= 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(finite ? timeout_ms : 0);
  for (;;) {
    if (ScanLocked(comm_id, src_world, tag, envelope)) {
      return TakeStatus::kOk;
    }
    if (aborted_) return TakeStatus::kAborted;
    if (finite) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        if (ScanLocked(comm_id, src_world, tag, envelope)) {
          return TakeStatus::kOk;
        }
        return aborted_ ? TakeStatus::kAborted : TakeStatus::kTimeout;
      }
    } else {
      cv_.wait(lock);
    }
  }
}

Mailbox::TakeStatus Mailbox::TryTake(std::uint64_t comm_id, int src_world,
                                     int tag, Envelope* envelope) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ScanLocked(comm_id, src_world, tag, envelope)) {
    return TakeStatus::kOk;
  }
  return aborted_ ? TakeStatus::kAborted : TakeStatus::kTimeout;
}

void Mailbox::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    aborted_ = true;
  }
  cv_.notify_all();
}

void Mailbox::ResetAbort() {
  std::lock_guard<std::mutex> lock(mu_);
  aborted_ = false;
}

std::uint64_t Mailbox::DiscardedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return discarded_;
}

WorldState::WorldState(int n)
    : num_ranks(n),
      mailboxes(static_cast<std::size_t>(n)),
      bytes_sent(static_cast<std::size_t>(n)),
      messages_sent(static_cast<std::size_t>(n)),
      senders(static_cast<std::size_t>(n)),
      faults_injected(static_cast<std::size_t>(n)),
      send_retries(static_cast<std::size_t>(n)) {
  for (auto& b : bytes_sent) b.store(0);
  for (auto& m : messages_sent) m.store(0);
  for (auto& f : faults_injected) f.store(0);
  for (auto& r : send_retries) r.store(0);
}

void WorldState::Abort() {
  for (Mailbox& box : mailboxes) box.Shutdown();
}

void WorldState::ResetAbort() {
  for (Mailbox& box : mailboxes) box.ResetAbort();
}

}  // namespace internal_mp

namespace {

// Reserved tag space for collectives so they never collide with user tags
// (user tags must be < kCollectiveBase; all library call sites use small
// positive tags).
constexpr int kCollectiveBase = 0x40000000;
constexpr int kBarrierToken = kCollectiveBase + 0;
constexpr int kBarrierRelease = kCollectiveBase + 1;
constexpr int kReduceTag = kCollectiveBase + 2;
constexpr int kGatherTag = kCollectiveBase + 4;

std::span<const std::byte> WordsAsBytes(std::span<const std::uint64_t> s) {
  return std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(s.data()),
      s.size() * sizeof(std::uint64_t));
}

}  // namespace

Comm::Comm(std::shared_ptr<internal_mp::WorldState> world,
           std::uint64_t comm_id, std::vector<int> members, int rank)
    : world_(std::move(world)),
      comm_id_(comm_id),
      members_(std::move(members)),
      world_to_comm_(static_cast<std::size_t>(world_->num_ranks), -1),
      rank_(rank) {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    world_to_comm_[static_cast<std::size_t>(members_[i])] =
        static_cast<int>(i);
  }
}

void Comm::Send(int dst, int tag, Payload payload) {
  assert(dst >= 0 && dst < size());
  const int src_world = WorldRankOf(rank_);
  const int dst_world = WorldRankOf(dst);
  // Sequence numbers are per (comm, src, dst, tag) stream; only this
  // rank's thread touches its own sender state, so no lock is needed.
  std::uint64_t& seq_counter =
      world_->senders[static_cast<std::size_t>(src_world)]
          .next_seq[std::make_tuple(comm_id_, dst_world, tag)];
  const std::uint64_t seq = seq_counter++;
  // Traffic counters record the logical payload once, whatever the fault
  // schedule does to its delivery — figure benches stay exact.
  world_->bytes_sent[static_cast<std::size_t>(src_world)] += payload.size();
  world_->messages_sent[static_cast<std::size_t>(src_world)] += 1;
  internal_mp::Mailbox& box =
      world_->mailboxes[static_cast<std::size_t>(dst_world)];

  // Header checksum of the *intact* payload: memoized inside the handle,
  // so a forwarded payload never recomputes it.
  const std::uint64_t checksum = payload.checksum();
  const std::uint64_t declared_size = payload.size();
  auto make_envelope = [&](Payload body) {
    internal_mp::Envelope env;
    env.comm_id = comm_id_;
    env.src_world = src_world;
    env.tag = tag;
    env.seq = seq;
    env.declared_size = declared_size;
    env.checksum = checksum;
    env.payload = std::move(body);
    return env;
  };

  const FaultPlan& plan = world_->fault_plan;
  if (!plan.enabled()) {
    box.Put(make_envelope(std::move(payload)));
    return;
  }

  const int max_attempts = 1 + std::max(0, plan.config().max_retries);
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      world_->send_retries[static_cast<std::size_t>(src_world)] += 1;
      if (obs::RankTracer* tracer = obs::CurrentTracer()) {
        tracer->EmitInstant(obs::SpanKind::kFaultRetry, "retransmit");
      }
    }
    FaultKind fault = plan.Decide(src_world, dst_world, tag, seq, attempt);
    if (payload.empty() &&
        (fault == FaultKind::kCorrupt || fault == FaultKind::kTruncate)) {
      fault = FaultKind::kDrop;  // nothing to mutilate in an empty payload
    }
    if (fault != FaultKind::kNone) {
      world_->faults_injected[static_cast<std::size_t>(src_world)] += 1;
    }
    switch (fault) {
      case FaultKind::kNone:
        box.Put(make_envelope(payload));
        return;
      case FaultKind::kCorrupt: {
        // Copy-on-write: clone the shared bytes only now that the fault
        // actually fires, then mutilate the private clone. The clone's
        // own (lazily computed) checksum will mismatch the header.
        std::vector<std::byte> clone(payload.bytes().begin(),
                                     payload.bytes().end());
        CorruptBytes(&clone,
                     plan.Derive(src_world, dst_world, tag, seq, attempt, 1));
        box.Put(make_envelope(Payload::Adopt(std::move(clone))));
        break;  // detected at the receiver; retransmit
      }
      case FaultKind::kTruncate: {
        std::vector<std::byte> clone(payload.bytes().begin(),
                                     payload.bytes().end());
        clone.resize(TruncatedSize(
            clone.size(),
            plan.Derive(src_world, dst_world, tag, seq, attempt, 2)));
        box.Put(make_envelope(Payload::Adopt(std::move(clone))));
        break;  // detected at the receiver; retransmit
      }
      case FaultKind::kDrop:
        break;  // never delivered; retransmit
      case FaultKind::kDuplicate:
        box.Put(make_envelope(payload));
        box.Put(make_envelope(payload));  // second copy filtered by seq
        return;
      case FaultKind::kReorder:
        box.Put(make_envelope(payload),
                /*front=*/true);  // resequenced at receiver
        return;
      case FaultKind::kStall:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(plan.config().stall_ticks_ms));
        box.Put(make_envelope(std::move(payload)));
        return;
    }
  }
  // Retransmit budget exhausted without an intact delivery: the message is
  // lost. The receiver's deadline converts this into CommError{kTimeout}.
}

void Comm::ThrowTakeFailure(internal_mp::Mailbox::TakeStatus status, int src,
                            int tag) const {
  using TakeStatus = internal_mp::Mailbox::TakeStatus;
  const CommErrorKind kind = status == TakeStatus::kTimeout
                                 ? CommErrorKind::kTimeout
                                 : CommErrorKind::kAborted;
  throw CommError(
      kind, rank_, src, tag,
      status == TakeStatus::kTimeout
          ? "no intact message arrived before the receive deadline (comm " +
                std::to_string(comm_id_) + ")"
          : "world aborted while waiting (comm " + std::to_string(comm_id_) +
                ")");
}

namespace {

/// Slice width of a cancellable blocking receive: a fired token unblocks
/// the waiting rank within this bound, whatever the peer is doing.
constexpr int kCancelPollMs = 10;

}  // namespace

Payload Comm::RecvPayload(int src, int tag, int* actual_src) {
  const int src_world = src == -1 ? -1 : WorldRankOf(src);
  const int timeout_ms = world_->fault_plan.enabled()
                             ? world_->fault_plan.config().recv_timeout_ms
                             : -1;
  internal_mp::Mailbox& box =
      world_->mailboxes[static_cast<std::size_t>(WorldRankOf(rank_))];
  internal_mp::Envelope env;
  internal_mp::Mailbox::TakeStatus status;
  const CancelToken& cancel = world_->cancel;
  if (!cancel.valid()) {
    status = box.TakeFor(comm_id_, src_world, tag, timeout_ms, &env);
  } else {
    // Cancellable wait: take in bounded slices and re-check the token
    // between slices. The token is checked, never beaten, here — a rank
    // blocked on a stalled peer makes no progress, and the serve watchdog
    // reads exactly that from the missing heartbeats.
    const bool finite = timeout_ms >= 0;
    const auto recv_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(finite ? timeout_ms : 0);
    for (;;) {
      if (const CancelReason reason = cancel.Check();
          reason != CancelReason::kNone) {
        if (obs::RankTracer* tracer = obs::CurrentTracer()) {
          tracer->EmitInstant(obs::SpanKind::kCancel,
                              CancelReasonName(reason));
        }
        throw CancelledError(reason, WorldRankOf(rank_),
                             "receive abandoned (tag " + std::to_string(tag) +
                                 ", comm " + std::to_string(comm_id_) + ")");
      }
      int slice_ms = kCancelPollMs;
      if (finite) {
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                recv_deadline - std::chrono::steady_clock::now())
                .count();
        if (remaining <= 0) {
          status = internal_mp::Mailbox::TakeStatus::kTimeout;
          break;
        }
        slice_ms = static_cast<int>(
            std::min<long long>(remaining, kCancelPollMs));
      }
      status = box.TakeFor(comm_id_, src_world, tag, slice_ms, &env);
      if (status != internal_mp::Mailbox::TakeStatus::kTimeout) break;
    }
  }
  if (status != internal_mp::Mailbox::TakeStatus::kOk) {
    ThrowTakeFailure(status, src, tag);
  }
  if (actual_src != nullptr) *actual_src = CommRankOfWorld(env.src_world);
  return std::move(env.payload);
}

bool Comm::TryRecvPayload(int src, int tag, Payload* payload,
                          int* actual_src) {
  const int src_world = src == -1 ? -1 : WorldRankOf(src);
  internal_mp::Envelope env;
  const auto status =
      world_->mailboxes[static_cast<std::size_t>(WorldRankOf(rank_))].TryTake(
          comm_id_, src_world, tag, &env);
  if (status == internal_mp::Mailbox::TakeStatus::kAborted) {
    ThrowTakeFailure(status, src, tag);
  }
  if (status != internal_mp::Mailbox::TakeStatus::kOk) return false;
  if (actual_src != nullptr) *actual_src = CommRankOfWorld(env.src_world);
  *payload = std::move(env.payload);
  return true;
}

RecvRequest Comm::Irecv(int src, int tag) {
  RecvRequest req;
  req.src_ = src;
  req.tag_ = tag;
  req.posted_ = true;
  return req;
}

bool Comm::Test(RecvRequest& request) {
  if (request.done_) return true;
  assert(request.posted_ && "Test on a request that was never posted");
  Payload payload;
  if (!TryRecvPayload(request.src_, request.tag_, &payload)) return false;
  request.payload_ = std::move(payload);
  request.done_ = true;
  return true;
}

void Comm::Wait(RecvRequest& request) {
  if (request.done_) return;
  assert(request.posted_ && "Wait on a request that was never posted");
  request.payload_ = RecvPayload(request.src_, request.tag_);
  request.done_ = true;
}

void Comm::Barrier() {
  if (size() == 1) return;
  obs::ScopedSpan span(obs::SpanKind::kCollective, -1, "barrier");
  const std::byte token{0};
  if (rank_ == 0) {
    for (int r = 1; r < size(); ++r) {
      (void)RecvPayload(r, kBarrierToken);
    }
    for (int r = 1; r < size(); ++r) {
      Send(r, kBarrierRelease, std::span<const std::byte>(&token, 1));
    }
  } else {
    Send(0, kBarrierToken, std::span<const std::byte>(&token, 1));
    (void)RecvPayload(0, kBarrierRelease);
  }
}

namespace {

using ReduceOp = void (*)(std::uint64_t*, const std::uint64_t*, std::size_t);

void SumWords(std::uint64_t* inout, const std::uint64_t* other,
              std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) inout[i] += other[i];
}

void MaxWords(std::uint64_t* inout, const std::uint64_t* other,
              std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) inout[i] = std::max(inout[i], other[i]);
}

/// log2(P)-round all-reduce for any group size (the schedule the cost
/// model charges for the paper's "global reduction"): the `rem = P -
/// 2^floor(log2 P)` surplus ranks first fold their vectors into a
/// neighbor, the remaining power-of-two core recursive-doubles, and the
/// folded ranks receive the finished result back. Every exchanged blob is
/// length-checked against the local vector before it is read — the wire
/// size is never trusted.
void AllReduceWith(Comm& comm, std::span<std::uint64_t> inout, ReduceOp op) {
  const int p = comm.size();
  if (p == 1) return;
  obs::ScopedSpan span(obs::SpanKind::kCollective,
                       static_cast<std::int64_t>(inout.size()), "allreduce");
  const int rank = comm.rank();

  auto accumulate = [&](const Payload& blob) {
    assert(blob.size() == inout.size() * sizeof(std::uint64_t) &&
           "reduction payload size mismatch");
    op(inout.data(), reinterpret_cast<const std::uint64_t*>(blob.data()),
       inout.size());
  };

  int pof2 = 1;
  while (pof2 * 2 <= p) pof2 *= 2;
  const int rem = p - pof2;

  // Fold the surplus: the first 2*rem ranks pair up (even absorbs odd) so
  // exactly pof2 ranks carry partial sums into the doubling rounds.
  int core_rank;  // rank within the power-of-two core, -1 if folded out
  if (rank < 2 * rem) {
    if (rank % 2 == 0) {
      accumulate(comm.RecvPayload(rank + 1, kReduceTag));
      core_rank = rank / 2;
    } else {
      comm.Send(rank - 1, kReduceTag, WordsAsBytes(inout));
      core_rank = -1;
    }
  } else {
    core_rank = rank - rem;
  }

  if (core_rank >= 0) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int partner_core = core_rank ^ mask;
      const int partner =
          partner_core < rem ? partner_core * 2 : partner_core + rem;
      comm.Send(partner, kReduceTag, WordsAsBytes(inout));
      accumulate(comm.RecvPayload(partner, kReduceTag));
    }
  }

  // Unfold: hand the finished vector back to the folded-out odd ranks.
  if (rank < 2 * rem) {
    if (rank % 2 == 0) {
      comm.Send(rank + 1, kReduceTag, WordsAsBytes(inout));
    } else {
      const Payload result = comm.RecvPayload(rank - 1, kReduceTag);
      assert(result.size() == inout.size() * sizeof(std::uint64_t) &&
             "reduction payload size mismatch");
      // An empty span (pass 1 over an empty database) may have a null
      // data(), which memcpy must not be given even for zero bytes.
      if (!inout.empty()) {
        std::memcpy(inout.data(), result.data(),
                    inout.size() * sizeof(std::uint64_t));
      }
    }
  }
}

}  // namespace

void Comm::AllReduceSum(std::span<std::uint64_t> inout) {
  AllReduceWith(*this, inout, SumWords);
}

void Comm::AllReduceMax(std::span<std::uint64_t> inout) {
  AllReduceWith(*this, inout, MaxWords);
}

std::vector<Payload> Comm::AllGatherPayload(Payload mine) {
  const int p = size();
  std::vector<Payload> out(static_cast<std::size_t>(p));
  out[static_cast<std::size_t>(rank_)] = std::move(mine);
  if (p == 1) return out;
  obs::ScopedSpan span(obs::SpanKind::kCollective, -1, "allgather");

  // Ring all-gather (the paper's "all-to-all broadcast" from [9]): P-1
  // steps; at step s every rank forwards the block it received at step
  // s-1 (starting from its own) to its right neighbor. The forwarded
  // block is the same payload handle every hop — no copies, no checksum
  // recomputes. Total traffic per rank equals the sum of all blocks, with
  // no contention.
  int incoming_owner = rank_;
  for (int step = 0; step < p - 1; ++step) {
    Isend(RightNeighbor(), kGatherTag,
          out[static_cast<std::size_t>(incoming_owner)]);
    incoming_owner = (incoming_owner + p - 1) % p;
    out[static_cast<std::size_t>(incoming_owner)] =
        RecvPayload(LeftNeighbor(), kGatherTag);
  }
  return out;
}

Comm Comm::Sub(const std::vector<int>& member_ranks,
               std::uint64_t label) const {
  std::vector<int> world_members;
  world_members.reserve(member_ranks.size());
  int my_new_rank = -1;
  for (std::size_t i = 0; i < member_ranks.size(); ++i) {
    assert(member_ranks[i] >= 0 && member_ranks[i] < size());
    world_members.push_back(WorldRankOf(member_ranks[i]));
    if (member_ranks[i] == rank_) my_new_rank = static_cast<int>(i);
  }
  assert(my_new_rank >= 0 && "Sub() caller must be a member");

  // Deterministic id: every member computes the same hash locally.
  std::uint64_t id = comm_id_ * 0x9e3779b97f4a7c15ULL + label;
  for (int w : world_members) {
    id ^= static_cast<std::uint64_t>(w) + 0x9e3779b97f4a7c15ULL +
          (id << 6) + (id >> 2);
  }
  return Comm(world_, id, std::move(world_members), my_new_rank);
}

std::uint64_t Comm::MyBytesSent() const {
  return world_->bytes_sent[static_cast<std::size_t>(WorldRankOf(rank_))]
      .load();
}

CommFaultStats Comm::MyFaultStats() const {
  const auto me = static_cast<std::size_t>(WorldRankOf(rank_));
  CommFaultStats stats;
  stats.injected = world_->faults_injected[me].load();
  stats.retries = world_->send_retries[me].load();
  stats.detected = world_->mailboxes[me].DiscardedCount();
  return stats;
}

}  // namespace pam
