#ifndef PAM_MP_COMM_H_
#define PAM_MP_COMM_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <tuple>
#include <vector>

#include "pam/mp/fault.h"
#include "pam/mp/payload.h"
#include "pam/util/cancel.h"

namespace pam {

/// Thread-backed message-passing substrate with MPI-like semantics. This is
/// the repository's stand-in for the MPI layer of the paper's Cray T3E /
/// IBM SP2: point-to-point sends/receives (with the non-blocking
/// Isend/Irecv/Waitall shapes used by the Figure 6 ring pipeline), global
/// reductions, all-gather, broadcast, barriers, and sub-communicators for
/// the HD processor grid's rows and columns.
///
/// Message bodies are refcounted immutable Payload handles: a send wraps
/// raw bytes into a payload exactly once (or takes an existing handle),
/// the in-process mailbox passes the handle, and the receiver exposes a
/// read-only view. Forwarding a received message (ring pipeline, binomial
/// broadcast, ring all-gather) re-sends the *same* handle — zero byte
/// copies and zero checksum recomputes per hop. Sends are buffered (they
/// deposit into the destination's mailbox and return), so programs cannot
/// deadlock on finite communication buffers; the cost model charges DD's
/// finite-buffer idling analytically instead. Message order is FIFO per
/// (source, communicator, tag).
///
/// Unlike the paper's substrate, this one does not assume the transport is
/// perfect: every envelope carries a framing header (sequence number,
/// length, payload checksum), receives deliver a stream's envelopes in
/// sequence order after verifying integrity, and a deterministic
/// fault-injection schedule (FaultPlan) can corrupt, truncate, duplicate,
/// drop, reorder, or stall any delivery attempt. Mutilating faults are
/// copy-on-write: the shared payload is cloned only when the fault
/// actually fires, so the lossless fast path stays zero-copy. Recoverable
/// faults are repaired transparently (bounded sender retransmit + receiver
/// resequencing/dup-discard); unrecoverable ones surface as a structured
/// CommError instead of silently wrong counts.

namespace internal_mp {

struct Envelope {
  std::uint64_t comm_id = 0;
  int src_world = 0;
  int tag = 0;
  /// Framing header: position in the (comm_id, src, dst, tag) stream,
  /// declared payload length, and PayloadChecksum of the payload at send
  /// time. Duplicates and reorders are repaired from `seq`; corruption
  /// and truncation are detected from `declared_size`/`checksum`.
  std::uint64_t seq = 0;
  std::uint64_t declared_size = 0;
  std::uint64_t checksum = 0;
  /// Shared immutable body. Duplicated/forwarded envelopes alias the same
  /// buffer; corrupt/truncate faults carry a private clone instead.
  Payload payload;
};

/// True if the envelope's payload matches its framing header. For intact
/// envelopes this is a memo compare (the sender already computed the
/// payload's checksum); only fault clones pay a recompute — which then
/// mismatches the header.
bool EnvelopeIntact(const Envelope& envelope);

/// One rank's incoming message queue. Matching is by (comm_id, src, tag)
/// stream; within a stream, envelopes are delivered strictly in sequence
/// order, and envelopes that fail integrity checks (or repeat an already
/// delivered sequence number) are discarded on sight. A stale copy is
/// counted as soon as it is stale, at its Put or at the delivery that made
/// it stale, so DiscardedCount() does not depend on arrival order.
class Mailbox {
 public:
  enum class TakeStatus {
    kOk,       // *envelope filled
    kTimeout,  // deadline expired (TakeFor) / nothing deliverable (TryTake)
    kAborted,  // Shutdown() was called; the world is tearing down
  };

  /// `front` = true injects at the head of the queue (reorder fault).
  void Put(Envelope envelope, bool front = false);
  /// Queues two copies of `envelope` under one lock (duplicate fault), so
  /// the receiver always finds the second queued when it takes the first
  /// and counts it then, on its own thread: a run's per-pass `detected`
  /// does not depend on how the sender's two puts interleave with the
  /// receiver's passes.
  void PutTwice(Envelope envelope);

  /// Removes and returns the next in-sequence intact message matching
  /// (comm_id, src, tag); src == -1 matches any source. Blocks until one
  /// arrives, the deadline expires (timeout_ms >= 0), or Shutdown() is
  /// called. timeout_ms < 0 means no deadline.
  TakeStatus TakeFor(std::uint64_t comm_id, int src_world, int tag,
                     int timeout_ms, Envelope* envelope);

  /// Non-blocking TakeFor: never waits. kTimeout means nothing
  /// deliverable is queued right now.
  TakeStatus TryTake(std::uint64_t comm_id, int src_world, int tag,
                     Envelope* envelope);

  /// Wakes all blocked takers; they (and all future takers that find no
  /// deliverable message) return kAborted until ResetAbort().
  void Shutdown();
  void ResetAbort();

  /// Bad envelopes (corrupt, truncated, stale duplicate) discarded so far.
  std::uint64_t DiscardedCount() const;

 private:
  /// Queues `envelope` unless it is stale (counted instead). Caller holds
  /// mu_.
  void PutLocked(Envelope envelope, bool front);
  /// Scans the queue for the first deliverable envelope, erasing corrupt
  /// attempts along the way, and on delivery erases every queued copy of
  /// the stream at or below the delivered sequence number. Caller holds
  /// mu_.
  bool ScanLocked(std::uint64_t comm_id, int src_world, int tag,
                  Envelope* envelope);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Envelope> queue_;
  /// Next expected sequence number per (comm_id, src_world, tag) stream.
  std::map<std::tuple<std::uint64_t, int, int>, std::uint64_t> expected_seq_;
  std::uint64_t discarded_ = 0;
  bool aborted_ = false;
};

/// Per-sender stream state: next sequence number per destination stream.
/// Each rank's thread only ever touches its own SenderState, so no lock.
struct SenderState {
  std::map<std::tuple<std::uint64_t, int, int>, std::uint64_t> next_seq;
};

/// State shared by every rank of one Runtime: mailboxes, traffic
/// counters, sender sequence state, and the fault-injection plan.
struct WorldState {
  explicit WorldState(int num_ranks);
  const int num_ranks;
  std::vector<Mailbox> mailboxes;
  std::vector<std::atomic<std::uint64_t>> bytes_sent;
  std::vector<std::atomic<std::uint64_t>> messages_sent;
  std::vector<SenderState> senders;
  std::vector<std::atomic<std::uint64_t>> faults_injected;
  std::vector<std::atomic<std::uint64_t>> send_retries;
  FaultPlan fault_plan;  // default: disabled
  /// Cooperative cancellation handle installed by Runtime::SetCancelToken.
  /// When valid, every blocking receive waits in bounded slices and
  /// re-checks the token between slices, so a fired deadline or cancel
  /// unblocks every rank promptly (with CancelledError) instead of letting
  /// it sit in an infinite mailbox wait. Default: null (zero overhead).
  CancelToken cancel;

  /// Wakes every blocked receive; used when a rank fails so the others
  /// unwind (with CommError{kAborted}) instead of deadlocking the join.
  void Abort();
  void ResetAbort();
};

}  // namespace internal_mp

/// Handle for a pending non-blocking receive, obtained from Comm::Irecv.
/// Poll it with Comm::Test or block in Comm::Wait; once done, the payload
/// view is valid until the request is destroyed (the handle keeps the
/// buffer alive — and can be forwarded with Comm::Send at zero cost).
class RecvRequest {
 public:
  bool done() const { return done_; }

  /// The received message body; valid once done() is true.
  const Payload& payload() const { return payload_; }

  /// Read-only byte view of the received message body.
  std::span<const std::byte> data() const { return payload_.bytes(); }

 private:
  friend class Comm;
  int src_ = -1;
  int tag_ = 0;
  bool posted_ = false;
  bool done_ = false;
  Payload payload_;
};

/// A communicator: a rank's endpoint within a group of ranks. The world
/// communicator is handed to each rank by Runtime::Run; sub-communicators
/// are created with Sub(). Copyable (cheap; shares world state).
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const { return static_cast<int>(members_.size()); }

  // ---- Point to point ------------------------------------------------

  /// Blocking-buffered send of raw bytes to rank `dst` of this comm:
  /// copies the bytes into a Payload that owns them (the one copy the
  /// transport ever makes) and sends the handle. Consults the world's
  /// FaultPlan: recoverable injected faults trigger bounded retransmits;
  /// an exhausted retransmit budget loses the message (the receiver's
  /// deadline turns that into CommError).
  void Send(int dst, int tag, std::span<const std::byte> data) {
    Send(dst, tag, Payload::Copy(data));
  }

  /// Zero-copy send of an existing payload handle: no byte copy, and the
  /// checksum memoized inside the handle is reused — forwarding a
  /// received message costs O(1) regardless of its size.
  void Send(int dst, int tag, Payload payload);

  /// Receives a message from `src` (-1 = any member) with tag `tag` as a
  /// shared payload handle (no copy out of the transport). If
  /// `actual_src` is non-null it receives the sender's comm rank. Throws
  /// CommError on receive deadline (fault injection enabled) or world
  /// abort.
  Payload RecvPayload(int src, int tag, int* actual_src = nullptr);

  /// Recv convenience that copies the payload into an owned vector.
  std::vector<std::byte> Recv(int src, int tag, int* actual_src = nullptr) {
    const Payload payload = RecvPayload(src, tag, actual_src);
    return std::vector<std::byte>(payload.bytes().begin(),
                                  payload.bytes().end());
  }

  /// Non-blocking receive: returns true and fills `payload` if a matching
  /// message was already queued. DD uses this to process remote pages as
  /// they arrive while still generating its own sends. Throws CommError
  /// {kAborted} if the world is tearing down.
  bool TryRecvPayload(int src, int tag, Payload* payload,
                      int* actual_src = nullptr);

  /// TryRecv convenience that copies the payload into an owned vector.
  bool TryRecv(int src, int tag, std::vector<std::byte>* data,
               int* actual_src = nullptr) {
    Payload payload;
    if (!TryRecvPayload(src, tag, &payload, actual_src)) return false;
    data->assign(payload.bytes().begin(), payload.bytes().end());
    return true;
  }

  /// Non-blocking sends (complete immediately; sends are buffered).
  void Isend(int dst, int tag, std::span<const std::byte> data) {
    Send(dst, tag, data);
  }
  void Isend(int dst, int tag, Payload payload) {
    Send(dst, tag, std::move(payload));
  }

  /// Posts a non-blocking receive. The request is genuinely pending:
  /// complete it with Wait(), or poll it with Test() to overlap delivery
  /// with local work (the ring pipeline tests between counting batches).
  RecvRequest Irecv(int src, int tag);

  /// Non-blocking completion probe: takes the message out of the mailbox
  /// into the request if one is deliverable now. Returns done().
  bool Test(RecvRequest& request);

  /// Blocks until the request's message has been received into payload().
  void Wait(RecvRequest& request);

  /// Typed conveniences (trivially copyable element types only).
  template <typename T>
  void SendVec(int dst, int tag, const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Send(dst, tag,
         std::span<const std::byte>(
             reinterpret_cast<const std::byte*>(v.data()),
             v.size() * sizeof(T)));
  }
  template <typename T>
  std::vector<T> RecvVec(int src, int tag, int* actual_src = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    const Payload payload = RecvPayload(src, tag, actual_src);
    std::vector<T> out(payload.size() / sizeof(T));
    std::memcpy(out.data(), payload.data(), out.size() * sizeof(T));
    return out;
  }

  // ---- Collectives (must be called by every member) --------------------

  /// Synchronizes all members.
  void Barrier();

  /// Element-wise sum of `inout` across all members; every member ends up
  /// with the reduced array (the paper's "global reduction" used by CD and
  /// by HD along grid rows). log2(P) exchange rounds for every group
  /// size: non-powers-of-two fold the surplus ranks into the nearest
  /// power of two first, then recursive-double.
  void AllReduceSum(std::span<std::uint64_t> inout);

  /// Element-wise max across all members, same schedule as AllReduceSum.
  /// RingShiftAll negotiates its common round count with one of these.
  void AllReduceMax(std::span<std::uint64_t> inout);

  /// Gathers each member's payload; every member receives all payloads
  /// indexed by comm rank (the "all-to-all broadcast" used to exchange
  /// frequent itemsets in DD/IDD and along HD grid columns). Ring
  /// schedule; intermediate hops forward handles without copying.
  std::vector<Payload> AllGatherPayload(Payload mine);

  // ---- Topology --------------------------------------------------------

  /// Creates a sub-communicator containing `member_ranks` (ranks of *this*
  /// comm, which must include rank()). Every listed member must call Sub
  /// with the same list and label. Purely local: comm ids derive
  /// deterministically from (parent id, label, members).
  Comm Sub(const std::vector<int>& member_ranks, std::uint64_t label) const;

  /// Ring neighbors within this comm (IDD's logical ring of Section III-C).
  int RightNeighbor() const { return (rank_ + 1) % size(); }
  int LeftNeighbor() const { return (rank_ + size() - 1) % size(); }

  /// Fault activity of this world rank so far (all comms): faults the
  /// plan injected on its sends, retransmit attempts, and bad envelopes
  /// its receives discarded.
  CommFaultStats MyFaultStats() const;

  /// The world's cancellation token (null unless the runtime installed
  /// one). Rank programs use this for ring-round / pass-boundary check
  /// points without threading the token through every call signature.
  const CancelToken& cancel_token() const { return world_->cancel; }

 private:
  friend class Runtime;
  Comm(std::shared_ptr<internal_mp::WorldState> world, std::uint64_t comm_id,
       std::vector<int> members, int rank);

  int WorldRankOf(int comm_rank) const {
    return members_[static_cast<std::size_t>(comm_rank)];
  }
  /// O(1): precomputed inverse of members_ (built once in the
  /// constructor; Recv consults it once per message).
  int CommRankOfWorld(int world_rank) const {
    return world_to_comm_[static_cast<std::size_t>(world_rank)];
  }

  /// Throws the CommError for a failed take.
  [[noreturn]] void ThrowTakeFailure(internal_mp::Mailbox::TakeStatus status,
                                     int src, int tag) const;

  std::shared_ptr<internal_mp::WorldState> world_;
  std::uint64_t comm_id_ = 0;
  std::vector<int> members_;        // comm rank -> world rank
  std::vector<int> world_to_comm_;  // world rank -> comm rank (-1 if absent)
  int rank_ = 0;                    // my comm rank
};

}  // namespace pam

#endif  // PAM_MP_COMM_H_
