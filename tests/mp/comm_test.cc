#include "pam/mp/comm.h"

#include <atomic>
#include <numeric>

#include <gtest/gtest.h>

#include "pam/mp/runtime.h"
#include "pam/util/prng.h"
#include "testing/collectives.h"

namespace pam {
namespace {

TEST(CommTest, PointToPointDelivers) {
  Runtime rt(2);
  rt.Run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::uint32_t> payload = {1, 2, 3};
      comm.SendVec(1, 7, payload);
    } else {
      std::vector<std::uint32_t> got = comm.RecvVec<std::uint32_t>(0, 7);
      EXPECT_EQ(got, (std::vector<std::uint32_t>{1, 2, 3}));
    }
  });
}

TEST(CommTest, TagsDemultiplex) {
  Runtime rt(2);
  rt.Run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.SendVec<std::uint32_t>(1, 5, {55});
      comm.SendVec<std::uint32_t>(1, 4, {44});
    } else {
      // Receive in the opposite order of sending.
      EXPECT_EQ(comm.RecvVec<std::uint32_t>(0, 4)[0], 44u);
      EXPECT_EQ(comm.RecvVec<std::uint32_t>(0, 5)[0], 55u);
    }
  });
}

TEST(CommTest, FifoPerSourceAndTag) {
  Runtime rt(2);
  rt.Run([](Comm& comm) {
    const int n = 200;
    if (comm.rank() == 0) {
      for (int i = 0; i < n; ++i) {
        comm.SendVec<std::uint32_t>(1, 3, {static_cast<std::uint32_t>(i)});
      }
    } else {
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(comm.RecvVec<std::uint32_t>(0, 3)[0],
                  static_cast<std::uint32_t>(i));
      }
    }
  });
}

TEST(CommTest, AnySourceReceivesAll) {
  const int p = 5;
  Runtime rt(p);
  rt.Run([p](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<bool> seen(static_cast<std::size_t>(p), false);
      for (int i = 0; i < p - 1; ++i) {
        int src = -1;
        std::vector<std::uint32_t> v =
            comm.RecvVec<std::uint32_t>(-1, 9, &src);
        EXPECT_EQ(v[0], static_cast<std::uint32_t>(src));
        seen[static_cast<std::size_t>(src)] = true;
      }
      for (int r = 1; r < p; ++r) EXPECT_TRUE(seen[static_cast<std::size_t>(r)]);
    } else {
      comm.SendVec<std::uint32_t>(0, 9,
                                  {static_cast<std::uint32_t>(comm.rank())});
    }
  });
}

TEST(CommTest, TryRecvNonBlocking) {
  Runtime rt(2);
  rt.Run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::byte> data;
      EXPECT_FALSE(comm.TryRecv(1, 11, &data));  // nothing sent yet
      comm.Barrier();
      comm.Barrier();  // rank 1 sends between the barriers
      EXPECT_TRUE(comm.TryRecv(1, 11, &data));
      EXPECT_EQ(data.size(), 4u);
    } else {
      comm.Barrier();
      comm.SendVec<std::uint32_t>(0, 11, {1});
      comm.Barrier();
    }
  });
}

TEST(CommTest, BarrierSynchronizes) {
  const int p = 8;
  Runtime rt(p);
  std::atomic<int> phase_counter{0};
  rt.Run([&phase_counter](Comm& comm) {
    for (int phase = 0; phase < 10; ++phase) {
      ++phase_counter;
      comm.Barrier();
      // After the barrier every rank must have bumped the counter.
      EXPECT_GE(phase_counter.load(), (phase + 1) * comm.size());
      comm.Barrier();
    }
  });
}

TEST(CommTest, AllReduceSumsEverywhere) {
  const int p = 7;
  Runtime rt(p);
  rt.Run([](Comm& comm) {
    std::vector<std::uint64_t> vals = {
        static_cast<std::uint64_t>(comm.rank()), 1,
        static_cast<std::uint64_t>(comm.rank()) * 10};
    comm.AllReduceSum(std::span<std::uint64_t>(vals));
    const std::uint64_t ranks_sum = 21;  // 0+..+6
    EXPECT_EQ(vals[0], ranks_sum);
    EXPECT_EQ(vals[1], static_cast<std::uint64_t>(comm.size()));
    EXPECT_EQ(vals[2], ranks_sum * 10);
  });
}

TEST(CommTest, AllReduceSumsPowerOfTwo) {
  // Exercises the recursive-doubling path (group size is a power of two).
  const int p = 8;
  Runtime rt(p);
  rt.Run([](Comm& comm) {
    std::vector<std::uint64_t> vals(100);
    for (std::size_t i = 0; i < vals.size(); ++i) {
      vals[i] = static_cast<std::uint64_t>(comm.rank()) * 1000 + i;
    }
    comm.AllReduceSum(std::span<std::uint64_t>(vals));
    const std::uint64_t rank_sum = 28;  // 0+..+7
    for (std::size_t i = 0; i < vals.size(); ++i) {
      EXPECT_EQ(vals[i], rank_sum * 1000 + 8 * i);
    }
  });
}

TEST(CommTest, RepeatedAllReducesStayAligned) {
  const int p = 4;
  Runtime rt(p);
  rt.Run([](Comm& comm) {
    for (std::uint64_t round = 0; round < 50; ++round) {
      std::vector<std::uint64_t> v = {round};
      comm.AllReduceSum(std::span<std::uint64_t>(v));
      EXPECT_EQ(v[0], round * 4);
    }
  });
}

TEST(CommTest, AllGatherCollectsInRankOrder) {
  const int p = 6;
  Runtime rt(p);
  rt.Run([](Comm& comm) {
    std::vector<std::uint32_t> mine(
        static_cast<std::size_t>(comm.rank()) + 1,
        static_cast<std::uint32_t>(comm.rank()));
    auto blobs = testing::AllGather(comm, std::span<const std::byte>(
        reinterpret_cast<const std::byte*>(mine.data()),
        mine.size() * sizeof(std::uint32_t)));
    ASSERT_EQ(blobs.size(), static_cast<std::size_t>(comm.size()));
    for (int r = 0; r < comm.size(); ++r) {
      const auto& blob = blobs[static_cast<std::size_t>(r)];
      ASSERT_EQ(blob.size(), (static_cast<std::size_t>(r) + 1) * 4);
      const auto* vals = reinterpret_cast<const std::uint32_t*>(blob.data());
      for (int i = 0; i <= r; ++i) {
        EXPECT_EQ(vals[i], static_cast<std::uint32_t>(r));
      }
    }
  });
}

TEST(CommTest, BcastDistributesRootData) {
  Runtime rt(5);
  rt.Run([](Comm& comm) {
    std::vector<std::byte> data;
    if (comm.rank() == 2) {
      data = {std::byte{9}, std::byte{8}};
    }
    std::vector<std::byte> got = testing::Bcast(comm, 2, data);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], std::byte{9});
  });
}

TEST(CommTest, IrecvWaitMatchesIsend) {
  Runtime rt(2);
  rt.Run([](Comm& comm) {
    if (comm.rank() == 0) {
      RecvRequest req = comm.Irecv(1, 13);
      std::vector<std::uint32_t> payload = {77};
      comm.Isend(1, 13, std::span<const std::byte>(
                            reinterpret_cast<const std::byte*>(payload.data()),
                            4));
      comm.Wait(req);
      EXPECT_EQ(req.data().size(), 4u);
    } else {
      RecvRequest req = comm.Irecv(0, 13);
      std::vector<std::uint32_t> payload = {88};
      comm.Isend(0, 13, std::span<const std::byte>(
                            reinterpret_cast<const std::byte*>(payload.data()),
                            4));
      comm.Wait(req);
      const auto* v = reinterpret_cast<const std::uint32_t*>(req.data().data());
      EXPECT_EQ(*v, 77u);
    }
  });
}

TEST(CommTest, TestPollsWithoutBlocking) {
  // Test() must return false while nothing is deliverable and complete the
  // request without a Wait() once the message lands.
  Runtime rt(2);
  rt.Run([](Comm& comm) {
    if (comm.rank() == 0) {
      RecvRequest req = comm.Irecv(1, 14);
      EXPECT_FALSE(comm.Test(req));  // nothing sent yet
      EXPECT_FALSE(req.done());
      comm.Barrier();
      comm.Barrier();  // rank 1 sends between the barriers
      EXPECT_TRUE(comm.Test(req));
      EXPECT_TRUE(req.done());
      EXPECT_EQ(req.data().size(), 4u);
      comm.Wait(req);  // idempotent on a completed request
      EXPECT_EQ(req.data().size(), 4u);
    } else {
      comm.Barrier();
      comm.SendVec<std::uint32_t>(0, 14, {5});
      comm.Barrier();
    }
  });
}

TEST(CommTest, SenderMutationAfterIsendDoesNotCorruptInFlight) {
  // Send(span) snapshots the bytes into an immutable payload: scribbling
  // over the source buffer afterwards must not reach the receiver (nor
  // trip the integrity check).
  Runtime rt(2);
  rt.Run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::uint32_t> buffer = {1, 2, 3, 4};
      comm.Isend(1, 15,
                 std::span<const std::byte>(
                     reinterpret_cast<const std::byte*>(buffer.data()),
                     buffer.size() * sizeof(std::uint32_t)));
      for (auto& x : buffer) x = 0xDEAD;  // mutate after the send
      comm.Barrier();
    } else {
      comm.Barrier();  // receive only after the sender has mutated
      EXPECT_EQ(comm.RecvVec<std::uint32_t>(0, 15),
                (std::vector<std::uint32_t>{1, 2, 3, 4}));
    }
  });
}

TEST(CommTest, ForwardedHandleSurvivesOriginatorScope) {
  // Rank 0 originates a payload inside a scope that ends before the chain
  // completes; ranks 1 and 2 forward the received handle. The refcount —
  // not the originator's stack — must keep the bytes alive.
  Runtime rt(3);
  rt.Run([](Comm& comm) {
    if (comm.rank() == 0) {
      {
        std::vector<std::uint32_t> words(1024);
        for (std::size_t i = 0; i < words.size(); ++i) {
          words[i] = static_cast<std::uint32_t>(i * 3 + 1);
        }
        comm.Send(1, 16,
                  std::span<const std::byte>(
                      reinterpret_cast<const std::byte*>(words.data()),
                      words.size() * sizeof(std::uint32_t)));
      }  // originator's buffer gone
      const std::vector<std::uint32_t> got = comm.RecvVec<std::uint32_t>(2, 16);
      ASSERT_EQ(got.size(), 1024u);
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], static_cast<std::uint32_t>(i * 3 + 1));
      }
    } else {
      Payload handle = comm.RecvPayload(comm.rank() - 1, 16);
      comm.Send((comm.rank() + 1) % 3, 16, std::move(handle));
    }
  });
}

TEST(CommTest, ForwardingAHandleCopiesNothing) {
  // One materialization at the source, then a relay hop and the final
  // receive all share the same buffer: the pool's copy counter must move
  // by exactly one for the whole chain.
  Runtime rt(2);
  const std::uint64_t copies_before = BufferPool::CopyCount();
  rt.Run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::uint32_t> words = {10, 20, 30};
      comm.Send(1, 17,
                std::span<const std::byte>(
                    reinterpret_cast<const std::byte*>(words.data()),
                    words.size() * sizeof(std::uint32_t)));
      const Payload back = comm.RecvPayload(1, 18);
      EXPECT_EQ(back.size(), 12u);
    } else {
      Payload handle = comm.RecvPayload(0, 17);
      comm.Send(0, 18, std::move(handle));  // relay: same handle
    }
  });
  EXPECT_EQ(BufferPool::CopyCount() - copies_before, 1u);
}

TEST(CommTest, AllReduceMaxEverywhere) {
  const int p = 6;  // exercises the non-power-of-two fold
  Runtime rt(p);
  rt.Run([p](Comm& comm) {
    std::vector<std::uint64_t> vals = {
        static_cast<std::uint64_t>(comm.rank()),
        static_cast<std::uint64_t>(p - comm.rank()), 7};
    comm.AllReduceMax(std::span<std::uint64_t>(vals));
    EXPECT_EQ(vals[0], static_cast<std::uint64_t>(p - 1));
    EXPECT_EQ(vals[1], static_cast<std::uint64_t>(p));
    EXPECT_EQ(vals[2], 7u);
  });
}

TEST(CommTest, BcastFromEveryRootNonPowerOfTwo) {
  // The binomial tree must deliver for any root in a non-power-of-two
  // group (vrank arithmetic wraps around the ring).
  const int p = 7;
  Runtime rt(p);
  rt.Run([p](Comm& comm) {
    for (int root = 0; root < p; ++root) {
      std::vector<std::byte> data;
      if (comm.rank() == root) {
        data = {std::byte{static_cast<unsigned char>(root)},
                std::byte{42}};
      }
      const std::vector<std::byte> got = testing::Bcast(comm, root, data);
      ASSERT_EQ(got.size(), 2u);
      EXPECT_EQ(got[0], std::byte{static_cast<unsigned char>(root)});
      EXPECT_EQ(got[1], std::byte{42});
    }
  });
}

TEST(CommTest, RingNeighbors) {
  Runtime rt(4);
  rt.Run([](Comm& comm) {
    EXPECT_EQ(comm.RightNeighbor(), (comm.rank() + 1) % 4);
    EXPECT_EQ(comm.LeftNeighbor(), (comm.rank() + 3) % 4);
  });
}

TEST(CommTest, SubCommunicatorIsolatesTraffic) {
  const int p = 6;
  Runtime rt(p);
  rt.Run([](Comm& comm) {
    // Two groups: even and odd ranks.
    std::vector<int> members;
    for (int r = comm.rank() % 2; r < comm.size(); r += 2) {
      members.push_back(r);
    }
    Comm sub = comm.Sub(members, /*label=*/comm.rank() % 2 == 0 ? 100 : 200);
    EXPECT_EQ(sub.size(), 3);
    // Reduce within the group: sums differ between groups.
    std::vector<std::uint64_t> v = {static_cast<std::uint64_t>(comm.rank())};
    sub.AllReduceSum(std::span<std::uint64_t>(v));
    if (comm.rank() % 2 == 0) {
      EXPECT_EQ(v[0], 0u + 2 + 4);
    } else {
      EXPECT_EQ(v[0], 1u + 3 + 5);
    }
  });
}

TEST(CommTest, NestedSubCommunicators) {
  // 2x2 grid from 4 ranks: row comms then column comms, HD-style.
  Runtime rt(4);
  rt.Run([](Comm& comm) {
    const int row = comm.rank() / 2;
    const int col = comm.rank() % 2;
    Comm row_comm = comm.Sub({row * 2, row * 2 + 1}, 1);
    Comm col_comm = comm.Sub({col, col + 2}, 2);
    EXPECT_EQ(row_comm.size(), 2);
    EXPECT_EQ(col_comm.size(), 2);

    std::vector<std::uint64_t> v = {1};
    row_comm.AllReduceSum(std::span<std::uint64_t>(v));
    EXPECT_EQ(v[0], 2u);
    col_comm.AllReduceSum(std::span<std::uint64_t>(v));
    EXPECT_EQ(v[0], 4u);
  });
}

TEST(CommTest, TrafficCountersAccumulate) {
  Runtime rt(2);
  rt.Run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.SendVec<std::uint32_t>(1, 1, {1, 2, 3, 4});
    } else {
      comm.RecvVec<std::uint32_t>(0, 1);
    }
  });
  EXPECT_EQ(rt.TotalBytesSent(), 16u);
  EXPECT_EQ(rt.TotalMessagesSent(), 1u);
}

TEST(CommTest, RandomizedMessageStorm) {
  // Every rank sends a random-but-deterministic workload to every other
  // rank; receivers verify checksums. Exercises mailbox matching under
  // heavy interleaving.
  const int p = 5;
  Runtime rt(p);
  rt.Run([p](Comm& comm) {
    const int per_pair = 50;
    Prng rng(1000 + static_cast<std::uint64_t>(comm.rank()));
    for (int i = 0; i < per_pair; ++i) {
      for (int dst = 0; dst < p; ++dst) {
        if (dst == comm.rank()) continue;
        std::vector<std::uint64_t> payload = {
            static_cast<std::uint64_t>(comm.rank()),
            static_cast<std::uint64_t>(i), rng.NextU64()};
        payload.push_back(payload[0] ^ payload[1] ^ payload[2]);
        comm.SendVec(dst, 21, payload);
      }
    }
    for (int i = 0; i < per_pair * (p - 1); ++i) {
      std::vector<std::uint64_t> got = comm.RecvVec<std::uint64_t>(-1, 21);
      ASSERT_EQ(got.size(), 4u);
      EXPECT_EQ(got[3], got[0] ^ got[1] ^ got[2]);
    }
    comm.Barrier();
  });
}

TEST(CommTest, ZeroByteMessageDelivers) {
  // Empty payloads are real messages (HPA uses them as end-of-stream
  // markers); framing must pass them through intact.
  Runtime rt(2);
  rt.Run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Send(1, 6, std::span<const std::byte>());
      comm.SendVec<std::uint32_t>(1, 6, {1});
    } else {
      EXPECT_TRUE(comm.Recv(0, 6).empty());
      EXPECT_EQ(comm.RecvVec<std::uint32_t>(0, 6)[0], 1u);  // FIFO kept
    }
  });
}

TEST(CommTest, SelfSendDelivers) {
  Runtime rt(3);
  rt.Run([](Comm& comm) {
    comm.SendVec<std::uint32_t>(comm.rank(), 8,
                                {static_cast<std::uint32_t>(comm.rank())});
    std::vector<std::byte> data;
    EXPECT_TRUE(comm.TryRecv(comm.rank(), 8, &data));
    EXPECT_EQ(*reinterpret_cast<const std::uint32_t*>(data.data()),
              static_cast<std::uint32_t>(comm.rank()));
    // And via blocking receive.
    comm.SendVec<std::uint32_t>(comm.rank(), 8, {99});
    EXPECT_EQ(comm.RecvVec<std::uint32_t>(comm.rank(), 8)[0], 99u);
  });
}

TEST(CommTest, InterleavedTagsFromSameSourceStayFifoPerTag) {
  // One source interleaves many sends across three tags; each tag's
  // stream must come out FIFO no matter the order the receiver drains
  // them in.
  Runtime rt(2);
  rt.Run([](Comm& comm) {
    const int n = 60;
    if (comm.rank() == 0) {
      for (int i = 0; i < n; ++i) {
        comm.SendVec<std::uint32_t>(1, 100 + i % 3,
                                    {static_cast<std::uint32_t>(i)});
      }
    } else {
      // Drain tag 102 fully, then 100, then 101.
      for (int tag : {102, 100, 101}) {
        for (int i = tag - 100; i < n; i += 3) {
          EXPECT_EQ(comm.RecvVec<std::uint32_t>(0, tag)[0],
                    static_cast<std::uint32_t>(i))
              << "tag " << tag;
        }
      }
    }
  });
}

TEST(CommTest, SubCommPointToPointIsolation) {
  // Same endpoints, same tag, two different sub-communicators: traffic on
  // one must be invisible on the other (streams are keyed by comm id).
  Runtime rt(2);
  rt.Run([](Comm& comm) {
    Comm a = comm.Sub({0, 1}, /*label=*/10);
    Comm b = comm.Sub({0, 1}, /*label=*/20);
    if (comm.rank() == 0) {
      a.SendVec<std::uint32_t>(1, 5, {111});
      b.SendVec<std::uint32_t>(1, 5, {222});
    } else {
      std::vector<std::byte> data;
      // b's message must not satisfy a receive on... a's stream has its
      // own message here, so check cross-delivery by draining b first.
      EXPECT_EQ(b.RecvVec<std::uint32_t>(0, 5)[0], 222u);
      EXPECT_EQ(a.RecvVec<std::uint32_t>(0, 5)[0], 111u);
      EXPECT_FALSE(a.TryRecv(0, 5, &data));
      EXPECT_FALSE(b.TryRecv(0, 5, &data));
    }
  });
}

// ---- Fault injection unit tests -----------------------------------------

TEST(CommFaultTest, CorruptionRepairedByRetransmit) {
  // Half of all delivery attempts corrupt the payload; with a retransmit
  // budget every message still arrives intact and in order.
  Runtime rt(2);
  FaultConfig fc = FaultConfig::Uniform(FaultKind::kCorrupt, 0.5,
                                        /*seed=*/5, /*max_retries=*/16);
  fc.recv_timeout_ms = 5000;
  rt.SetFaultConfig(fc);
  rt.Run([](Comm& comm) {
    const int n = 100;
    if (comm.rank() == 0) {
      for (int i = 0; i < n; ++i) {
        comm.SendVec<std::uint32_t>(1, 3, {static_cast<std::uint32_t>(i), 7u});
      }
    } else {
      for (int i = 0; i < n; ++i) {
        std::vector<std::uint32_t> got = comm.RecvVec<std::uint32_t>(0, 3);
        ASSERT_EQ(got.size(), 2u);
        EXPECT_EQ(got[0], static_cast<std::uint32_t>(i));
        EXPECT_EQ(got[1], 7u);
      }
    }
  });
  const CommFaultStats stats = rt.TotalFaultStats();
  EXPECT_GT(stats.injected, 0u);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.detected, 0u);  // receiver discarded the corrupt copies
}

TEST(CommFaultTest, DuplicatesFilteredBySequenceNumber) {
  Runtime rt(2);
  rt.SetFaultConfig(FaultConfig::Uniform(FaultKind::kDuplicate, 1.0,
                                         /*seed=*/6, /*max_retries=*/0));
  rt.Run([](Comm& comm) {
    const int n = 50;
    if (comm.rank() == 0) {
      for (int i = 0; i < n; ++i) {
        comm.SendVec<std::uint32_t>(1, 4, {static_cast<std::uint32_t>(i)});
      }
    } else {
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(comm.RecvVec<std::uint32_t>(0, 4)[0],
                  static_cast<std::uint32_t>(i));
      }
      // The duplicate copies must not linger as phantom messages.
      std::vector<std::byte> data;
      EXPECT_FALSE(comm.TryRecv(0, 4, &data));
    }
  });
  EXPECT_EQ(rt.TotalFaultStats().injected, 50u);
  EXPECT_GT(rt.TotalFaultStats().detected, 0u);
}

TEST(CommFaultTest, ReorderRepairedByResequencing) {
  // Every envelope jumps the queue, yet the receiver still sees the
  // stream in sequence order.
  Runtime rt(2);
  rt.SetFaultConfig(FaultConfig::Uniform(FaultKind::kReorder, 1.0,
                                         /*seed=*/8, /*max_retries=*/0));
  rt.Run([](Comm& comm) {
    const int n = 50;
    if (comm.rank() == 0) {
      for (int i = 0; i < n; ++i) {
        comm.SendVec<std::uint32_t>(1, 2, {static_cast<std::uint32_t>(i)});
      }
    } else {
      comm.Barrier();  // let all sends land so the queue is truly scrambled
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(comm.RecvVec<std::uint32_t>(0, 2)[0],
                  static_cast<std::uint32_t>(i));
      }
    }
    if (comm.rank() == 0) comm.Barrier();
  });
}

TEST(CommFaultTest, ExhaustedRetransmitBudgetTimesOut) {
  // Certain drop with no retries: the message is lost and the receiver's
  // deadline turns the loss into a structured, attributed error.
  Runtime rt(2);
  FaultConfig fc = FaultConfig::Uniform(FaultKind::kDrop, 1.0, /*seed=*/9,
                                        /*max_retries=*/0);
  fc.recv_timeout_ms = 100;
  rt.SetFaultConfig(fc);
  try {
    rt.Run([](Comm& comm) {
      if (comm.rank() == 0) {
        comm.SendVec<std::uint32_t>(1, 5, {1});
      } else {
        comm.RecvVec<std::uint32_t>(0, 5);
      }
    });
    FAIL() << "lost message did not surface as CommError";
  } catch (const CommError& e) {
    EXPECT_EQ(e.kind(), CommErrorKind::kTimeout);
    EXPECT_EQ(e.rank(), 1);
    EXPECT_EQ(e.peer(), 0);
    EXPECT_EQ(e.tag(), 5);
  }
}

TEST(CommFaultTest, EmptyPayloadCorruptionBecomesDrop) {
  // A zero-byte payload cannot be corrupted or truncated; the schedule
  // substitutes a drop, which here (no retries) loses the marker.
  Runtime rt(2);
  FaultConfig fc = FaultConfig::Uniform(FaultKind::kCorrupt, 1.0,
                                        /*seed=*/3, /*max_retries=*/0);
  fc.recv_timeout_ms = 100;
  rt.SetFaultConfig(fc);
  EXPECT_THROW(rt.Run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Send(1, 5, std::span<const std::byte>());
    } else {
      comm.Recv(0, 5);
    }
  }),
               CommError);
}

TEST(CommFaultTest, TimeoutWithNoSenderAtAll) {
  // Deadline applies to receives generally, not just faulted streams.
  Runtime rt(2);
  FaultConfig fc;
  fc.enabled = true;  // all probabilities zero: no injection, just deadlines
  fc.recv_timeout_ms = 100;
  rt.SetFaultConfig(fc);
  EXPECT_THROW(rt.Run([](Comm& comm) {
    if (comm.rank() == 1) comm.Recv(0, 5);
  }),
               CommError);
}

TEST(CommFaultTest, StallDelaysButDelivers) {
  Runtime rt(2);
  FaultConfig fc = FaultConfig::Uniform(FaultKind::kStall, 1.0, /*seed=*/4,
                                        /*max_retries=*/0);
  fc.stall_ticks_ms = 1;
  rt.SetFaultConfig(fc);
  rt.Run([](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        comm.SendVec<std::uint32_t>(1, 7, {static_cast<std::uint32_t>(i)});
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(comm.RecvVec<std::uint32_t>(0, 7)[0],
                  static_cast<std::uint32_t>(i));
      }
    }
  });
  EXPECT_EQ(rt.TotalFaultStats().injected, 10u);
}

TEST(CommFaultTest, CollectivesSurviveMixedFaults) {
  // The collectives are built on the same point-to-point machinery, so a
  // faulty transport under them must still yield exact reductions.
  const int p = 4;
  Runtime rt(p);
  FaultConfig fc = FaultConfig::Mixed(0.3, /*seed=*/12, /*max_retries=*/16);
  fc.recv_timeout_ms = 5000;
  rt.SetFaultConfig(fc);
  rt.Run([](Comm& comm) {
    for (std::uint64_t round = 0; round < 20; ++round) {
      std::vector<std::uint64_t> v = {round, static_cast<std::uint64_t>(
                                                 comm.rank())};
      comm.AllReduceSum(std::span<std::uint64_t>(v));
      EXPECT_EQ(v[0], round * 4);
      EXPECT_EQ(v[1], 6u);  // 0+1+2+3
      comm.Barrier();
    }
  });
  EXPECT_GT(rt.TotalFaultStats().injected, 0u);
}

TEST(CommFaultTest, TrafficCountersExcludeRetransmits) {
  // Figure benches rely on exact logical traffic counts; retransmitted
  // and duplicated copies must not inflate them.
  auto run_once = [](const FaultConfig& fc) {
    Runtime rt(2);
    rt.SetFaultConfig(fc);
    rt.Run([](Comm& comm) {
      if (comm.rank() == 0) {
        for (int i = 0; i < 20; ++i) {
          comm.SendVec<std::uint32_t>(1, 1, {1, 2, 3});
        }
      } else {
        for (int i = 0; i < 20; ++i) comm.RecvVec<std::uint32_t>(0, 1);
      }
    });
    return std::pair<std::uint64_t, std::uint64_t>(rt.TotalBytesSent(),
                                                   rt.TotalMessagesSent());
  };
  const auto clean = run_once(FaultConfig());
  FaultConfig noisy = FaultConfig::Mixed(0.4, /*seed=*/2, /*max_retries=*/16);
  noisy.recv_timeout_ms = 5000;
  const auto faulty = run_once(noisy);
  EXPECT_EQ(clean, faulty);
}

}  // namespace
}  // namespace pam
