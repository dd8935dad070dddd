// One unit and fault suite for both shipped transports (comm/transport
// and comm/proc_transport): MPI-like (source, tag) matching with
// wildcards, FIFO delivery per (source, destination, tag), per-rank
// traffic counters, and — the CI-safety property — that a blocked
// recv() can NEVER hang: provable deadlocks (all live ranks blocked, or
// blocked ranks waiting on finished peers) abort immediately with a
// per-rank dump, a wall-clock watchdog bounds everything else, and
// abort() wakes every blocked receiver.
//
// Every case is written once over the transport type T and registered
// twice: as Transport.<Case> over InProcTransport and as
// TransportProc.<Case> over ProcTransport (whose primitives are
// process-shared, so threads drive it as well as processes). A gtest
// typed suite would rename every case to Transport/<type>.<Case>; the
// macro keeps the names CI filters select. The proc-only cases live in
// test_transport_proc.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include "comm/proc_transport.hpp"
#include "comm/transport.hpp"

namespace sstar::comm {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (const int x : v) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

#if defined(__linux__)
#define TRANSPORT_PROC_CASE(name) \
  TEST(TransportProc, name) { name##_case<ProcTransport>(); }
#else
#define TRANSPORT_PROC_CASE(name)
#endif

#define TRANSPORT_CASE(name)                                 \
  template <class T>                                         \
  void name##_case();                                        \
  TEST(Transport, name) { name##_case<InProcTransport>(); }  \
  TRANSPORT_PROC_CASE(name)                                  \
  template <class T>                                         \
  void name##_case()

TRANSPORT_CASE(SendRecvRoundtrip) {
  T tp(2);
  std::thread sender([&] { tp.send(0, 1, 42, bytes({1, 2, 3})); });
  const Message m = tp.recv(1, 0, 42);
  sender.join();
  EXPECT_EQ(m.src, 0);
  EXPECT_EQ(m.tag, 42);
  EXPECT_EQ(m.payload, bytes({1, 2, 3}));
}

TRANSPORT_CASE(TagMatchingSelectsAcrossQueueOrder) {
  T tp(1);
  tp.send(0, 0, 1, bytes({10}));
  tp.send(0, 0, 2, bytes({20}));
  // Ask for tag 2 first: matching must skip the queued tag-1 message.
  EXPECT_EQ(tp.recv(0, 0, 2).payload, bytes({20}));
  EXPECT_EQ(tp.recv(0, 0, 1).payload, bytes({10}));
}

TRANSPORT_CASE(SourceMatching) {
  T tp(3);
  tp.send(1, 2, 7, bytes({1}));
  tp.send(0, 2, 7, bytes({0}));
  EXPECT_EQ(tp.recv(2, 0, 7).payload, bytes({0}));
  EXPECT_EQ(tp.recv(2, 1, 7).payload, bytes({1}));
}

TRANSPORT_CASE(FifoPerSourceDestinationTag) {
  T tp(2);
  for (int i = 0; i < 5; ++i) tp.send(0, 1, 9, bytes({i}));
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(tp.recv(1, 0, 9).payload, bytes({i})) << "message " << i;
}

TRANSPORT_CASE(Wildcards) {
  T tp(3);
  tp.send(2, 0, 5, bytes({2}));
  const Message any_src = tp.recv(0, kAnySource, 5);
  EXPECT_EQ(any_src.src, 2);
  tp.send(1, 0, 8, bytes({8}));
  const Message any_tag = tp.recv(0, 1, kAnyTag);
  EXPECT_EQ(any_tag.tag, 8);
  tp.send(1, 0, 3, bytes({3}));
  const Message any_any = tp.recv(0, kAnySource, kAnyTag);
  EXPECT_EQ(any_any.src, 1);
  EXPECT_EQ(any_any.tag, 3);
}

// Distinct tags are independent channels: a backlog on one tag must
// neither block nor reorder another tag's traffic, while delivery
// WITHIN each (src, dst, tag) channel stays FIFO. This is the exact
// guarantee the static comm auditor (analysis/comm_audit) assumes when
// it pairs the i-th send on a channel with the i-th recv.
TRANSPORT_CASE(FifoPreservedAcrossInterleavedTags) {
  T tp(2);
  tp.send(0, 1, 7, bytes({70}));
  tp.send(0, 1, 9, bytes({90}));
  tp.send(0, 1, 7, bytes({71}));
  tp.send(0, 1, 9, bytes({91}));
  // Drain tag 9 first: the older tag-7 backlog must not be touched.
  EXPECT_EQ(tp.recv(1, 0, 9).payload, bytes({90}));
  EXPECT_EQ(tp.recv(1, 0, 9).payload, bytes({91}));
  EXPECT_EQ(tp.recv(1, 0, 7).payload, bytes({70}));
  EXPECT_EQ(tp.recv(1, 0, 7).payload, bytes({71}));
}

// Negative: a wildcard recv matches the OLDEST queued message whatever
// its tag, so it can steal a tagged message a later exact-match recv
// was written for — MPI semantics, and the reason the LU message plans
// never post wildcards. The stolen channel's recv then provably
// deadlocks (sender finished, nothing queued), so the mistake is loud,
// not a silent mismatch.
TRANSPORT_CASE(WildcardRecvStealsTaggedMessageAndExactRecvDeadlocks) {
  T tp(2, /*watchdog_seconds=*/600.0);
  tp.send(0, 1, 7, bytes({70}));  // oldest: the exact recv's message
  tp.send(0, 1, 9, bytes({90}));
  tp.finish(0);
  const Message stolen = tp.recv(1, 0, kAnyTag);
  EXPECT_EQ(stolen.tag, 7);  // wildcard took the tag-7 message
  EXPECT_EQ(stolen.payload, bytes({70}));
  // The untouched tag-9 channel still delivers in order...
  EXPECT_EQ(tp.recv(1, 0, 9).payload, bytes({90}));
  // ...but the stolen channel's exact-match recv can never be served.
  EXPECT_THROW((void)tp.recv(1, 0, 7), DeadlockError);
}

TRANSPORT_CASE(ProbeIsNonBlocking) {
  T tp(2);
  EXPECT_FALSE(tp.probe(1, 0, 4));
  EXPECT_FALSE(tp.probe(1, kAnySource, kAnyTag));
  tp.send(0, 1, 4, bytes({1}));
  EXPECT_TRUE(tp.probe(1, 0, 4));
  EXPECT_TRUE(tp.probe(1, kAnySource, kAnyTag));
  EXPECT_FALSE(tp.probe(1, 0, 5));  // wrong tag
  (void)tp.recv(1, 0, 4);
  EXPECT_FALSE(tp.probe(1, 0, 4));
}

TRANSPORT_CASE(StatsCountMessagesAndBytes) {
  T tp(2);
  tp.send(0, 1, 1, bytes({1, 2, 3, 4}));
  tp.send(0, 1, 1, bytes({5}));
  (void)tp.recv(1, 0, 1);
  EXPECT_EQ(tp.stats(0).messages_sent, 2);
  EXPECT_EQ(tp.stats(0).bytes_sent, 5);
  EXPECT_EQ(tp.stats(1).messages_received, 1);
  EXPECT_EQ(tp.stats(1).bytes_received, 4);
  EXPECT_EQ(tp.stats(1).messages_sent, 0);
}

// All live ranks blocked in recv: a PROVABLE deadlock (sends never
// block), detected exactly and immediately — the generous watchdog
// bound must play no role, so a hung program fails CI in milliseconds,
// not after a timeout.
TRANSPORT_CASE(DeadlockAllBlockedDetectedImmediately) {
  T tp(2, /*watchdog_seconds=*/600.0);
  std::string what0, what1;
  std::thread r0([&] {
    try {
      (void)tp.recv(0, 1, 11);
      ADD_FAILURE() << "rank 0 recv returned";
    } catch (const DeadlockError& e) {
      what0 = e.what();
    }
  });
  std::thread r1([&] {
    try {
      (void)tp.recv(1, 0, 22);
      ADD_FAILURE() << "rank 1 recv returned";
    } catch (const DeadlockError& e) {
      what1 = e.what();
    }
  });
  r0.join();
  r1.join();
  // Both throws carry the per-rank dump naming the blocked receives.
  for (const std::string& what : {what0, what1}) {
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("blocked in recv"), std::string::npos) << what;
  }
  EXPECT_NE(what0.find("tag=11"), std::string::npos) << what0;
  EXPECT_NE(what0.find("tag=22"), std::string::npos) << what0;
}

// A rank blocked on a peer that already finished its program can never
// be served either; also provable, also immediate.
TRANSPORT_CASE(DeadlockWaitingOnFinishedPeer) {
  T tp(2, /*watchdog_seconds=*/600.0);
  std::thread r0([&] {
    EXPECT_THROW((void)tp.recv(0, 1, 33), DeadlockError);
  });
  tp.finish(1);
  r0.join();
}

// Regression for a false positive in the all-blocked proof: a rank
// stays flagged as waiting from the moment it parks on its condition
// variable until the wake-up re-acquires the transport mutex, so a rank
// whose matching message JUST arrived still looks blocked. If the last
// live rank then enters recv, counting flags alone "proves" deadlock
// even though rank 0 is about to consume its message. The detector must
// check queued matches, not just the flags.
TRANSPORT_CASE(RankWithSatisfiableMessageQueuedIsNotDeadlocked) {
  T tp(2, /*watchdog_seconds=*/600.0);
  std::thread r0([&] {
    const Message m = tp.recv(0, 1, 7);  // blocks: nothing sent yet
    EXPECT_EQ(m.payload, bytes({70}));
    tp.send(0, 1, 9, bytes({90}));
    tp.finish(0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // r0 parks
  // Deliver rank 0's message and IMMEDIATELY block this thread as rank
  // 1 — on one core, rank 0 has almost certainly not been rescheduled
  // yet, so both ranks are flagged waiting right now.
  tp.send(1, 0, 7, bytes({70}));
  const Message m = tp.recv(1, 0, 9);
  EXPECT_EQ(m.payload, bytes({90}));
  r0.join();
  tp.finish(1);
}

// No provable deadlock (one rank keeps "running" and never blocks), but
// no progress either: the wall-clock watchdog converts the hang into a
// DeadlockError naming the stuck rank.
TRANSPORT_CASE(WatchdogBoundsSilentHangs) {
  T tp(2, /*watchdog_seconds=*/0.2);
  try {
    (void)tp.recv(0, 1, 44);  // rank 1 never blocks, finishes, or sends
    FAIL() << "recv returned";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("watchdog"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("tag=44"), std::string::npos) << what;
  }
}

TRANSPORT_CASE(AbortWakesBlockedReceivers) {
  T tp(2, /*watchdog_seconds=*/600.0);
  std::string what;
  std::thread r0([&] {
    try {
      (void)tp.recv(0, 1, 55);
      ADD_FAILURE() << "recv returned";
    } catch (const DeadlockError&) {
      ADD_FAILURE() << "abort() must not masquerade as deadlock";
    } catch (const TransportError& e) {
      what = e.what();
    }
  });
  // Poison after a short delay; whether rank 0 blocked already or is
  // about to enter recv, it must see the TransportError.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  tp.abort("rank 1 exploded");
  r0.join();
  EXPECT_NE(what.find("rank 1 exploded"), std::string::npos) << what;
}

TRANSPORT_CASE(CallsAfterAbortThrow) {
  T tp(2);
  tp.abort("poisoned");
  EXPECT_THROW(tp.send(0, 1, 1, bytes({1})), TransportError);
  EXPECT_THROW((void)tp.recv(1, 0, 1), TransportError);
  EXPECT_THROW((void)tp.probe(1, 0, 1), TransportError);
}

TRANSPORT_CASE(FinishIsIdempotentAndCleanShutdownDoesNotAbort) {
  T tp(2);
  tp.send(0, 1, 1, bytes({1}));
  tp.finish(0);
  tp.finish(0);
  EXPECT_EQ(tp.recv(1, 0, 1).payload, bytes({1}));  // queued before finish
  tp.finish(1);
  // A fully finished transport is not aborted; stats stay readable.
  EXPECT_EQ(tp.stats(0).messages_sent, 1);
}

}  // namespace
}  // namespace sstar::comm
