// Proc-only tests for the out-of-process transport
// (comm/proc_transport). The semantics it shares with InProcTransport
// run as the TransportProc.* instantiation of the suite in
// test_transport.cpp; this file covers what only the shared-memory
// backend has: the bounded message pool, true cross-process delivery
// via fork, the unsupported-platform error, and a check that identical
// scenarios print identical diagnostics on both transports.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "comm/proc_transport.hpp"
#include "comm/transport.hpp"

namespace sstar::comm {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (const int x : v) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

#if !defined(__linux__)

TEST(TransportProc, UnsupportedPlatformThrowsLoudly) {
  EXPECT_THROW(ProcTransport tp(2), TransportError);
}

#else

// The liveness invariant the deadlock proof rests on is "sends never
// block"; the bump pool buys it with finite capacity. Exhaustion must
// be a loud poison-everyone abort naming the capacity and the knob, not
// a stall.
TEST(TransportProc, PoolExhaustionAbortsLoudly) {
  ProcTransport tp(2, /*watchdog_seconds=*/600.0,
                   /*pool_bytes=*/std::size_t{1} << 16);
  const std::vector<std::uint8_t> big(40000, 0xAB);
  try {
    tp.send(0, 1, 1, big);
    tp.send(0, 1, 2, big);  // cannot fit: 80000 > 65536
    FAIL() << "second send fit a full pool";
  } catch (const TransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pool exhausted"), std::string::npos) << what;
    EXPECT_NE(what.find("proc_pool_bytes"), std::string::npos) << what;
  }
  EXPECT_THROW((void)tp.recv(1, 0, 1), TransportError);  // poisoned
}

// For identical scenarios, the diagnostic text must be byte-for-byte
// the InProcTransport text: fault tooling, CI greps, and the fault
// tests themselves never branch on which transport ran.
TEST(TransportProc, DiagnosticsMatchInProcByteForByte) {
  const auto deadlock_what = [](Transport& tp) {
    std::string what0;
    std::thread r0([&] {
      try {
        (void)tp.recv(0, 1, 11);
      } catch (const DeadlockError& e) {
        what0 = e.what();
      }
    });
    std::thread r1([&] {
      try {
        (void)tp.recv(1, 0, 22);
      } catch (const DeadlockError&) {
      }
    });
    r0.join();
    r1.join();
    return what0;
  };
  InProcTransport a(2, 600.0);
  ProcTransport b(2, 600.0);
  EXPECT_EQ(deadlock_what(a), deadlock_what(b));

  const auto watchdog_what = [](Transport& tp) {
    try {
      (void)tp.recv(0, 1, 44);
    } catch (const DeadlockError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  InProcTransport c(2, 0.2);
  ProcTransport d(2, 0.2);
  EXPECT_EQ(watchdog_what(c), watchdog_what(d));
}

// True cross-process delivery: a forked child sends; the parent
// receives the bytes through the shared segment.
TEST(TransportProc, CrossProcessSendRecv) {
  ProcTransport tp(2, /*watchdog_seconds=*/30.0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    tp.send(1, 0, 77, bytes({9, 8, 7}));
    tp.finish(1);
    _exit(0);
  }
  const Message m = tp.recv(0, 1, 77);
  EXPECT_EQ(m.src, 1);
  EXPECT_EQ(m.payload, bytes({9, 8, 7}));
  tp.finish(0);
  int st = 0;
  ASSERT_EQ(waitpid(pid, &st, 0), pid);
  EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
}

#endif  // __linux__

}  // namespace
}  // namespace sstar::comm
