// Out-of-process transport: the second storage-and-lock backend of the
// MailboxTransport core (DESIGN.md §16). Ranks are real OS processes
// (or threads — the primitives are process-shared either way)
// exchanging messages through one anonymous MAP_SHARED segment:
//
//   [ header | per-rank slots | message pool ]
//
// The header holds a PTHREAD_PROCESS_SHARED **robust** mutex (so a
// peer dying while holding the lock surfaces as EOWNERDEAD + a pinned
// abort instead of a hang) and the core's abort/finished flags; each
// rank's slot has a process-shared condition variable on
// CLOCK_MONOTONIC (futex-backed on Linux), the core's per-rank state
// and an intrusive FIFO of pool offsets. The pool is a bump allocator —
// sends never block and never reuse nodes, preserving the liveness
// argument the exact deadlock detector rests on (see transport.hpp).
// Pool exhaustion is a loud abort naming the capacity, not a stall.
//
// The segment must be created BEFORE the rank processes fork (it is
// inherited by address-space copy); exec/lu_mp's proc driver does
// exactly that. Matching, deadlock detection, the watchdog, stats,
// abort and every diagnostic string come from MailboxTransport, the
// code InProcTransport runs too.
#pragma once

#include <cstddef>

#include "comm/transport.hpp"

namespace sstar::comm {

class ProcTransport final : public MailboxTransport {
 public:
  /// Default message-pool capacity. Pages are zero-fill-on-demand, so
  /// untouched capacity costs address space only.
  static constexpr std::size_t kDefaultPoolBytes = std::size_t{256} << 20;

  /// Create the shared segment for `ranks` mailboxes. Must run in the
  /// parent before any rank process forks. Throws TransportError when
  /// the platform lacks process-shared robust primitives.
  explicit ProcTransport(int ranks, double watchdog_seconds = 120.0,
                         std::size_t pool_bytes = kDefaultPoolBytes);
  ~ProcTransport() override;

  ProcTransport(const ProcTransport&) = delete;
  ProcTransport& operator=(const ProcTransport&) = delete;

 private:
  struct Shared;  // segment header (defined in the .cpp)
  struct Slot;    // per-rank shared state

  Slot& slot(int r) const;

  bool lock() const override;
  void unlock() const override;
  Wake wait(int rank,
            std::chrono::steady_clock::time_point deadline) const override;
  void wake(int rank) const override;
  RankState& state(int rank) const override;
  Flags& flags() const override;
  std::string abort_reason() const override;
  void set_abort_reason(const std::string& reason) const override;
  std::string enqueue(int dst, Message m) override;
  std::uint64_t next_queued(int rank, std::uint64_t node, int* src,
                            int* tag) const override;
  Message dequeue(int rank, std::uint64_t node, std::uint64_t prev) override;

  Shared* sh_ = nullptr;
  std::size_t map_bytes_ = 0;
};

}  // namespace sstar::comm
