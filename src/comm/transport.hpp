// Message-passing transport — the runtime substrate of the SPMD
// executor (exec/lu_mp).
//
// The paper's programs run on Cray T3D/T3E remote-memory puts; SuperLU's
// descendants run on MPI. This module provides the same abstraction at
// library scale: every rank owns a mailbox, send() deposits a tagged,
// byte-counted message into the destination's mailbox, recv() blocks
// until a matching message exists, probe() tests without blocking.
// Matching is MPI-like — by (source, tag), with kAnySource / kAnyTag
// wildcards — and delivery is FIFO per (source, destination, tag), the
// ordering guarantee the factor-panel pipeline relies on.
//
// `Transport` is the seam where a real MPI backend plugs in later: the
// executor only ever talks to this interface. `MailboxTransport` holds
// the mailbox semantics once, over a storage-and-lock backend; two
// backends ship: `InProcTransport` (ranks are threads of one process)
// and `ProcTransport` (comm/proc_transport; ranks are OS processes).
//
// Deadlock watchdog: a blocking recv can never hang CI. The transport
// detects true deadlock EXACTLY and immediately — all unfinished ranks
// blocked in recv means no message can ever arrive (sends never block)
// — and additionally enforces a wall-clock bound per blocked recv. In
// both cases every blocked rank throws DeadlockError whose message
// carries a per-rank dump: who is blocked on which (source, tag), who
// finished, who is still running.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace sstar::comm {

/// Wildcards for recv/probe matching (MPI_ANY_SOURCE / MPI_ANY_TAG).
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// One delivered message: who sent it, the tag it was sent under, and
/// the payload bytes.
struct Message {
  int src = 0;
  int tag = 0;
  std::vector<std::uint8_t> payload;
};

/// Base error for transport failures (abort propagation from a peer
/// rank, send after shutdown, ...).
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Thrown out of recv() when the transport proves no matching message
/// can ever arrive (all live ranks blocked) or the watchdog bound
/// expires. what() contains the per-rank blocked-recv dump.
class DeadlockError : public TransportError {
 public:
  explicit DeadlockError(const std::string& what) : TransportError(what) {}
};

/// Per-rank traffic counters.
struct RankCommStats {
  std::int64_t messages_sent = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t messages_received = 0;
  std::int64_t bytes_received = 0;
};

/// Abstract point-to-point transport. All calls are thread-safe; each
/// rank is expected to be driven by one thread, but nothing enforces
/// that. This is the interface a future MPI backend implements.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual int ranks() const = 0;

  /// Deposit a tagged message into dst's mailbox. Never blocks
  /// (unbounded mailboxes). Throws TransportError after an abort.
  virtual void send(int src, int dst, int tag,
                    std::vector<std::uint8_t> payload) = 0;

  /// Block until a message matching (src, tag) — wildcards allowed — is
  /// available in `rank`'s mailbox, then remove and return it. Throws
  /// DeadlockError when progress is provably impossible or the watchdog
  /// expires, TransportError after an abort.
  virtual Message recv(int rank, int src, int tag) = 0;

  /// True iff a matching message is available right now (non-blocking).
  virtual bool probe(int rank, int src, int tag) = 0;

  /// Mark `rank`'s program as complete. Required for exact deadlock
  /// detection: a finished rank will never send again.
  virtual void finish(int rank) = 0;

  /// Poison the transport: every blocked or future call throws
  /// TransportError carrying `reason`. Used to propagate a rank's
  /// failure instead of leaving its peers blocked forever.
  virtual void abort(const std::string& reason) = 0;

  virtual RankCommStats stats(int rank) const = 0;
};

/// The mailbox semantics both shipped transports share, written once:
/// (source, tag) matching with wildcards (first match = oldest, hence
/// FIFO per (src, dst, tag)), the exact deadlock predicate, the recv
/// watchdog, the blocked-recv dump, first-abort-wins poisoning, per-rank
/// stats and the trace events. A derived class supplies only storage and
/// locking through the private hooks below, so every diagnostic string
/// is the same whichever transport ran.
class MailboxTransport : public Transport {
 public:
  int ranks() const final { return nranks_; }
  void send(int src, int dst, int tag,
            std::vector<std::uint8_t> payload) final;
  Message recv(int rank, int src, int tag) final;
  bool probe(int rank, int src, int tag) final;
  void finish(int rank) final;
  void abort(const std::string& reason) final;
  RankCommStats stats(int rank) const final;

 protected:
  MailboxTransport(int ranks, double watchdog_seconds);

  /// Per-rank bookkeeping; plain data, so a backend may keep it in
  /// process-shared memory.
  struct RankState {
    std::int32_t waiting = 0;  // blocked in recv right now
    std::int32_t want_src = kAnySource;
    std::int32_t want_tag = kAnyTag;
    std::int32_t finished = 0;
    std::uint64_t queued = 0;  // messages in the mailbox
    RankCommStats stats;
  };
  /// Transport-wide bookkeeping, plain data like RankState.
  struct Flags {
    std::int32_t aborted = 0;
    std::int32_t aborted_deadlock = 0;
    std::int32_t num_finished = 0;
  };
  enum class Wake { kSignaled, kTimeout, kOwnerDied };

 private:
  // --- storage-and-lock backend -------------------------------------------
  // Every hook except lock() runs with the lock held. Queue nodes are
  // opaque non-zero ids; 0 means "none".
  /// Take the lock; true when its previous holder died while holding it.
  virtual bool lock() const = 0;
  virtual void unlock() const = 0;
  /// Release the lock, sleep on `rank`'s wakeup until signaled or
  /// `deadline`, re-acquire.
  virtual Wake wait(int rank,
                    std::chrono::steady_clock::time_point deadline) const = 0;
  virtual void wake(int rank) const = 0;
  virtual RankState& state(int rank) const = 0;
  virtual Flags& flags() const = 0;
  virtual std::string abort_reason() const = 0;
  virtual void set_abort_reason(const std::string& reason) const = 0;
  /// Append a message to dst's mailbox; returns "" or why it cannot.
  virtual std::string enqueue(int dst, Message m) = 0;
  /// The node queued after `node` (0: the oldest) in `rank`'s mailbox,
  /// with its source and tag; 0 at the end.
  virtual std::uint64_t next_queued(int rank, std::uint64_t node, int* src,
                                    int* tag) const = 0;
  /// Unlink `node` (queued right after `prev`, 0: it is the oldest).
  virtual Message dequeue(int rank, std::uint64_t node,
                          std::uint64_t prev) = 0;

  class Guard;
  std::uint64_t find_match_locked(int rank, int src, int tag,
                                  std::uint64_t* prev) const;
  // True iff deadlock is PROVEN: every unfinished rank sits in recv and
  // none of them has a satisfiable match queued. The queue check matters
  // — a rank stays flagged `waiting` from the moment it enters the wait
  // until it re-acquires the lock after being notified, so "everyone
  // waiting" alone is not proof while a freshly delivered message is
  // still unconsumed.
  bool deadlock_locked() const;
  // Poison the transport (first reason wins) and wake every rank.
  void abort_locked(bool deadlock, const std::string& reason) const;
  // The per-rank state dump appended to every deadlock diagnostic.
  std::string dump_locked() const;

  int nranks_;
  double watchdog_seconds_;
};

/// The in-process implementation: per-rank mailboxes guarded by one
/// mutex (message counts are small — one factor-panel broadcast per
/// elimination stage — so a single lock is not a bottleneck), one
/// condition variable per rank.
class InProcTransport final : public MailboxTransport {
 public:
  explicit InProcTransport(int ranks, double watchdog_seconds = 120.0);

 private:
  struct Mailbox {
    std::deque<Message> q;
    std::condition_variable cv;
    RankState st;
  };

  bool lock() const override;
  void unlock() const override;
  Wake wait(int rank,
            std::chrono::steady_clock::time_point deadline) const override;
  void wake(int rank) const override;
  RankState& state(int rank) const override;
  Flags& flags() const override { return flags_; }
  std::string abort_reason() const override { return abort_reason_; }
  void set_abort_reason(const std::string& reason) const override {
    abort_reason_ = reason;
  }
  std::string enqueue(int dst, Message m) override;
  std::uint64_t next_queued(int rank, std::uint64_t node, int* src,
                            int* tag) const override;
  Message dequeue(int rank, std::uint64_t node, std::uint64_t prev) override;

  mutable std::mutex mu_;
  mutable std::vector<Mailbox> box_;
  mutable Flags flags_;
  mutable std::string abort_reason_;
};

}  // namespace sstar::comm
