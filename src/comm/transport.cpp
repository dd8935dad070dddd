#include "comm/transport.hpp"

#include <sstream>

#include "trace/trace.hpp"
#include "util/check.hpp"

namespace sstar::comm {

namespace {

const char kOwnerDied[] =
    "peer rank process died while holding the transport lock (robust mutex "
    "recovered)";

void record_comm_event(trace::EventKind kind, int lane, int peer, int tag,
                       std::size_t bytes, double t0, double t1) {
  trace::TraceEvent e;
  e.kind = kind;
  e.lane = lane;
  e.peer = peer;
  e.k = tag;
  e.bytes = static_cast<std::int64_t>(bytes);
  e.t0 = t0;
  e.t1 = t1;
  trace::TraceCollector::record(e, /*explicit_lane=*/true);
}

}  // namespace

// Holds the backend lock for one call. A lock whose previous holder died
// poisons the transport before the call looks at any state.
class MailboxTransport::Guard {
 public:
  explicit Guard(const MailboxTransport& t) : t_(t) {
    if (t_.lock())
      t_.abort_locked(/*deadlock=*/false, kOwnerDied + t_.dump_locked());
  }
  ~Guard() { t_.unlock(); }
  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;

 private:
  const MailboxTransport& t_;
};

MailboxTransport::MailboxTransport(int ranks, double watchdog_seconds)
    : nranks_(ranks), watchdog_seconds_(watchdog_seconds) {
  SSTAR_CHECK(ranks > 0);
  SSTAR_CHECK(watchdog_seconds > 0.0);
}

std::uint64_t MailboxTransport::find_match_locked(int rank, int src, int tag,
                                                  std::uint64_t* prev) const {
  std::uint64_t last = 0;
  for (;;) {
    int msg_src = 0, msg_tag = 0;
    const std::uint64_t node = next_queued(rank, last, &msg_src, &msg_tag);
    if (node == 0) return 0;
    if ((src == kAnySource || msg_src == src) &&
        (tag == kAnyTag || msg_tag == tag)) {
      if (prev != nullptr) *prev = last;
      return node;  // first match = oldest: FIFO per (src, dst, tag)
    }
    last = node;
  }
}

std::string MailboxTransport::dump_locked() const {
  std::ostringstream os;
  for (int r = 0; r < nranks_; ++r) {
    const RankState& rs = state(r);
    os << "\n  rank " << r << ": ";
    if (rs.waiting) {
      os << "blocked in recv(src=";
      if (rs.want_src == kAnySource)
        os << "any";
      else
        os << rs.want_src;
      os << ", tag=";
      if (rs.want_tag == kAnyTag)
        os << "any";
      else
        os << rs.want_tag;
      os << "), " << rs.queued << " unmatched message(s) queued";
    } else if (rs.finished) {
      os << "finished";
    } else {
      os << "running";
    }
  }
  return os.str();
}

bool MailboxTransport::deadlock_locked() const {
  int live_waiting = 0;
  for (int r = 0; r < nranks_; ++r) {
    const RankState& rs = state(r);
    if (rs.finished) continue;
    if (!rs.waiting) return false;  // a rank is still making progress
    if (find_match_locked(r, rs.want_src, rs.want_tag, nullptr) != 0)
      return false;  // it was notified and will consume this on wake-up
    ++live_waiting;
  }
  return live_waiting > 0;
}

void MailboxTransport::abort_locked(bool deadlock,
                                    const std::string& reason) const {
  Flags& f = flags();
  if (f.aborted) return;  // first reason wins
  f.aborted = 1;
  f.aborted_deadlock = deadlock ? 1 : 0;
  set_abort_reason(reason);
  for (int r = 0; r < nranks_; ++r) wake(r);
}

void MailboxTransport::send(int src, int dst, int tag,
                            std::vector<std::uint8_t> payload) {
  SSTAR_CHECK(dst >= 0 && dst < nranks_);
  SSTAR_CHECK(src >= 0 && src < nranks_);
  const std::size_t bytes = payload.size();
  if (trace::TraceCollector::active() != nullptr) {
    const double now = trace::TraceCollector::now();
    record_comm_event(trace::EventKind::kSend, src, dst, tag, bytes, now, now);
  }
  const Guard guard(*this);
  if (flags().aborted) throw TransportError(abort_reason());
  const std::string refused =
      enqueue(dst, Message{src, tag, std::move(payload)});
  if (!refused.empty()) {
    abort_locked(/*deadlock=*/false, refused);
    throw TransportError(refused);
  }
  ++state(dst).queued;
  RankCommStats& s = state(src).stats;
  s.messages_sent += 1;
  s.bytes_sent += static_cast<std::int64_t>(bytes);
  wake(dst);
}

Message MailboxTransport::recv(int rank, int src, int tag) {
  SSTAR_CHECK(rank >= 0 && rank < nranks_);
  // Tracing: the wait span starts at the call, not at the match — the
  // gap IS the paper's "communication/idle" phase for this rank.
  const bool tracing = trace::TraceCollector::active() != nullptr;
  const double trace_t0 = tracing ? trace::TraceCollector::now() : 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(watchdog_seconds_));
  Message m;
  {
    const Guard guard(*this);
    RankState& rs = state(rank);
    for (;;) {
      if (flags().aborted) {
        if (flags().aborted_deadlock) throw DeadlockError(abort_reason());
        throw TransportError(abort_reason());
      }
      std::uint64_t prev = 0;
      const std::uint64_t node = find_match_locked(rank, src, tag, &prev);
      if (node != 0) {
        m = dequeue(rank, node, prev);
        --rs.queued;
        rs.stats.messages_received += 1;
        rs.stats.bytes_received += static_cast<std::int64_t>(m.payload.size());
        break;
      }

      rs.waiting = 1;
      rs.want_src = src;
      rs.want_tag = tag;
      if (deadlock_locked()) {
        // Sends never block, so every live rank blocked in recv with no
        // satisfiable message queued means no message can ever arrive
        // again: certain deadlock, right now.
        abort_locked(/*deadlock=*/true,
                     "message-passing deadlock: every live rank is blocked "
                     "in recv" + dump_locked());
      } else {
        const Wake w = wait(rank, deadline);
        if (w == Wake::kOwnerDied) {
          abort_locked(/*deadlock=*/false, kOwnerDied + dump_locked());
        } else if (w == Wake::kTimeout &&
                   find_match_locked(rank, src, tag, nullptr) == 0 &&
                   !flags().aborted) {
          std::ostringstream os;
          os << "recv watchdog expired after " << watchdog_seconds_
             << "s on rank " << rank << dump_locked();
          abort_locked(/*deadlock=*/true, os.str());
        }
      }
      rs.waiting = 0;
      // Loop: either aborted (throw above) or re-scan for the message
      // whose arrival woke us.
    }
  }
  if (tracing)
    record_comm_event(trace::EventKind::kRecvWait, rank, m.src, m.tag,
                      m.payload.size(), trace_t0, trace::TraceCollector::now());
  return m;
}

bool MailboxTransport::probe(int rank, int src, int tag) {
  SSTAR_CHECK(rank >= 0 && rank < nranks_);
  const Guard guard(*this);
  if (flags().aborted) throw TransportError(abort_reason());
  return find_match_locked(rank, src, tag, nullptr) != 0;
}

void MailboxTransport::finish(int rank) {
  SSTAR_CHECK(rank >= 0 && rank < nranks_);
  const Guard guard(*this);
  RankState& rs = state(rank);
  if (rs.finished) return;
  rs.finished = 1;
  if (++flags().num_finished < nranks_ && deadlock_locked()) {
    abort_locked(/*deadlock=*/true,
                 "message-passing deadlock: remaining ranks wait on "
                 "finished peers" + dump_locked());
  }
}

void MailboxTransport::abort(const std::string& reason) {
  const Guard guard(*this);
  abort_locked(/*deadlock=*/false, reason);
}

RankCommStats MailboxTransport::stats(int rank) const {
  SSTAR_CHECK(rank >= 0 && rank < nranks_);
  const Guard guard(*this);
  return state(rank).stats;
}

// ---------------------------------------------------------------------------
// InProcTransport: std::mutex + std::deque + std::condition_variable.
// Queue node ids are mailbox positions + 1.

InProcTransport::InProcTransport(int ranks, double watchdog_seconds)
    : MailboxTransport(ranks, watchdog_seconds),
      box_(static_cast<std::size_t>(ranks)) {}

bool InProcTransport::lock() const {
  mu_.lock();
  return false;
}

void InProcTransport::unlock() const { mu_.unlock(); }

MailboxTransport::Wake InProcTransport::wait(
    int rank, std::chrono::steady_clock::time_point deadline) const {
  std::unique_lock<std::mutex> lock(mu_, std::adopt_lock);
  const std::cv_status st =
      box_[static_cast<std::size_t>(rank)].cv.wait_until(lock, deadline);
  lock.release();  // the caller's Guard still owns the mutex
  return st == std::cv_status::timeout ? Wake::kTimeout : Wake::kSignaled;
}

void InProcTransport::wake(int rank) const {
  box_[static_cast<std::size_t>(rank)].cv.notify_all();
}

MailboxTransport::RankState& InProcTransport::state(int rank) const {
  return box_[static_cast<std::size_t>(rank)].st;
}

std::string InProcTransport::enqueue(int dst, Message m) {
  box_[static_cast<std::size_t>(dst)].q.push_back(std::move(m));
  return {};
}

std::uint64_t InProcTransport::next_queued(int rank, std::uint64_t node,
                                           int* src, int* tag) const {
  const std::deque<Message>& q = box_[static_cast<std::size_t>(rank)].q;
  if (node >= q.size()) return 0;
  *src = q[node].src;
  *tag = q[node].tag;
  return node + 1;
}

Message InProcTransport::dequeue(int rank, std::uint64_t node,
                                 std::uint64_t /*prev*/) {
  std::deque<Message>& q = box_[static_cast<std::size_t>(rank)].q;
  const auto it = q.begin() + static_cast<std::ptrdiff_t>(node - 1);
  Message m = std::move(*it);
  q.erase(it);
  return m;
}

}  // namespace sstar::comm
