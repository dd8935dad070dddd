#include "comm/proc_transport.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>

#include "util/check.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sys/mman.h>
#include <time.h>
#define SSTAR_PROC_TRANSPORT_SUPPORTED 1
#else
#define SSTAR_PROC_TRANSPORT_SUPPORTED 0
#endif

namespace sstar::comm {

#if SSTAR_PROC_TRANSPORT_SUPPORTED

namespace {

constexpr std::size_t kAlign = 64;

std::size_t align_up(std::size_t v) { return (v + kAlign - 1) & ~(kAlign - 1); }

// One pooled message: header + payload bytes, linked by segment offset
// (offset 0 is reserved as null — it points at the header). The offset
// doubles as the core's queue node id.
struct MsgNode {
  std::uint64_t next;
  std::int32_t src;
  std::int32_t tag;
  std::uint64_t size;
  // payload follows
};

}  // namespace

struct ProcTransport::Slot {
  pthread_cond_t cv;
  std::uint64_t head;  // oldest queued message (segment offset, 0 = none)
  std::uint64_t tail;
  RankState st;
};

struct ProcTransport::Shared {
  pthread_mutex_t mu;
  Flags flags;
  std::uint64_t slot_off;  // offsets from the segment base
  std::uint64_t pool_off;
  std::uint64_t pool_used;
  std::uint64_t pool_cap;
  char abort_reason[4096];
};

namespace {

MsgNode* node_at(void* base, std::uint64_t off) {
  return reinterpret_cast<MsgNode*>(static_cast<std::uint8_t*>(base) + off);
}

}  // namespace

ProcTransport::Slot& ProcTransport::slot(int r) const {
  auto* base = reinterpret_cast<std::uint8_t*>(sh_);
  return reinterpret_cast<Slot*>(base + sh_->slot_off)[r];
}

ProcTransport::ProcTransport(int ranks, double watchdog_seconds,
                             std::size_t pool_bytes)
    : MailboxTransport(ranks, watchdog_seconds) {
  SSTAR_CHECK(pool_bytes >= (std::size_t{1} << 16));

  const std::size_t header = align_up(sizeof(Shared));
  const std::size_t slots =
      align_up(sizeof(Slot) * static_cast<std::size_t>(ranks));
  map_bytes_ = header + slots + align_up(pool_bytes);
  void* mem = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  SSTAR_CHECK_MSG(mem != MAP_FAILED,
                  "ProcTransport: mmap of " << map_bytes_
                                            << " shared bytes failed, errno "
                                            << errno);
  sh_ = new (mem) Shared{};
  sh_->slot_off = header;
  sh_->pool_off = header + slots;
  sh_->pool_cap = align_up(pool_bytes);

  pthread_mutexattr_t ma;
  pthread_mutexattr_init(&ma);
  pthread_mutexattr_setpshared(&ma, PTHREAD_PROCESS_SHARED);
  pthread_mutexattr_setrobust(&ma, PTHREAD_MUTEX_ROBUST);
  SSTAR_CHECK(pthread_mutex_init(&sh_->mu, &ma) == 0);
  pthread_mutexattr_destroy(&ma);

  pthread_condattr_t ca;
  pthread_condattr_init(&ca);
  pthread_condattr_setpshared(&ca, PTHREAD_PROCESS_SHARED);
  pthread_condattr_setclock(&ca, CLOCK_MONOTONIC);
  for (int r = 0; r < ranks; ++r) {
    Slot* s = new (&slot(r)) Slot{};
    SSTAR_CHECK(pthread_cond_init(&s->cv, &ca) == 0);
  }
  pthread_condattr_destroy(&ca);
}

ProcTransport::~ProcTransport() {
  if (sh_ != nullptr) ::munmap(sh_, map_bytes_);
}

bool ProcTransport::lock() const {
  const int rc = pthread_mutex_lock(&sh_->mu);
  if (rc == EOWNERDEAD) {
    // A peer process died between lock and unlock. The robust mutex
    // hands us the lock with the state as the victim left it; its
    // writes are monotone flags and queue links, so consume-or-ignore
    // is safe — the core poisons the transport with a pinned diagnostic.
    pthread_mutex_consistent(&sh_->mu);
    return true;
  }
  SSTAR_CHECK_MSG(rc == 0, "pthread_mutex_lock failed, rc " << rc);
  return false;
}

void ProcTransport::unlock() const { pthread_mutex_unlock(&sh_->mu); }

MailboxTransport::Wake ProcTransport::wait(
    int rank, std::chrono::steady_clock::time_point deadline) const {
  // The condvars run on CLOCK_MONOTONIC: carry the time left over.
  const double left = std::max(
      0.0, std::chrono::duration<double>(
               deadline - std::chrono::steady_clock::now()).count());
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  const double total = static_cast<double>(ts.tv_sec) +
                       static_cast<double>(ts.tv_nsec) * 1e-9 + left;
  ts.tv_sec = static_cast<time_t>(total);
  ts.tv_nsec =
      static_cast<long>((total - static_cast<double>(ts.tv_sec)) * 1e9);
  const int rc = pthread_cond_timedwait(&slot(rank).cv, &sh_->mu, &ts);
  if (rc == EOWNERDEAD) {
    pthread_mutex_consistent(&sh_->mu);
    return Wake::kOwnerDied;
  }
  return rc == ETIMEDOUT ? Wake::kTimeout : Wake::kSignaled;
}

void ProcTransport::wake(int rank) const {
  pthread_cond_broadcast(&slot(rank).cv);
}

MailboxTransport::RankState& ProcTransport::state(int rank) const {
  return slot(rank).st;
}

MailboxTransport::Flags& ProcTransport::flags() const { return sh_->flags; }

std::string ProcTransport::abort_reason() const { return sh_->abort_reason; }

void ProcTransport::set_abort_reason(const std::string& reason) const {
  std::strncpy(sh_->abort_reason, reason.c_str(),
               sizeof(sh_->abort_reason) - 1);
  sh_->abort_reason[sizeof(sh_->abort_reason) - 1] = '\0';
}

std::string ProcTransport::enqueue(int dst, Message m) {
  const std::size_t need = align_up(sizeof(MsgNode) + m.payload.size());
  if (sh_->pool_used + need > sh_->pool_cap) {
    std::ostringstream os;
    os << "shared-memory message pool exhausted: " << sh_->pool_used << " of "
       << sh_->pool_cap << " bytes used, " << need
       << " more needed — raise the proc transport pool size "
          "(MpOptions::proc_pool_bytes)";
    return os.str();
  }
  const std::uint64_t off = sh_->pool_off + sh_->pool_used;
  sh_->pool_used += need;
  MsgNode* node = node_at(sh_, off);
  node->next = 0;
  node->src = m.src;
  node->tag = m.tag;
  node->size = m.payload.size();
  if (!m.payload.empty())
    std::memcpy(node + 1, m.payload.data(), m.payload.size());

  Slot& s = slot(dst);
  if (s.tail == 0)
    s.head = off;
  else
    node_at(sh_, s.tail)->next = off;
  s.tail = off;
  return {};
}

std::uint64_t ProcTransport::next_queued(int rank, std::uint64_t node,
                                         int* src, int* tag) const {
  const std::uint64_t next =
      node == 0 ? slot(rank).head : node_at(sh_, node)->next;
  if (next != 0) {
    *src = node_at(sh_, next)->src;
    *tag = node_at(sh_, next)->tag;
  }
  return next;
}

Message ProcTransport::dequeue(int rank, std::uint64_t node,
                               std::uint64_t prev) {
  Slot& s = slot(rank);
  const MsgNode* n = node_at(sh_, node);
  // Unlink (pool nodes are bump-allocated, never reused).
  if (prev == 0)
    s.head = n->next;
  else
    node_at(sh_, prev)->next = n->next;
  if (s.tail == node) s.tail = prev;
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(n + 1);
  return Message{n->src, n->tag,
                 std::vector<std::uint8_t>(bytes, bytes + n->size)};
}

#else  // !SSTAR_PROC_TRANSPORT_SUPPORTED

struct ProcTransport::Slot {};

ProcTransport::ProcTransport(int ranks, double watchdog_seconds,
                             std::size_t pool_bytes)
    : MailboxTransport(ranks, watchdog_seconds) {
  (void)pool_bytes;
  throw TransportError(
      "ProcTransport requires process-shared robust pthread primitives "
      "(Linux); use InProcTransport on this platform");
}

// Unreachable: the constructor always throws.
ProcTransport::~ProcTransport() = default;
ProcTransport::Slot& ProcTransport::slot(int) const { std::abort(); }
bool ProcTransport::lock() const { std::abort(); }
void ProcTransport::unlock() const {}
MailboxTransport::Wake ProcTransport::wait(
    int, std::chrono::steady_clock::time_point) const {
  std::abort();
}
void ProcTransport::wake(int) const {}
MailboxTransport::RankState& ProcTransport::state(int) const { std::abort(); }
MailboxTransport::Flags& ProcTransport::flags() const { std::abort(); }
std::string ProcTransport::abort_reason() const { return {}; }
void ProcTransport::set_abort_reason(const std::string&) const {}
std::string ProcTransport::enqueue(int, Message) { return {}; }
std::uint64_t ProcTransport::next_queued(int, std::uint64_t, int*,
                                         int*) const {
  return 0;
}
Message ProcTransport::dequeue(int, std::uint64_t, std::uint64_t) {
  return {};
}

#endif  // SSTAR_PROC_TRANSPORT_SUPPORTED

}  // namespace sstar::comm
