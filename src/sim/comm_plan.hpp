// Communication planning for message-passing execution (exec/lu_mp).
//
// The paper's SPMD codes communicate exactly one thing: the outcome of
// Factor(k) — column block k plus its pivot sequence (Fig. 10 line 04,
// Fig. 13/14's L + pivot multicasts). Everything else is owner-computes
// on column blocks, so a built ParallelProgram already contains all the
// information needed to derive the message plan:
//
//  - the rank that executes the kFactor kernel of k owns panel k;
//  - every rank whose kUpdate kernels consume panel k needs one copy,
//    delivered before its FIRST consuming task (later uses on the same
//    rank read the local copy — a broadcast, not one send per task).
//
// panel_timeline() models the resulting protocol once — each rank's
// sends, receives, Factor and remote-consume kernels and refcount
// releases in execution order — and every offline consumer (the plan
// builder below, analysis/comm_audit, sim/memory_model) folds it.
//
// attach_panel_comms() reads each rank's first remote use of every
// panel off that timeline and attaches CommOp descriptors to the
// tasks: panel sends ride as post_comms of the
// Factor(k) task, receives as pre_comms of each rank's first consuming
// task. On a 1D machine (1 x p grid) the owner fans out directly. On a
// p_r x p_c grid the multicast is row-grouped: the owner sends one copy
// per destination grid row to that row's leader (its lowest-ranked
// consumer), which forwards to its row peers — the two-hop multicast
// tree of §5.2's 2D code.
//
// Deadlock freedom: receives are blocking, so the plan must never make
// rank A wait on a panel whose send transitively requires A to advance.
// Every task in these programs consumes at most one panel, forwards ride
// immediately behind the leader's receive, and the schedules respect the
// task DAG, so every wait chain grounds out in a Factor task with a
// strictly earlier scheduled position. This is machine-checked, along
// with match soundness, coverage, and release safety, by the static
// communication auditor (analysis/comm_audit).
//
// Degenerate shapes need no special casing and get none: a panel with
// no remote consumer (common when ranks outnumber panels — idle ranks
// run no Update against it) contributes ZERO CommOps, not an empty
// broadcast; with one rank the whole plan is empty; a P x 1 or 1 x P
// grid degenerates to direct fan-out (one consumer row per
// destination, or every consumer in the owner's row).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_sim.hpp"

namespace sstar::sim {

/// owner[k] = rank executing the kFactor kernel of supernode k (-1 if
/// the program has no Factor(k) task). Size = one entry per supernode
/// mentioned by any kernel.
std::vector<int> panel_owners(const ParallelProgram& prog);

/// counts[k][r] = number of kUpdate kernel calls rank r runs against a
/// REMOTE panel k (0 when r owns k: owned storage never expires). This
/// is the consumer refcount a DistBlockStore starts a cached panel at —
/// the panel's last use on the rank is its r-th consuming Update, so
/// decrementing per Update releases exactly after the last declared
/// consumer. Forward-sends are safe: a row leader forwards in the
/// pre_comms of its FIRST consuming task, before any decrement.
/// counts[k].size() == prog.processors() for every panel k.
std::vector<std::vector<int>> panel_consumer_counts(
    const ParallelProgram& prog);

/// What a rank holds of one factor panel at a point of its program.
enum class Residency : std::uint8_t {
  kNever,     ///< neither factored on this rank nor received yet
  kOwned,     ///< factored here: owned storage never expires
  kResident,  ///< received and still cached
  kReleased,  ///< received, then freed after its last counted consumer
};

/// One step of a rank's panel timeline.
struct PanelEvent {
  enum class Kind {
    kSend,     ///< a CommOp at (task, pre, index)
    kRecv,     ///< a CommOp at (task, pre, index); caches the panel
    kFactor,   ///< the Factor(panel) kernel
    kConsume,  ///< an Update kernel reading a REMOTE panel
    kRelease,  ///< the refcount of a cached panel reached zero
  };
  Kind kind = Kind::kSend;
  int rank = -1;
  TaskId task = -1;
  int panel = -1;
  Residency seen = Residency::kNever;  ///< panel's residency just before
  CommOp op;         ///< kSend/kRecv only
  bool pre = true;   ///< kSend/kRecv: in pre_comms (else post_comms)
  int index = 0;     ///< kSend/kRecv: position within that list
};

/// The MP panel protocol, modeled once: every rank's program walked in
/// exec/lu_mp's execution order (tasks in program order; pre_comms,
/// kernels, post_comms within a task), tracking which panels the rank
/// holds. A recv caches panel k at its consumer refcount, each remote
/// consume of a cached panel decrements it, and the decrement that
/// reaches zero releases the panel — DistBlockStore's protocol. The
/// comm audit, the panel-lifetime audit and the memory prediction are
/// folds over this one walk.
struct PanelTimeline {
  std::vector<int> owner;  ///< panel_owners(prog)
  /// per_rank[r]: rank r's events, in execution order.
  std::vector<std::vector<PanelEvent>> per_rank;
  /// resident_at_end[r]: panels still cached when r's program ends.
  std::vector<std::vector<int>> resident_at_end;
};

/// Build the timeline of `prog` (comm plan attached or not). A recv of
/// panel k on rank r starts its refcount at consumer_counts[k][r]; a
/// missing entry counts as zero, so the default models no releases.
/// Pass panel_consumer_counts(prog) for the store's protocol, or
/// altered counts to model an override or a miscount. Comm ops naming
/// a panel outside the program see kNever and change nothing. Throws
/// CheckError when a rank runs an Update of its own panel before the
/// panel's Factor.
PanelTimeline panel_timeline(
    const ParallelProgram& prog,
    const std::vector<std::vector<int>>& consumer_counts = {});

/// Attach panel send/recv descriptors to `prog`'s tasks (clearing any
/// previously attached plan first). `grid` must satisfy
/// grid.size() == prog.processors(); ranks are numbered row-major
/// (rank = row * grid.cols + col), matching MachineModel grids.
void attach_panel_comms(ParallelProgram& prog, const Grid& grid);

/// Flat variant: a 1 x p grid, i.e. direct fan-out from each owner.
void attach_panel_comms(ParallelProgram& prog);

}  // namespace sstar::sim
