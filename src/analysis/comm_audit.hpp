// Static communication auditor: machine-checked proof that a built
// SPMD program's message plan (the CommOp descriptors sim/comm_plan
// attaches) is correct BEFORE a single message is sent.
//
// The paper's codes communicate exactly one artifact — the Factor(k)
// panel + pivot multicast — yet four distinct properties must hold for
// the rank-per-thread runtime (exec/lu_mp) to be correct over ANY
// conforming Transport, including a future out-of-process one whose
// dynamic deadlock detector cannot see all ranks' state:
//
//  1. match soundness — every recv has exactly one matching send with
//     consistent (source, destination, tag/panel, serialized byte size
//     from comm/serialize), and no orphan sends or recvs; sends and
//     recvs on one (src, dst, tag) channel pair up in program order,
//     which is exactly the transport's FIFO-per-channel guarantee;
//  2. coverage — every kernel call consuming a panel the rank does not
//     own sees the panel held (received earlier in the rank's program
//     order), and every send (the owner's fan-out AND a 2D row leader's
//     forwarding hop) moves a panel the sender holds at that point
//     (factored locally or already received);
//  3. deadlock-freedom — the static wait-for graph over (rank, program
//     position) op nodes, under blocking-recv FIFO semantics, is
//     well-founded (acyclic). This is the proof sketch formerly in
//     exec/lu_mp.cpp turned into an algorithm: on failure the report
//     carries the counterexample wait cycle, op by op;
//  4. release safety — the consumer refcounts the DistBlockStore is
//     configured with exactly equal sim::panel_consumer_counts, the
//     consumers each rank's program declares, so no panel is freed
//     early or leaked. (audit_panel_lifetimes below checks the release
//     points those counts produce.)
//
// Every property reads one model of the protocol, sim::panel_timeline:
// the comm-op sites in execution order (properties 1 and 3) and the
// residency each send and remote consume sees (property 2).
//
// A dynamic twin, check_recorded_traffic(), cross-validates the
// send/recv events a trace::TraceCollector recorded from the real
// Transport against the statically verified plan — the SSTAR_AUDIT
// pattern applied to communication.
//
// Mutation helpers (mutate_*) support the end-to-end negative mode
// (tools/sstar_audit --comm-self-test and tests/test_comm_audit.cpp):
// each injects one plan defect and reports where, so callers can assert
// the auditor pinpoints the exact rank/task/op.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_sim.hpp"
#include "supernode/block_layout.hpp"
#include "trace/trace.hpp"

namespace sstar::analysis {

/// Where one CommOp sits in a built program: the rank that executes it,
/// the task it is attached to, which list (pre_comms/post_comms), and
/// its index there. Execution order within a task is pre_comms, then
/// kernels, then post_comms — exactly how exec/lu_mp interprets a task.
struct CommOpSite {
  int rank = -1;
  sim::TaskId task = -1;
  bool pre = true;  ///< true: pre_comms, false: post_comms
  int index = 0;    ///< position within that list
  sim::CommOp op;

  /// "rank 2 task 17 pre[0] recv(panel 5 <- rank 0)".
  std::string describe() const;
};

/// One property violation, pinned to the exact rank/task/op (or, for
/// count mismatches, rank/panel) that breaks it.
struct CommAuditIssue {
  enum class Kind {
    kOrphanRecv,       ///< no send supplies this recv: it blocks forever
    kOrphanSend,       ///< no recv drains this send: a lost message
    kSelfMessage,      ///< op's peer is its own rank
    kBadPanel,         ///< tag/panel id outside the layout
    kSizeMismatch,     ///< serialized sizes disagree across a matched pair
    kUncoveredRead,    ///< remote-panel kernel read with no recv before it
    kSendWithoutPanel, ///< send of a panel the sender does not hold yet
    kCountMismatch,    ///< declared consumer count != program's consumers
  };
  Kind kind = Kind::kOrphanRecv;
  CommOpSite site;   ///< the offending op (kUncoveredRead: the task; op
                     ///< is synthesized from the kernel's panel)
  int panel = -1;
  int expected = 0;  ///< kSizeMismatch: send bytes; kCountMismatch: real count
  int actual = 0;    ///< kSizeMismatch: recv bytes; kCountMismatch: declared

  std::string message() const;
};

struct CommAuditReport {
  int ranks = 0;
  int panels = 0;
  std::int64_t sends = 0;            ///< total send ops in the plan
  std::int64_t recvs = 0;            ///< total recv ops in the plan
  std::int64_t matched_pairs = 0;    ///< send/recv pairs proven consistent
  std::int64_t bytes_planned = 0;    ///< sum of serialized sizes over sends
  std::int64_t reads_checked = 0;    ///< remote-panel kernel reads covered
  std::int64_t counts_checked = 0;   ///< (panel, rank) refcount entries
  std::vector<CommAuditIssue> issues;
  /// Counterexample wait-for cycle (op descriptions, in wait order);
  /// empty when the wait-for graph is well-founded.
  std::vector<std::string> deadlock_cycle;

  bool deadlock_free() const { return deadlock_cycle.empty(); }
  bool ok() const { return issues.empty() && deadlock_cycle.empty(); }
  std::string summary() const;
};

/// Audit `prog`'s attached message plan against all four properties.
/// Release safety is checked against `consumer_counts` — the refcounts
/// a DistBlockStore would actually be configured with (pass the result
/// of sim::panel_consumer_counts for the self-audit the executor and
/// CLI run, or a tampered copy to exercise the negative path).
CommAuditReport audit_comm_plan(
    const sim::ParallelProgram& prog, const BlockLayout& layout,
    const std::vector<std::vector<int>>& consumer_counts);

/// Same, with consumer_counts = sim::panel_consumer_counts(prog).
CommAuditReport audit_comm_plan(const sim::ParallelProgram& prog,
                                const BlockLayout& layout);

// --- panel lifetimes (the refcounted release protocol) -----------------
//
// A rank holds a received Factor(k) panel only between its arrival (the
// plan's kRecv) and its last consuming Update on that rank, the point
// DistBlockStore (core/block_store.hpp) frees it. audit_panel_lifetimes
// folds the panel timeline (sim::panel_timeline) built with the
// store's refcounts and flags, without executing any numeric work:
//
//  * a consuming ScaleSwap+Update pair that runs after the refcount
//    released the panel (read-after-release) or before any kRecv
//    delivered it (read-before-receive);
//  * a forwarding send (a row leader's pre_comms kSend) issued when the
//    panel is not resident;
//  * a remote panel still resident when the rank's program ends (a
//    refcount leak — memory the protocol promised to return).
//
// With the plan-derived counts the audit passes on every built program.
// Release overrides mirror DistBlockStore::set_release_override so the
// negative tests can force an early release and assert the audit names
// the exact (rank, task, panel) that lost its data.

/// One access to a panel that the release protocol cannot serve.
struct PanelLifetimeIssue {
  enum class Kind {
    kReadAfterRelease,   ///< consumed after the refcount hit zero
    kReadBeforeReceive,  ///< consumed with no delivering recv before it
    kForwardAfterRelease,///< forward-send of a non-resident panel
    kLeak,               ///< still resident at end of the rank's program
  };
  Kind kind = Kind::kReadAfterRelease;
  int rank = -1;
  sim::TaskId task = -1;  ///< -1 for kLeak (no task; end of program)
  int k = -1;             ///< the panel

  std::string message() const;
};

struct PanelLifetimeReport {
  int ranks = 0;
  int panels = 0;
  std::int64_t accesses_checked = 0;  ///< consumes + forwards replayed
  std::vector<PanelLifetimeIssue> issues;

  bool ok() const { return issues.empty(); }
  std::string summary() const;
};

/// Release panel k on `rank` after `uses` consuming tasks instead of
/// the plan-derived count (the audit-side twin of the store's test
/// hook).
struct ReleaseOverride {
  int rank = -1;
  int k = -1;
  int uses = 0;
};

/// Check `prog` (comm plan attached) against the refcount protocol.
PanelLifetimeReport audit_panel_lifetimes(
    const sim::ParallelProgram& prog,
    const std::vector<ReleaseOverride>& overrides = {});

// --- dynamic cross-validation (recorded Transport traffic) --------------

/// One divergence between the plan and what the transport recorded.
struct TrafficIssue {
  int rank = -1;
  int index = 0;         ///< position in the rank's comm-op sequence
  std::string expected;  ///< planned op ("(end of plan)" when extra)
  std::string observed;  ///< recorded event ("(end of trace)" when missing)

  std::string message() const;
};

struct TrafficReport {
  int ranks = 0;
  std::int64_t events_checked = 0;
  std::vector<TrafficIssue> issues;

  bool ok() const { return issues.empty(); }
  std::string summary() const;
};

/// Check every send/recv event a TraceCollector recorded during an
/// execute_program_mp() run against the statically verified plan: per
/// rank, the recorded traffic must be exactly the planned ops, in
/// program order, with matching peer, tag, and byte count.
TrafficReport check_recorded_traffic(const sim::ParallelProgram& prog,
                                     const BlockLayout& layout,
                                     const trace::Trace& trace);

// --- mutation self-test support -----------------------------------------

/// What a mutate_* helper changed, so a self-test can assert the audit
/// pinpoints it. `found == false` means the program had no site for
/// this mutation (e.g. too few ranks); nothing was changed.
struct CommMutation {
  bool found = false;
  int rank = -1;          ///< rank whose plan was mutated
  sim::TaskId task = -1;  ///< task whose op list was mutated
  int panel = -1;         ///< panel/tag involved
  int peer = -1;          ///< the op's peer, when one op was targeted
  std::string what;       ///< human description of the injected defect

  /// The rank/task/panel a correct audit must name. For the deadlock
  /// injection, the cycle must include the moved op instead.
  bool pinpointed_by(const CommAuditReport& report) const;
};

/// Delete the seed-th send op (modulo the plan's sends): its recv is
/// orphaned at the exact (rank, task, op).
CommMutation mutate_drop_send(sim::ParallelProgram& prog, std::uint64_t seed);

/// Swap the panels of two recvs that sit in different tasks of one
/// rank: the first task now receives the wrong panel, so its kernel
/// read of the original panel loses coverage.
CommMutation mutate_reorder_recvs(sim::ParallelProgram& prog,
                                  std::uint64_t seed);

/// Re-tag one send to a different panel: the original channel's recv is
/// orphaned, and the re-tagged send is itself orphaned or moves a panel
/// the sender does not hold.
CommMutation mutate_corrupt_tag(sim::ParallelProgram& prog,
                                std::uint64_t seed);

/// Over- or under-count one (panel, rank) consumer refcount entry
/// (seed selects the entry and the direction). Mutates `counts` only;
/// pass the result to audit_comm_plan's consumer_counts.
CommMutation mutate_miscount_consumer(const sim::ParallelProgram& prog,
                                      std::vector<std::vector<int>>& counts,
                                      std::uint64_t seed);

/// Move an owner's send behind a recv that transitively depends on it:
/// creates a genuine static wait cycle (recv-before-send on both sides
/// of a rank pair), which the auditor must print as a counterexample.
CommMutation mutate_inject_deadlock(sim::ParallelProgram& prog);

}  // namespace sstar::analysis
