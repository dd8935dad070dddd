#include "sim/comm_plan.hpp"

#include <algorithm>
#include <map>

#include "util/check.hpp"

namespace sstar::sim {

namespace {

int num_panels(const ParallelProgram& prog) {
  int nb = 0;
  for (TaskId t = 0; t < static_cast<TaskId>(prog.num_tasks()); ++t) {
    for (const KernelCall& kc : prog.task(t).kernels)
      nb = std::max(nb, std::max(kc.k, kc.j) + 1);
  }
  return nb;
}

}  // namespace

std::vector<int> panel_owners(const ParallelProgram& prog) {
  std::vector<int> owner(static_cast<std::size_t>(num_panels(prog)), -1);
  for (int p = 0; p < prog.processors(); ++p) {
    for (const TaskId t : prog.proc_order(p)) {
      for (const KernelCall& kc : prog.task(t).kernels) {
        if (kc.kind != KernelCall::Kind::kFactor) continue;
        SSTAR_CHECK_MSG(owner[kc.k] == -1 || owner[kc.k] == p,
                        "Factor(" << kc.k << ") appears on ranks "
                                  << owner[kc.k] << " and " << p);
        owner[static_cast<std::size_t>(kc.k)] = p;
      }
    }
  }
  return owner;
}

std::vector<std::vector<int>> panel_consumer_counts(
    const ParallelProgram& prog) {
  const std::vector<int> owner = panel_owners(prog);
  std::vector<std::vector<int>> counts(
      owner.size(),
      std::vector<int>(static_cast<std::size_t>(prog.processors()), 0));
  for (int p = 0; p < prog.processors(); ++p) {
    for (const TaskId t : prog.proc_order(p)) {
      for (const KernelCall& kc : prog.task(t).kernels) {
        if (kc.kind != KernelCall::Kind::kUpdate) continue;
        if (owner[static_cast<std::size_t>(kc.k)] == p) continue;
        counts[static_cast<std::size_t>(kc.k)][static_cast<std::size_t>(p)]++;
      }
    }
  }
  return counts;
}

PanelTimeline panel_timeline(
    const ParallelProgram& prog,
    const std::vector<std::vector<int>>& consumer_counts) {
  PanelTimeline tl;
  tl.owner = panel_owners(prog);
  const int nb = static_cast<int>(tl.owner.size());
  tl.per_rank.resize(static_cast<std::size_t>(prog.processors()));
  tl.resident_at_end.resize(static_cast<std::size_t>(prog.processors()));
  for (int p = 0; p < prog.processors(); ++p) {
    std::vector<PanelEvent>& events = tl.per_rank[static_cast<std::size_t>(p)];
    std::vector<Residency> held(static_cast<std::size_t>(nb),
                                Residency::kNever);
    std::vector<int> remaining(static_cast<std::size_t>(nb), 0);
    const auto seen = [&](int k) {
      return k >= 0 && k < nb ? held[static_cast<std::size_t>(k)]
                              : Residency::kNever;
    };
    const auto emit = [&](PanelEvent::Kind kind, TaskId t, int k) {
      events.push_back(PanelEvent{kind, p, t, k, seen(k), {}, true, 0});
      return &events.back();
    };
    const auto comm = [&](TaskId t, const std::vector<CommOp>& ops,
                          bool pre) {
      for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
        const CommOp& op = ops[static_cast<std::size_t>(i)];
        const bool recv = op.kind == CommOp::Kind::kRecv;
        PanelEvent* e = emit(
            recv ? PanelEvent::Kind::kRecv : PanelEvent::Kind::kSend, t, op.k);
        e->op = op;
        e->pre = pre;
        e->index = i;
        if (!recv || op.k < 0 || op.k >= nb) continue;
        const std::size_t k = static_cast<std::size_t>(op.k);
        held[k] = Residency::kResident;
        remaining[k] = k < consumer_counts.size() &&
                               static_cast<std::size_t>(p) <
                                   consumer_counts[k].size()
                           ? consumer_counts[k][static_cast<std::size_t>(p)]
                           : 0;
      }
    };

    for (const TaskId t : prog.proc_order(p)) {
      const TaskDef& def = prog.task(t);
      comm(t, def.pre_comms, /*pre=*/true);
      for (const KernelCall& kc : def.kernels) {
        const std::size_t k = static_cast<std::size_t>(kc.k);
        if (kc.kind == KernelCall::Kind::kFactor) {
          emit(PanelEvent::Kind::kFactor, t, kc.k);
          held[k] = Residency::kOwned;
          continue;
        }
        if (tl.owner[k] == p) {
          SSTAR_CHECK_MSG(held[k] == Residency::kOwned,
                          "rank " << p << " consumes panel " << kc.k
                                  << " before its own Factor task");
          continue;
        }
        emit(PanelEvent::Kind::kConsume, t, kc.k);
        if (held[k] == Residency::kResident && --remaining[k] == 0) {
          emit(PanelEvent::Kind::kRelease, t, kc.k);
          held[k] = Residency::kReleased;
        }
      }
      comm(t, def.post_comms, /*pre=*/false);
    }
    for (int k = 0; k < nb; ++k)
      if (held[static_cast<std::size_t>(k)] == Residency::kResident)
        tl.resident_at_end[static_cast<std::size_t>(p)].push_back(k);
  }
  return tl;
}

void attach_panel_comms(ParallelProgram& prog, const Grid& grid) {
  SSTAR_CHECK_MSG(grid.size() == prog.processors(),
                  "comm plan grid " << grid.rows << "x" << grid.cols
                                    << " != " << prog.processors()
                                    << " program ranks");
  for (TaskId t = 0; t < static_cast<TaskId>(prog.num_tasks()); ++t) {
    prog.mutable_task(t).pre_comms.clear();
    prog.mutable_task(t).post_comms.clear();
  }

  // First use: per rank, the first task whose Update kernels consume a
  // remote panel — the timeline of the comm-free program.
  const PanelTimeline tl = panel_timeline(prog);
  const std::vector<int>& owner = tl.owner;
  const int nb = static_cast<int>(owner.size());
  struct Need {
    int rank = -1;
    TaskId task = -1;
  };
  std::vector<TaskId> factor_task(static_cast<std::size_t>(nb), -1);
  std::vector<std::vector<Need>> needs(static_cast<std::size_t>(nb));
  for (int p = 0; p < prog.processors(); ++p) {
    std::vector<char> needed(static_cast<std::size_t>(nb), 0);
    for (const PanelEvent& e : tl.per_rank[static_cast<std::size_t>(p)]) {
      const std::size_t k = static_cast<std::size_t>(e.panel);
      if (e.kind == PanelEvent::Kind::kFactor) {
        factor_task[k] = e.task;
      } else if (e.kind == PanelEvent::Kind::kConsume && !needed[k]) {
        needs[k].push_back(Need{p, e.task});
        needed[k] = 1;
      }
    }
  }

  // Attach the plan, panel by ascending k so a task consuming several
  // panels receives them in elimination order.
  for (int k = 0; k < nb; ++k) {
    if (needs[static_cast<std::size_t>(k)].empty()) continue;
    const int o = owner[static_cast<std::size_t>(k)];
    SSTAR_CHECK_MSG(o >= 0, "panel " << k << " consumed but never factored");
    const TaskId ft = factor_task[static_cast<std::size_t>(k)];
    auto& sends = prog.mutable_task(ft).post_comms;

    // Group consumers by grid row; the walk visited ranks in ascending
    // order, so each row's list is already rank-sorted.
    std::map<int, std::vector<Need>> by_row;
    for (const Need& n : needs[static_cast<std::size_t>(k)])
      by_row[n.rank / grid.cols].push_back(n);

    const int orow = o / grid.cols;
    for (const auto& [row, members] : by_row) {
      if (row == orow) {
        // The owner serves its own grid row directly.
        for (const Need& n : members) {
          sends.push_back({CommOp::Kind::kSend, n.rank, k});
          prog.mutable_task(n.task).pre_comms.push_back(
              {CommOp::Kind::kRecv, o, k});
        }
        continue;
      }
      // Remote row: one copy to the row leader, which forwards to its
      // peers as soon as the panel arrives (before its own kernels).
      const Need& leader = members.front();
      sends.push_back({CommOp::Kind::kSend, leader.rank, k});
      auto& lead_pre = prog.mutable_task(leader.task).pre_comms;
      lead_pre.push_back({CommOp::Kind::kRecv, o, k});
      for (std::size_t i = 1; i < members.size(); ++i) {
        lead_pre.push_back({CommOp::Kind::kSend, members[i].rank, k});
        prog.mutable_task(members[i].task)
            .pre_comms.push_back({CommOp::Kind::kRecv, leader.rank, k});
      }
    }
  }
}

void attach_panel_comms(ParallelProgram& prog) {
  attach_panel_comms(prog, Grid{1, prog.processors()});
}

}  // namespace sstar::sim
