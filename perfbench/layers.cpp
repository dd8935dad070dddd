// Traced run: per-layer numbers, each layer's public calls timed from
// outside, with trace::TraceCollector installed around factor, MP and
// solve calls. Nothing inside src/ is instrumented for this run.
//
// The analyze phase is replayed call by call in prepare()'s order; the
// replay must reproduce prepare() exactly (permutations, structure,
// partition) or the run fails. Traced factors must be bitwise equal to
// untraced ones. Values are sums over the workload's matrices unless a
// metric is a ratio or a percentile.
#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "blas/dense_blas.hpp"
#include "common.hpp"
#include "core/lu_1d.hpp"
#include "core/lu_2d.hpp"
#include "core/task_graph.hpp"
#include "exec/lu_real.hpp"
#include "matrix/pattern_ops.hpp"
#include "ordering/etree.hpp"
#include "ordering/min_degree.hpp"
#include "ordering/transversal.hpp"
#include "serve/factorization.hpp"
#include "serve/session.hpp"
#include "sim/machine.hpp"
#include "supernode/partition.hpp"
#include "symbolic/static_symbolic.hpp"
#include "trace/analyze.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

using sstar::BlockLayout;
using sstar::SStarNumeric;
using sstar::SolverOptions;
using sstar::SolverSetup;
using sstar::SparseMatrix;
using sstar::WallTimer;
using sstar::trace::EventKind;

constexpr int kReps = 3;            // timed repetitions per call; median
constexpr int kTracedSolves = 10;   // single-RHS solves behind FS/BS spans
constexpr int kCrossingWidth = kPanelWidth + kPanelWidth / 4;

using Sums = std::map<std::string, double>;

double time_it(const std::function<void()>& f) {
  const WallTimer t;
  f();
  return t.seconds();
}

/// Median of kReps timings of f.
double median_time(const std::function<void()>& f) {
  std::vector<double> t;
  for (int r = 0; r < kReps; ++r) t.push_back(time_it(f));
  return median(t);
}

/// Run f with a collector installed and return what it recorded.
sstar::trace::Trace traced(const std::function<void()>& f) {
  sstar::trace::TraceCollector collector;
  collector.install();
  try {
    f();
  } catch (...) {
    collector.uninstall();
    throw;
  }
  collector.uninstall();
  return collector.take();
}

/// Span seconds of one kind, and the spans' durations if asked.
double span_seconds(const sstar::trace::Trace& tr, EventKind kind,
                    std::vector<double>* durations = nullptr) {
  double s = 0.0;
  for (const sstar::trace::TraceEvent& e : tr.events) {
    if (e.kind != kind) continue;
    s += e.t1 - e.t0;
    if (durations) durations->push_back(e.t1 - e.t0);
  }
  return s;
}

/// prepare() for the default SolverOptions, one public call at a time,
/// timing each into `sums`. Returns true iff the result equals `ref`.
bool replay_prepare(const SparseMatrix& a, const SolverSetup& ref,
                    Sums& sums) {
  const SolverOptions opt;
  const int n = a.rows();
  std::vector<int> rowt;
  SparseMatrix a1;
  sums["ordering.transversal_s"] +=
      time_it([&] { a1 = sstar::make_zero_free_diagonal(a, &rowt); });

  std::vector<int> q;
  {
    sstar::Pattern ata;
    sums["matrix.ata_pattern_s"] +=
        time_it([&] { ata = sstar::ata_pattern(a1); });
    sums["matrix.ata_nnz"] += static_cast<double>(ata.nnz());
    sums["ordering.min_degree_s"] +=
        time_it([&] { q = sstar::min_degree_order(ata); });
  }
  SparseMatrix permuted = a1.permuted(q, q);

  std::vector<int> post;
  {
    sstar::Pattern ata;
    sums["matrix.ata_pattern_s"] +=
        time_it([&] { ata = sstar::ata_pattern(permuted); });
    sums["ordering.etree_postorder_s"] += time_it([&] {
      post = sstar::postorder(sstar::elimination_tree(ata));
    });
  }
  bool identity = true;
  for (int i = 0; i < n && identity; ++i) identity = post[i] == i;
  if (!identity) {
    permuted = permuted.permuted(post, post);
    std::vector<int> composed(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) composed[i] = q[post[i]];
    q = std::move(composed);
  }
  std::vector<int> row_perm(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) row_perm[i] = rowt[q[i]];

  sstar::StaticStructure structure;
  sums["symbolic.static_symbolic_s"] += time_it(
      [&] { structure = sstar::static_symbolic_factorization(permuted); });
  sstar::SupernodePartition part;
  sums["supernode.partition_s"] += time_it([&] {
    part = sstar::find_supernodes(structure, opt.max_block);
    part = sstar::amalgamate(structure, part, opt.amalgamation,
                             opt.max_block);
  });
  std::unique_ptr<BlockLayout> layout;
  sums["supernode.layout_s"] += time_it(
      [&] { layout = std::make_unique<BlockLayout>(structure, part); });

  return row_perm == ref.row_perm && q == ref.col_perm &&
         structure.factor_entries() == ref.structure.factor_entries() &&
         layout->num_blocks() == ref.layout->num_blocks() &&
         layout->partition().start == ref.layout->partition().start;
}

/// DGEMM shape of one product in Update(k, j): an m-row L block of
/// column block k times the k x n U block of (k, j).
struct UpdateShape {
  double flops = 0.0;
  int m = 0, n = 0, k = 0;
};

/// The shape at which half of all Update flops are in smaller products.
UpdateShape flop_weighted_median(std::vector<UpdateShape> shapes) {
  if (shapes.empty()) return {0.0, 1, 1, 1};
  auto size = [](const UpdateShape& s) {
    return static_cast<double>(s.m) * s.n * s.k;
  };
  std::sort(shapes.begin(), shapes.end(),
            [&](const UpdateShape& a, const UpdateShape& b) {
              return size(a) < size(b);
            });
  double total = 0.0;
  for (const UpdateShape& s : shapes) total += s.flops;
  double below = 0.0;
  for (const UpdateShape& s : shapes) {
    below += s.flops;
    if (below >= 0.5 * total) return s;
  }
  return shapes.back();
}

/// GF/s of blas::dgemm on an m x k by k x n product, median of kReps
/// runs of at least 0.1 s each.
double dgemm_gflops(int m, int n, int k) {
  sstar::Rng rng(7);
  std::vector<double> a(static_cast<std::size_t>(m) * k);
  std::vector<double> b(static_cast<std::size_t>(k) * n);
  std::vector<double> c(static_cast<std::size_t>(m) * n, 0.0);
  for (double& v : a) v = rng.uniform(-1.0, 1.0);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const double flops = 2.0 * m * n * k;
  std::vector<double> rates;
  for (int r = 0; r < kReps; ++r) {
    std::int64_t calls = 0;
    const WallTimer t;
    do {
      for (int i = 0; i < 64; ++i)
        sstar::blas::dgemm(m, n, k, -1e-3, a.data(), m, b.data(), k, 1.0,
                           c.data(), m);
      calls += 64;
    } while (t.seconds() < 0.1);
    rates.push_back(flops * static_cast<double>(calls) / t.seconds() / 1e9);
  }
  return median(rates);
}

}  // namespace

std::vector<Metric> run_layers(const Args& args, const HostShape& host,
                               Gate& gate) {
  const std::vector<MatrixInput> inputs =
      make_inputs(args.workload, args.seed);
  const sstar::sim::MachineModel machine2d =
      sstar::sim::MachineModel::cray_t3e(host.ranks);
  const sstar::sim::MachineModel machine1d =
      machine2d.with_grid({1, host.ranks});
  sstar::exec::LuRealOptions par_opt;
  par_opt.threads = host.threads;

  Sums sums;
  std::vector<double> update_us;
  std::vector<UpdateShape> shapes;
  double par_untraced = 0.0, par_traced = 0.0, mp_seconds = 0.0;
  double total_cols = 0.0, blas3_flops = 0.0;
  double sweeps = 0.0, requests = 0.0;

  for (const MatrixInput& in : inputs) {
    const std::string& name = in.name;

    // --- ordering, matrix, symbolic, supernode: analyze.
    SolverSetup setup;
    sums["solve.prepare_s"] +=
        time_it([&] { setup = sstar::prepare(in.a, SolverOptions{}); });
    gate.check(replay_prepare(in.a, setup, sums),
               name + ": analyze replay differs from prepare()");
    const BlockLayout& lay = *setup.layout;
    const SparseMatrix& pa = setup.permuted;
    sums["symbolic.struct_nnz"] +=
        static_cast<double>(setup.structure.factor_entries());
    sums["supernode.blocks"] += lay.num_blocks();
    total_cols += lay.n();

    // --- core: the sequential numeric phase, untraced then traced.
    SStarNumeric ref(lay);
    double assemble_s = 0.0;
    std::vector<double> factor_s;
    for (int r = 0; r < kReps; ++r) {
      assemble_s += time_it([&] { ref.assemble(pa); });
      factor_s.push_back(time_it([&] { ref.factorize(); }));
    }
    sums["core.assemble_s"] += assemble_s / kReps;
    sums["core.factor_s"] += median(factor_s);
    sums["core.factor_flops"] += static_cast<double>(ref.stats().flops.total());
    blas3_flops += static_cast<double>(ref.stats().flops.blas3);
    {
      SStarNumeric seq(lay);
      seq.assemble(pa);
      const sstar::trace::Trace tr = traced([&] { seq.factorize(); });
      const std::size_t before = update_us.size();
      span_seconds(tr, EventKind::kUpdate, &update_us);
      sums["core.update_spans"] +=
          static_cast<double>(update_us.size() - before);
      // One dgemm per L block of each Update, as update_block runs them.
      for (const sstar::trace::TraceEvent& e : tr.events) {
        if (e.kind != EventKind::kUpdate) continue;
        const int n = lay.find_u_block(e.k, e.j)->count;
        const int k = lay.width(e.k);
        for (const sstar::BlockRef& l : lay.l_blocks(e.k))
          shapes.push_back({2.0 * l.count * n * k, l.count, n, k});
      }
      gate.factors(seq, ref, "traced sequential factor");
    }

    // --- exec: the shared-memory executor at T threads.
    {
      const sstar::LuTaskGraph graph(lay);
      SStarNumeric par(lay);
      auto refactor_par = [&] {
        par.assemble(pa);
        return sstar::exec::factorize_parallel(graph, par, par_opt);
      };
      // Right after sequential work: the cold first call, then a second
      // warm-up call.
      sums["exec.first_call_s"] += time_it([&] { refactor_par(); });
      gate.factors(par, ref, "first parallel factor");
      refactor_par();
      std::vector<double> t;
      sstar::exec::ExecStats st;
      for (int r = 0; r < kReps; ++r) {
        t.push_back(time_it([&] { st = refactor_par(); }));
        gate.factors(par, ref, "parallel factor");
      }
      par_untraced += median(t);
      sums["exec.tasks_run"] += static_cast<double>(st.tasks_run);
      sums["exec.steals"] += static_cast<double>(st.steals);
      sums["exec.busy_s"] += st.busy_total();
      sums["exec.wall_s"] += st.seconds;
      t.clear();
      sstar::trace::Trace tr;
      for (int r = 0; r < kReps; ++r) {
        tr = traced([&] { t.push_back(time_it([&] { refactor_par(); })); });
        gate.factors(par, ref, "traced parallel factor");
      }
      par_traced += median(t);
      const sstar::trace::CriticalPath cp =
          sstar::trace::realized_critical_path(tr);
      sums["exec.critical_path_s"] += cp.compute_seconds + cp.comm_seconds;

      // The other shared-memory paths over the same factor storage.
      auto other_path = [&](const char* metric, const auto& run) {
        run();  // warm-up
        sums[metric] += median_time([&] { run(); });
        gate.factors(par, ref, metric);
      };
      other_path("exec.run_2d_real_s", [&] {
        par.assemble(pa);
        sstar::run_2d_real(lay, machine2d, /*async=*/true, par, host.threads);
      });
      other_path("exec.run_1d_real_s", [&] {
        par.assemble(pa);
        sstar::run_1d_real(lay, machine1d, sstar::Schedule1DKind::kGraph, par,
                           host.threads);
      });
    }

    // --- comm: the 2D asynchronous SPMD code on in-process ranks.
    {
      SStarNumeric mp(lay);
      auto run_mp = [&] {
        return sstar::run_2d_mp(lay, machine2d, /*async=*/true, pa, mp);
      };
      run_mp();  // warm-up
      gate.factors(mp, ref, "MP factor");
      sstar::exec::MpStats st;
      const sstar::trace::Trace tr = traced([&] { st = run_mp(); });
      gate.factors(mp, ref, "traced MP factor");
      sums["comm.messages"] += static_cast<double>(st.total_messages());
      sums["comm.bytes"] += static_cast<double>(st.total_bytes());
      sums["comm.peak_store_mb"] +=
          static_cast<double>(st.peak_store_bytes_total()) / 1e6;
      sums["comm.recv_wait_s"] += span_seconds(tr, EventKind::kRecvWait);
      mp_seconds += st.seconds;
    }

    // --- serve: an immutable Factorization and its solve sessions.
    {
      auto solver = std::make_unique<sstar::Solver>(in.a);
      solver->factorize();
      gate.factors(solver->numeric(), ref, "Solver::factorize");
      std::shared_ptr<const sstar::serve::Factorization> f;
      sums["serve.create_s"] += time_it([&] {
        f = std::make_shared<const sstar::serve::Factorization>(
            std::move(solver));
      });
      sums["serve.solve_levels"] += f->graph().num_levels();

      sstar::serve::SolveSession one(f, {1, kPanelWidth});
      one.solve(in.b);  // warm-up
      const sstar::trace::Trace tr = traced([&] {
        for (int r = 0; r < kTracedSolves; ++r) {
          const std::vector<double> x = one.solve(in.b);
          gate.solutions(in, in.b.data(), x.data());
        }
      });
      sums["serve.fsolve_s"] += span_seconds(tr, EventKind::kFSolve) /
                                kTracedSolves;
      sums["serve.bsolve_s"] += span_seconds(tr, EventKind::kBSolve) /
                                kTracedSolves;

      // The request mix: the single-RHS solves above, one panel-width
      // request and one that crosses the panel width.
      sstar::serve::SolveSession wide(f, {host.threads, kPanelWidth});
      for (const int width : {kPanelWidth, kCrossingWidth}) {
        const std::size_t extra = (width - kPanelWidth) * in.b.size();
        std::vector<double> b(in.b32);
        b.insert(b.end(), in.b32.begin(), in.b32.begin() + extra);
        const std::vector<double> x = wide.solve_multi(b, width);
        gate.solutions(in, b.data(), x.data(), width);
      }
      for (const sstar::serve::SessionStats& st : {one.stats(), wide.stats()}) {
        sweeps += static_cast<double>(st.sweeps);
        requests += static_cast<double>(st.requests);
      }
    }
  }

  const UpdateShape median_shape = flop_weighted_median(shapes);
  const double blas_gflops =
      dgemm_gflops(median_shape.m, median_shape.n, median_shape.k);
  const double factor_gflops =
      sums["core.factor_flops"] / sums["core.factor_s"] / 1e9;
  const double capacity = host.threads * sums["exec.wall_s"];

  std::vector<Metric> out;
  auto put = [&](const char* n, const char* unit, double v) {
    out.push_back({n, unit, v, 1});
  };
  for (const char* n :
       {"ordering.transversal_s", "matrix.ata_pattern_s",
        "ordering.min_degree_s", "ordering.etree_postorder_s",
        "symbolic.static_symbolic_s", "supernode.partition_s",
        "supernode.layout_s", "solve.prepare_s"})
    put(n, "s", sums[n]);
  put("matrix.ata_nnz", "count", sums["matrix.ata_nnz"]);
  put("symbolic.struct_nnz", "count", sums["symbolic.struct_nnz"]);
  put("supernode.blocks", "count", sums["supernode.blocks"]);
  put("supernode.avg_width", "cols", total_cols / sums["supernode.blocks"]);

  put("core.assemble_s", "s", sums["core.assemble_s"]);
  put("core.factor_s", "s", sums["core.factor_s"]);
  put("core.factor_flops", "flop", sums["core.factor_flops"]);
  put("core.factor_gflops", "GF/s", factor_gflops);
  put("core.blas3_fraction", "ratio", blas3_flops / sums["core.factor_flops"]);
  put("core.update_spans", "count", sums["core.update_spans"]);
  put("core.update_us.p50", "us", percentile(update_us, 0.5) * 1e6);

  put("blas.dgemm_gflops", "GF/s", blas_gflops);
  put("blas.factor_to_dgemm", "ratio", factor_gflops / blas_gflops);

  put("exec.tasks_run", "count", sums["exec.tasks_run"]);
  put("exec.steals", "count", sums["exec.steals"]);
  put("exec.busy_s", "s", sums["exec.busy_s"]);
  put("exec.idle_s", "s", capacity - sums["exec.busy_s"]);
  put("exec.efficiency", "ratio", sums["exec.busy_s"] / capacity);
  put("exec.busy_inflation", "ratio",
      sums["exec.busy_s"] / sums["core.factor_s"]);
  put("exec.first_call_s", "s", sums["exec.first_call_s"]);
  put("exec.critical_path_s", "s", sums["exec.critical_path_s"]);
  put("exec.run_2d_real_s", "s", sums["exec.run_2d_real_s"]);
  put("exec.run_1d_real_s", "s", sums["exec.run_1d_real_s"]);

  put("comm.messages", "count", sums["comm.messages"]);
  put("comm.bytes", "B", sums["comm.bytes"]);
  put("comm.recv_wait_s", "s", sums["comm.recv_wait_s"]);
  put("comm.recv_wait_share", "ratio",
      sums["comm.recv_wait_s"] / (host.ranks * mp_seconds));
  put("comm.peak_store_mb", "MB", sums["comm.peak_store_mb"]);

  put("serve.create_s", "s", sums["serve.create_s"]);
  put("serve.solve_levels", "count", sums["serve.solve_levels"]);
  put("serve.sweeps_per_request", "ratio", sweeps / requests);
  put("serve.fsolve_s", "s", sums["serve.fsolve_s"]);
  put("serve.bsolve_s", "s", sums["serve.bsolve_s"]);

  put("trace.overhead", "ratio", par_traced / par_untraced);
  return out;
}

}  // namespace perfbench
