// Untraced run: what a user of S* waits for, per workload.
//
// Host speed drifts by ±20% over a few seconds on shared machines, and a
// busy neighbour can stall one of the T threads or MP ranks for seconds
// at a time, so the metrics are measured in cycles that repeat while the
// next one still fits in --seconds since the workload started (at least
// kMinCycles): each cycle takes a batch of samples of every metric,
// which spreads every metric's samples over the whole run. A repetition
// runs every matrix of the workload once and gives one sample per
// matrix; a timing reports the sum over the matrices of each matrix's
// median, so a stall costs only the one matrix sample it hit.
// Within a cycle each threaded metric runs its samples back to back
// after its own warm-up, because the first calls into the
// thread-parallel executor after sequential work can run slower (the
// traced run reports that gap as exec.first_call_s).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "core/lu_2d.hpp"
#include "core/task_graph.hpp"
#include "exec/lu_real.hpp"
#include "serve/factorization.hpp"
#include "serve/session.hpp"
#include "sim/machine.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

using sstar::SStarNumeric;
using sstar::Solver;
using sstar::WallTimer;

// setup_s is the median of at least kMinSetups set-ups, more while they
// take less than kSetupShare of --seconds.
constexpr int kMinSetups = 3;
constexpr double kSetupShare = 0.15;
constexpr int kMinCycles = 2;
// A batch of a listed metric takes at least its minimum count of
// repetitions and keeps going until it has run kBatchSeconds, so short
// repetitions, which vary most, get more samples. The factor metrics,
// whose samples vary most, take the largest batches.
constexpr double kBatchSeconds = 1.0;
constexpr int kSolutionBatch = 2;
constexpr int kFactorBatch = 4;      // refactor_s, refactor_par_s
constexpr int kParWarmups = 1;       // factorize_parallel repetitions
constexpr int kLatencySamples = 100; // single-RHS solves per percentile
constexpr int kThroughputBatch = 3;  // repetitions per batch, multi-RHS

/// Samples of one metric, per matrix.
using Samples = std::vector<std::vector<double>>;

/// One repetition: `one(i, seconds)` for every matrix i; a matrix whose
/// operation failed gives no sample.
using Repetition = std::function<bool(std::size_t, double&)>;

/// `warmups` untimed repetitions, then timed ones into `samples`: at
/// least `min_reps`, and until `min_seconds` have passed.
void batch(Samples& samples, int warmups, int min_reps, double min_seconds,
           const Repetition& one) {
  auto rep = [&](bool keep) {
    for (std::size_t i = 0; i < samples.size(); ++i) {
      double seconds = 0.0;
      if (one(i, seconds) && keep) samples[i].push_back(seconds);
    }
  };
  for (int i = 0; i < warmups; ++i) rep(false);
  const WallTimer t;
  for (int i = 0; i < min_reps || t.seconds() < min_seconds; ++i) rep(true);
}

/// Sum over the matrices of each matrix's median.
double sum_of_medians(const Samples& samples) {
  double total = 0.0;
  for (const std::vector<double>& m : samples) total += median(m);
  return total;
}

/// Time to solution for one matrix: a fresh Solver (prepare + assemble),
/// the parallel factor at `threads`, one solve. Returns the factored
/// Solver, or nullptr when the answer failed the gate.
std::unique_ptr<Solver> solve_once(const MatrixInput& in, int threads,
                                   Gate& gate, double& seconds) {
  std::unique_ptr<Solver> solver;
  const bool ok = gate.run([&] {
    const WallTimer t;
    solver = std::make_unique<Solver>(in.a);
    sstar::exec::LuRealOptions opt;
    opt.threads = threads;
    sstar::exec::factorize_parallel(solver->numeric(), opt);
    const std::vector<double> x = solve_with_factor(*solver, in.b);
    seconds = t.seconds();
    return gate.solutions(in, in.b.data(), x.data());
  });
  if (!ok) solver.reset();
  return solver;
}

}  // namespace

std::vector<Metric> run_end_to_end(const Args& args, const HostShape& host,
                                   Gate& gate) {
  const int threads = host.threads;
  const WallTimer run;

  // Set-up: inputs, RHS and one warm-up time-to-solution pass, whose
  // Solvers the refactor metrics reuse. The last set-up is kept.
  std::vector<MatrixInput> inputs;
  std::vector<std::unique_ptr<Solver>> solvers;
  std::vector<double> setup;
  double setup_total = 0.0;
  while (static_cast<int>(setup.size()) < kMinSetups ||
         setup_total < kSetupShare * args.seconds) {
    solvers.clear();
    inputs.clear();
    const WallTimer t;
    inputs = make_inputs(args.workload, args.seed);
    for (const MatrixInput& in : inputs) {
      double seconds = 0.0;
      solvers.push_back(solve_once(in, threads, gate, seconds));
      if (!solvers.back()) throw std::runtime_error("set-up solve failed");
    }
    setup.push_back(t.seconds());
    setup_total += setup.back();
  }
  const std::size_t nm = inputs.size();

  const sstar::sim::MachineModel machine =
      sstar::sim::MachineModel::cray_t3e(host.ranks);
  sstar::exec::LuRealOptions par_opt;
  par_opt.threads = threads;
  std::vector<std::unique_ptr<sstar::LuTaskGraph>> graphs;
  // Factor storage the threaded and MP refactors overwrite in place.
  std::vector<std::unique_ptr<SStarNumeric>> work;
  // Immutable sequential Factorizations every solve metric serves from.
  std::vector<std::unique_ptr<sstar::serve::SolveSession>> single, wide;
  for (std::size_t i = 0; i < nm; ++i) {
    graphs.push_back(
        std::make_unique<sstar::LuTaskGraph>(solvers[i]->layout()));
    work.push_back(std::make_unique<SStarNumeric>(solvers[i]->layout()));
    auto solver = std::make_unique<Solver>(inputs[i].a);
    solver->factorize();
    const auto f =
        std::make_shared<const sstar::serve::Factorization>(std::move(solver));
    single.push_back(std::make_unique<sstar::serve::SolveSession>(
        f, sstar::serve::SessionOptions{1, kPanelWidth}));
    wide.push_back(std::make_unique<sstar::serve::SolveSession>(
        f, sstar::serve::SessionOptions{threads, kPanelWidth}));
  }

  // Latency: one closed-loop client, round-robin over the
  // factorizations, `rounds` solves of each matrix per cycle.
  const std::size_t rounds = static_cast<std::size_t>(
      std::max((kLatencySamples + kMinCycles - 1) / kMinCycles,
               (kLatencySamples + static_cast<int>(nm) - 1) /
                   static_cast<int>(nm)));
  std::vector<std::vector<double>> latency_ms(nm);
  auto latency = [&](std::size_t rep_rounds, bool keep) {
    std::vector<std::vector<double>> rep(nm);
    bool ok = true;
    for (std::size_t r = 0; r < rep_rounds; ++r) {
      for (std::size_t i = 0; i < nm; ++i) {
        ok = gate.run([&] {
               const WallTimer t;
               const std::vector<double> x = single[i]->solve(inputs[i].b);
               rep[i].push_back(t.seconds() * 1e3);
               return gate.solutions(inputs[i], inputs[i].b.data(), x.data());
             }) && ok;
      }
    }
    if (ok && keep)
      for (std::size_t i = 0; i < nm; ++i)
        latency_ms[i].insert(latency_ms[i].end(), rep[i].begin(),
                             rep[i].end());
  };
  latency(1, /*keep=*/false);  // warm-up round

  Samples solution(nm), refactor(nm), refactor_par(nm), refactor_mp(nm),
      solve_multi(nm);
  // A cycle starts only while it is expected (as long as the last one)
  // to end within --seconds, so a run of long cycles does not overshoot.
  double last_cycle = 0.0;
  for (int cycle = 0;
       cycle < kMinCycles || run.seconds() + last_cycle < args.seconds;
       ++cycle) {
    const WallTimer cycle_time;
    batch(solution, 0, kSolutionBatch, kBatchSeconds,
          [&](std::size_t i, double& seconds) {
            return solve_once(inputs[i], threads, gate, seconds) != nullptr;
          });

    // Newton-step cost: numeric phase only, symbolic setup reused.
    // Leaves each Solver holding the sequential factors the threaded and
    // MP paths must reproduce bitwise.
    batch(refactor, 0, kFactorBatch, kBatchSeconds,
          [&](std::size_t i, double& seconds) {
            return gate.run([&] {
              const WallTimer t;
              solvers[i]->refactorize(sstar::PivotPolicy{});
              seconds = t.seconds();
              const std::vector<double> x = solvers[i]->solve(inputs[i].b);
              return gate.solutions(inputs[i], inputs[i].b.data(), x.data());
            });
          });

    batch(refactor_par, kParWarmups, kFactorBatch, kBatchSeconds,
          [&](std::size_t i, double& seconds) {
            return gate.run([&] {
              const WallTimer t;
              work[i]->assemble(solvers[i]->setup().permuted);
              sstar::exec::factorize_parallel(*graphs[i], *work[i], par_opt);
              seconds = t.seconds();
              return gate.factors(*work[i], solvers[i]->numeric(),
                                  "refactor_par");
            });
          });

    // Unlisted (see below), so one repetition a cycle, warmed up in the
    // first cycle only, leaves more of the run to the listed metrics.
    batch(refactor_mp, cycle == 0 ? 1 : 0, 1, 0.0,
          [&](std::size_t i, double& seconds) {
            return gate.run([&] {
              const WallTimer t;
              sstar::run_2d_mp(solvers[i]->layout(), machine, /*async=*/true,
                               solvers[i]->setup().permuted, *work[i]);
              seconds = t.seconds();
              return gate.factors(*work[i], solvers[i]->numeric(),
                                  "refactor_mp");
            });
          });

    latency(rounds, /*keep=*/true);

    batch(solve_multi, 1, kThroughputBatch, 0.0,
          [&](std::size_t i, double& seconds) {
            return gate.run([&] {
              const WallTimer t;
              const std::vector<double> x =
                  wide[i]->solve_multi(inputs[i].b32, kPanelWidth);
              seconds = t.seconds();
              return gate.solutions(inputs[i], inputs[i].b32.data(), x.data(),
                                    kPanelWidth);
            });
          });
    last_cycle = cycle_time.seconds();
  }

  std::vector<Metric> out;
  auto dump = [&](const char* name, const std::vector<double>& samples) {
    std::fprintf(stderr, "%s samples:", name);
    for (const double v : samples) std::fprintf(stderr, " %.6g", v);
    std::fprintf(stderr, "\n");
  };
  auto count = [](const Samples& samples) {
    std::int64_t n = 0;
    for (const std::vector<double>& m : samples)
      n += static_cast<std::int64_t>(m.size());
    return n;
  };
  auto report = [&](const char* name, const Samples& samples,
                    bool listed = true) {
    out.push_back({name, "s", sum_of_medians(samples), count(samples), listed});
    for (std::size_t i = 0; i < nm; ++i)
      dump((std::string(name) + " " + inputs[i].name).c_str(), samples[i]);
  };
  out.push_back({"setup_s", "s", median(setup),
                 static_cast<std::int64_t>(setup.size())});
  dump("setup_s", setup);
  report("solution_s", solution);
  report("refactor_s", refactor);
  report("refactor_par_s", refactor_par);
  // Measured and printed, but not in BENCHMARK.json: 4 ranks that block
  // on each other's messages run on 4 shared cores, so a busy neighbour
  // that stalls one rank stalls all four. While neighbours load the host
  // it spreads by up to 2.1 of its median over five and ten seeds, far
  // more than any listed timing and past any allowed bound.
  // solve_cols_per_s below is left out for the same reason.
  report("refactor_mp_s", refactor_mp, /*listed=*/false);
  // Like every timing here, a percentile sums over the matrices: each
  // matrix's own percentile, over at least kLatencySamples solves.
  double p50 = 0.0, p90 = 0.0;
  std::int64_t samples = 0;
  for (std::size_t i = 0; i < nm; ++i) {
    const std::vector<double>& m = latency_ms[i];
    p50 += percentile(m, 0.5);
    p90 += percentile(m, 0.9);
    samples += static_cast<std::int64_t>(m.size());
    std::fprintf(stderr, "solve_ms %s: p50 %.4g p90 %.4g over %zu\n",
                 inputs[i].name.c_str(), percentile(m, 0.5),
                 percentile(m, 0.9), m.size());
  }
  out.push_back({"solve_ms.p50", "ms", p50, samples});
  // Printed, but not in BENCHMARK.json: the tail of 1-30 ms solves on a
  // shared host follows the neighbours' bursts, and over ten seeds it
  // spread by up to 0.27 of its median, past the largest allowed bound.
  out.push_back({"solve_ms.p90", "ms", p90, samples, /*listed=*/false});
  // Columns of one width-32 request per matrix over the sum of each
  // matrix's median request time.
  for (std::size_t i = 0; i < nm; ++i)
    dump((std::string("solve_multi_s ") + inputs[i].name).c_str(),
         solve_multi[i]);
  out.push_back({"solve_cols_per_s", "cols/s",
                 static_cast<double>(kPanelWidth * nm) /
                     sum_of_medians(solve_multi),
                 count(solve_multi), /*listed=*/false});
  out.push_back({"peak_rss_mb", "MB", peak_rss_mb(), 1});
  return out;
}

}  // namespace perfbench
