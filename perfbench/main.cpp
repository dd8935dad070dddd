// S* host benchmark: command-line entry point.
//
//   sstar_perfbench --workload <small-suite|large-suite|ata-stress>
//                   --seed <n> --seconds <s> --trace <0|1> [--git-rev <r>]
//   sstar_perfbench --self-test
//
// --trace 0 prints the end-to-end metrics (untraced); --trace 1 the
// per-layer metrics. The last line of stdout is one JSON object with the
// keys correct, attempted, failed and metrics. --self-test feeds the
// correctness gate a perturbed solution, a mismatched factor and a
// throwing operation, and exits 0 iff all three count as failures.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "solve/solver.hpp"

namespace perfbench {
namespace {

int self_test() {
  Gate gate;
  const MatrixInput in =
      make_input("dense-row-300", dense_row_matrix(300, 5), 5);
  sstar::Solver solver(in.a);
  solver.factorize();
  std::vector<double> x = solver.solve(in.b);
  const bool good = gate.solutions(in, in.b.data(), x.data());

  double x_max = 0.0;
  for (const double v : x) x_max = std::max(x_max, std::abs(v));
  x[x.size() / 2] += 1e-6 * x_max;
  const bool perturbed = gate.solutions(in, in.b.data(), x.data());

  sstar::SparseMatrix changed = solver.setup().permuted;
  changed.values()[0] *= 1.0 + 1e-6;
  sstar::SStarNumeric other(solver.layout());
  other.assemble(changed);
  other.factorize();
  const bool mismatched = gate.factors(other, solver.numeric(), "mismatched");

  const bool thrown =
      gate.run([]() -> bool { throw std::runtime_error("injected"); });

  const bool pass = good && !perturbed && !mismatched && !thrown &&
                    gate.attempted() == 4 && gate.failed() == 3;
  std::printf("gate self-test: good=%d perturbed=%d mismatched=%d thrown=%d "
              "attempted=%lld failed=%lld -> %s\n",
              good, perturbed, mismatched, thrown,
              static_cast<long long>(gate.attempted()),
              static_cast<long long>(gate.failed()), pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool seed_set = false, seconds_set = false, trace_set = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--self-test") return self_test();
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        seed_set = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        seconds_set = args.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1")
          throw std::invalid_argument("--trace takes 0 or 1");
        args.trace = value == "1";
        trace_set = true;
      } else if (flag == "--git-rev") {
        args.git_rev = value;
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (args.workload.empty() || !seed_set || !seconds_set || !trace_set)
      throw std::invalid_argument(
          "--workload, --seed, --seconds > 0 and --trace are required");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sstar_perfbench: %s\n", e.what());
    return 2;
  }

  try {
    const HostShape host = host_shape(args.workload);
    std::printf("S* host benchmark: workload %s, seed %llu, %s run, "
                "T=%d threads (nproc %d), %d MP ranks\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                args.trace ? "traced per-layer" : "untraced end-to-end",
                host.threads, host.nproc, host.ranks);
    std::fflush(stdout);
    Gate gate;
    const std::vector<Metric> metrics =
        args.trace ? run_layers(args, host, gate)
                   : run_end_to_end(args, host, gate);
    print_result(args, host, metrics, gate);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sstar_perfbench: run failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
