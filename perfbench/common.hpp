// Shared pieces of the S* host benchmark: workload inputs, the
// correctness gate every repetition passes through, sample statistics,
// and the result printer.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/numeric.hpp"
#include "matrix/sparse.hpp"
#include "solve/solver.hpp"

namespace perfbench {

/// Command line of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string git_rev = "unknown";
};

/// Worker threads and MP ranks a workload uses.
struct HostShape {
  int nproc = 1;    ///< CPUs this process may run on
  int threads = 1;  ///< T: 1 on small-suite, else min(4, max(1, nproc / 2))
  int ranks = 4;    ///< in-process MP ranks on a 2 x 2 grid
};
HostShape host_shape(const std::string& workload);

/// One matrix of a workload with its seeded right-hand sides.
struct MatrixInput {
  std::string name;
  sstar::SparseMatrix a;
  double a_norm_inf = 0.0;
  std::vector<double> b;    ///< single RHS
  std::vector<double> b32;  ///< kPanelWidth RHS, column-major
};

inline constexpr int kPanelWidth = 32;

/// Generate the workload's matrices and RHS from `seed`. Throws
/// std::invalid_argument for an unknown workload. BENCHMARK.json lists
/// small-suite and large-suite; perfbench/README.md says why ata-stress
/// is left out.
std::vector<MatrixInput> make_inputs(const std::string& workload,
                                     std::uint64_t seed);

/// `a` with its ∞-norm and RHS drawn from `seed` and the matrix name.
MatrixInput make_input(std::string name, sstar::SparseMatrix a,
                       std::uint64_t seed);

/// Tridiagonal matrix of order n plus one dense row, about 3n nonzeros.
/// Row position and values come from `seed`; every row stays strictly
/// diagonally dominant, so the matrix is nonsingular.
sstar::SparseMatrix dense_row_matrix(int n, std::uint64_t seed);

/// Normwise backward error ‖b−Ax‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞).
double backward_error(const sstar::SparseMatrix& a, double a_norm_inf,
                      const double* b, const double* x);

/// Largest backward error a solve may have and still count as correct.
inline constexpr double kBackwardErrorTol = 1e-10;

/// x = A⁻¹ b through the Solver's permutations and a factor that was
/// computed outside Solver::factorize (e.g. by exec::factorize_parallel,
/// which leaves the Solver's factorized flag unset).
std::vector<double> solve_with_factor(const sstar::Solver& solver,
                                      const std::vector<double>& b);

/// Counts attempted and failed operations. Every check of the benchmark
/// goes through here; a failed or throwing operation is never timed as a
/// success.
class Gate {
 public:
  /// Run `op`; an exception counts as one failed operation.
  bool run(const std::function<bool()>& op);
  /// `ncols` column-major solves of `in` against `b`: every column's
  /// backward error within kBackwardErrorTol.
  bool solutions(const MatrixInput& in, const double* b, const double* x,
                 int ncols = 1);
  /// Factors bitwise identical to the sequential reference.
  bool factors(const sstar::SStarNumeric& got,
               const sstar::SStarNumeric& reference, const char* what);
  /// Count one operation that passed (`ok`) or failed.
  bool check(bool ok, const std::string& what);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::int64_t samples = 1;
  /// In BENCHMARK.json and so in the result object; otherwise printed in
  /// the table and the envelope only.
  bool listed = true;
};

/// Print the metric table, the result envelope (one JSON line) and, as
/// the last line of stdout, the result object.
void print_result(const Args& args, const HostShape& host,
                  const std::vector<Metric>& metrics, const Gate& gate);

/// Peak resident set size of this process, MB (10^6 bytes).
double peak_rss_mb();

/// Untraced run: the end-to-end metrics of `args.workload`.
std::vector<Metric> run_end_to_end(const Args& args, const HostShape& host,
                                   Gate& gate);

/// Traced run: each layer's public calls timed from outside, with the
/// trace collector installed around factor, MP and solve calls.
std::vector<Metric> run_layers(const Args& args, const HostShape& host,
                               Gate& gate);

}  // namespace perfbench
