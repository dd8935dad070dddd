#include "solve/solver.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "matrix/pattern_ops.hpp"
#include "ordering/etree.hpp"
#include "ordering/min_degree.hpp"
#include "ordering/nested_dissection.hpp"
#include "ordering/rcm.hpp"
#include "ordering/transversal.hpp"
#include "supernode/partition.hpp"
#include "util/check.hpp"

namespace sstar {

SolverSetup prepare(const SparseMatrix& a, const SolverOptions& opt) {
  SSTAR_CHECK(a.rows() == a.cols());
  SSTAR_CHECK(opt.max_block >= 1);
  const int n = a.rows();
  // A NaN or infinity fails here, in the caller's numbering: the factor
  // would report a NaN as a singular column of the permuted matrix and
  // run straight through an infinity.
  for (int j = 0; j < n; ++j)
    for (int k = a.col_begin(j); k < a.col_end(j); ++k)
      SSTAR_CHECK_MSG(std::isfinite(a.values()[k]),
                      "non-finite value " << a.values()[k]
                                          << " at original (row "
                                          << a.row_idx()[k] << ", col " << j
                                          << ")");

  SolverSetup setup;
  // 0. Optional equilibration: rows to unit max magnitude, then columns.
  //    Without it the input is read in place.
  SparseMatrix scaled;
  if (opt.equilibrate) {
    scaled = a;
    // Row scales: 1 / max |row| (empty rows keep scale 1).
    setup.row_scale.assign(static_cast<std::size_t>(n), 0.0);
    for (int j = 0; j < n; ++j)
      for (int k = scaled.col_begin(j); k < scaled.col_end(j); ++k)
        setup.row_scale[scaled.row_idx()[k]] =
            std::max(setup.row_scale[scaled.row_idx()[k]],
                     std::fabs(scaled.values()[k]));
    for (double& s : setup.row_scale) s = s > 0.0 ? 1.0 / s : 1.0;

    // Column scales on the row-scaled matrix, then apply both.
    setup.col_scale.assign(static_cast<std::size_t>(n), 0.0);
    for (int j = 0; j < n; ++j)
      for (int k = scaled.col_begin(j); k < scaled.col_end(j); ++k)
        setup.col_scale[j] =
            std::max(setup.col_scale[j],
                     std::fabs(scaled.values()[k]) *
                         setup.row_scale[scaled.row_idx()[k]]);
    for (double& s : setup.col_scale) s = s > 0.0 ? 1.0 / s : 1.0;
    for (int j = 0; j < n; ++j)
      for (int k = scaled.col_begin(j); k < scaled.col_end(j); ++k)
        scaled.values()[k] *=
            setup.row_scale[scaled.row_idx()[k]] * setup.col_scale[j];
  }
  const SparseMatrix& a0 = opt.equilibrate ? scaled : a;

  // 1. Row transversal for a zero-free diagonal.
  std::vector<int> rowt(n);
  for (int i = 0; i < n; ++i) rowt[i] = i;
  SparseMatrix transversed;
  if (opt.use_transversal) {
    transversed = make_zero_free_diagonal(a0, &rowt);
  } else {
    SSTAR_CHECK_MSG(a0.zero_diagonal_count() == 0,
                    "diagonal has zeros and use_transversal is off");
  }
  const SparseMatrix& a1 = opt.use_transversal ? transversed : a0;

  // 2. Fill-reducing ordering, applied symmetrically so the zero-free
  //    diagonal is preserved (the paper orders by minimum degree on AᵀA).
  std::vector<int> q(n);
  for (int j = 0; j < n; ++j) q[j] = j;
  switch (opt.ordering) {
    case SolverOptions::Ordering::kMinDegreeAtA:
      q = min_degree_order(ata_pattern(a1));
      break;
    case SolverOptions::Ordering::kNestedDissection:
      q = nested_dissection_order(ata_pattern(a1));
      break;
    case SolverOptions::Ordering::kRcm:
      q = rcm_order(aplusat_pattern(a1));
      break;
    case SolverOptions::Ordering::kNatural:
      break;
  }

  if (opt.ordering != SolverOptions::Ordering::kNatural) {
    // Postorder the elimination tree of AᵀA under the chosen ordering:
    // equivalent fill, but parents immediately follow their children,
    // which is what lets supernodes grow and amalgamation (§3.3) find
    // its consecutive merge candidates. The tree comes from A's columns
    // in the order q (column_etree), so AᵀA is not formed again, and
    // q∘post is applied in one permutation.
    const std::vector<int> post = postorder(column_etree(a1, q));
    std::vector<int> composed(n);
    for (int i = 0; i < n; ++i) composed[i] = q[post[i]];
    q = std::move(composed);
  }
  setup.permuted = a1.permuted(q, q);

  // Composite permutations back to the original numbering.
  setup.row_perm.resize(n);
  setup.col_perm.resize(n);
  for (int i = 0; i < n; ++i) {
    setup.row_perm[i] = rowt[q[i]];
    setup.col_perm[i] = q[i];
  }

  // 3. Static symbolic factorization + 2D L/U supernode partitioning.
  setup.structure = static_symbolic_factorization(setup.permuted);
  SupernodePartition part = find_supernodes(setup.structure, opt.max_block);
  setup.presplit_avg_width = part.average_width();
  part = opt.amalgamation_style ==
                 SolverOptions::AmalgamationStyle::kTreeGuided
             ? amalgamate_tree(setup.structure, part, opt.amalgamation,
                               opt.max_block)
             : amalgamate(setup.structure, part, opt.amalgamation,
                          opt.max_block);
  setup.layout = std::make_unique<BlockLayout>(setup.structure,
                                               std::move(part));
  return setup;
}

Solver::Solver(const SparseMatrix& a, SolverOptions opt)
    : opt_(opt), setup_(prepare(a, opt)), numeric_(*setup_.layout) {
  numeric_.set_pivot_policy(opt.pivot);
  numeric_.assemble(setup_.permuted);
}

void Solver::factorize() {
  try {
    numeric_.factorize();
  } catch (const SingularPivotError& e) {
    throw SingularPivotError(setup_.col_perm[e.column()], "original ");
  }
  factorized_ = true;
}

void Solver::refactorize(const PivotPolicy& policy) {
  opt_.pivot = policy;
  numeric_.set_pivot_policy(policy);
  numeric_.assemble(setup_.permuted);  // re-load values, reset pivots
  factorize();
}

std::vector<double> Solver::solve(const std::vector<double>& b) const {
  SSTAR_CHECK_MSG(factorized_, "solve() before factorize()");
  const int n = setup_.permuted.rows();
  SSTAR_CHECK(static_cast<int>(b.size()) == n);
  // Permute (and, under equilibration, scale) the right-hand side into
  // the pipeline's row numbering.
  const bool eq = !setup_.row_scale.empty();
  std::vector<double> c(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int orig = setup_.row_perm[i];
    c[i] = eq ? b[orig] * setup_.row_scale[orig] : b[orig];
  }
  const std::vector<double> y = numeric_.solve(std::move(c));
  // Undo the column permutation (and column scaling).
  std::vector<double> x(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const int orig = setup_.col_perm[j];
    x[orig] = eq ? y[j] * setup_.col_scale[orig] : y[j];
  }
  return x;
}

std::vector<double> Solver::solve_multi(const std::vector<double>& b,
                                        int nrhs) const {
  SSTAR_CHECK_MSG(factorized_, "solve_multi() before factorize()");
  const int n = setup_.permuted.rows();
  SSTAR_CHECK(nrhs >= 0);
  SSTAR_CHECK(static_cast<int>(b.size()) ==
              static_cast<std::int64_t>(n) * nrhs);
  const bool eq = !setup_.row_scale.empty();

  std::vector<double> c(b.size());
  for (int r = 0; r < nrhs; ++r) {
    const double* src = b.data() + static_cast<std::ptrdiff_t>(r) * n;
    double* dst = c.data() + static_cast<std::ptrdiff_t>(r) * n;
    for (int i = 0; i < n; ++i) {
      const int orig = setup_.row_perm[i];
      dst[i] = eq ? src[orig] * setup_.row_scale[orig] : src[orig];
    }
  }
  numeric_.solve_multi(c.data(), nrhs);
  std::vector<double> x(b.size());
  for (int r = 0; r < nrhs; ++r) {
    const double* src = c.data() + static_cast<std::ptrdiff_t>(r) * n;
    double* dst = x.data() + static_cast<std::ptrdiff_t>(r) * n;
    for (int j = 0; j < n; ++j) {
      const int orig = setup_.col_perm[j];
      dst[orig] = eq ? src[j] * setup_.col_scale[orig] : src[j];
    }
  }
  return x;
}

std::vector<double> Solver::solve_transpose(
    const std::vector<double>& b) const {
  SSTAR_CHECK_MSG(factorized_, "solve_transpose() before factorize()");
  const int n = setup_.permuted.rows();
  SSTAR_CHECK(static_cast<int>(b.size()) == n);
  // With B = R A Cᵀ (the pipeline's permuted matrix), Aᵀ x = b becomes
  // Bᵀ y = C b with x = Rᵀ y: feed b through the COLUMN permutation,
  // and read the result back through the ROW permutation.
  const bool eq = !setup_.row_scale.empty();
  std::vector<double> c(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const int orig = setup_.col_perm[j];
    c[j] = eq ? b[orig] * setup_.col_scale[orig] : b[orig];
  }
  const std::vector<double> y = numeric_.solve_transpose(std::move(c));
  std::vector<double> x(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int orig = setup_.row_perm[i];
    x[orig] = eq ? y[i] * setup_.row_scale[orig] : y[i];
  }
  return x;
}

std::vector<double> Solver::solve_transpose_multi(
    const std::vector<double>& b, int nrhs) const {
  SSTAR_CHECK_MSG(factorized_, "solve_transpose_multi() before factorize()");
  const int n = setup_.permuted.rows();
  SSTAR_CHECK(nrhs >= 0);
  SSTAR_CHECK(static_cast<int>(b.size()) ==
              static_cast<std::int64_t>(n) * nrhs);
  // Same permutation sandwich as solve_transpose, per RHS column: feed
  // through the COLUMN permutation, read back through the ROW one.
  const bool eq = !setup_.row_scale.empty();
  std::vector<double> c(b.size());
  for (int r = 0; r < nrhs; ++r) {
    const double* src = b.data() + static_cast<std::ptrdiff_t>(r) * n;
    double* dst = c.data() + static_cast<std::ptrdiff_t>(r) * n;
    for (int j = 0; j < n; ++j) {
      const int orig = setup_.col_perm[j];
      dst[j] = eq ? src[orig] * setup_.col_scale[orig] : src[orig];
    }
  }
  numeric_.solve_transpose_multi(c.data(), nrhs);
  std::vector<double> x(b.size());
  for (int r = 0; r < nrhs; ++r) {
    const double* src = c.data() + static_cast<std::ptrdiff_t>(r) * n;
    double* dst = x.data() + static_cast<std::ptrdiff_t>(r) * n;
    for (int i = 0; i < n; ++i) {
      const int orig = setup_.row_perm[i];
      dst[orig] = eq ? src[i] * setup_.row_scale[orig] : src[i];
    }
  }
  return x;
}

}  // namespace sstar
