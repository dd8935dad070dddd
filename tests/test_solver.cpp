// End-to-end tests of the public Solver facade, including all ordering
// options and the generated benchmark suite.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "matrix/generators.hpp"
#include "matrix/pattern_ops.hpp"
#include "matrix/suite.hpp"
#include "ordering/etree.hpp"
#include "ordering/min_degree.hpp"
#include "ordering/nested_dissection.hpp"
#include "ordering/rcm.hpp"
#include "ordering/transversal.hpp"
#include "solve/solver.hpp"
#include "supernode/partition.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sstar {
namespace {

void expect_solves(const SparseMatrix& a, SolverOptions opt,
                   double tol = 1e-7) {
  Solver solver(a, opt);
  solver.factorize();
  const auto want = testing::random_vector(a.rows(), 4242);
  const auto b = a.multiply(want);
  const auto got = solver.solve(b);
  EXPECT_LT(testing::max_abs_diff(got, want), tol);
  EXPECT_LT(testing::solve_residual(a, got, b), 1e-12);
}

TEST(Solver, SolvesWithEachOrdering) {
  const auto a = testing::random_sparse(80, 4, 77);
  for (const auto ord : {SolverOptions::Ordering::kMinDegreeAtA,
                         SolverOptions::Ordering::kRcm,
                         SolverOptions::Ordering::kNatural}) {
    SolverOptions opt;
    opt.ordering = ord;
    expect_solves(a, opt);
  }
}

TEST(Solver, SolvesShiftedDiagonalMatrix) {
  // A matrix needing the transversal: cyclic shift plus noise.
  const int n = 40;
  std::vector<Triplet> t;
  Rng rng(17);
  for (int j = 0; j < n; ++j) {
    t.push_back({(j + 1) % n, j, 3.0 + rng.uniform()});
    t.push_back({(j + 7) % n, j, rng.uniform(-1.0, 1.0)});
  }
  expect_solves(SparseMatrix::from_triplets(n, n, std::move(t)),
                SolverOptions{});
}

TEST(Solver, RejectsSolveBeforeFactorize) {
  Solver solver(testing::random_sparse(10, 2, 3));
  EXPECT_THROW(solver.solve(std::vector<double>(10, 1.0)), CheckError);
}

TEST(Solver, RejectsStructurallySingular) {
  const auto a = SparseMatrix::from_triplets(
      3, 3, {{0, 0, 1.0}, {1, 0, 1.0}, {0, 1, 1.0}, {1, 1, 1.0}});
  EXPECT_THROW(Solver{a}, CheckError);
}

// Hostile values fail fast with the entry named in the caller's
// numbering, before any ordering permutes it.
std::string prepare_error(const SparseMatrix& a) {
  try {
    (void)prepare(a, SolverOptions{});
  } catch (const CheckError& e) {
    return e.what();
  }
  return "(no error)";
}

SparseMatrix tridiagonal_with(int n, int row, int col, double v) {
  std::vector<Triplet> t;
  for (int i = 0; i < n; ++i) {
    t.push_back({i, i, 4.0});
    if (i > 0) t.push_back({i, i - 1, -1.0});
    if (i + 1 < n) t.push_back({i, i + 1, -1.0});
  }
  t.push_back({row, col, v});  // summed into the stored entry
  return SparseMatrix::from_triplets(n, n, std::move(t));
}

TEST(Solver, RejectsNaNNamingOriginalEntry) {
  const std::string what =
      prepare_error(tridiagonal_with(8, 2, 1, std::nan("")));
  EXPECT_NE(what.find("non-finite value nan at original (row 2, col 1)"),
            std::string::npos)
      << what;
}

TEST(Solver, RejectsInfinityNamingOriginalEntry) {
  const std::string what = prepare_error(
      tridiagonal_with(8, 0, 0, std::numeric_limits<double>::infinity()));
  EXPECT_NE(what.find("non-finite value inf at original (row 0, col 0)"),
            std::string::npos)
      << what;
}

// A numerically singular column is named in the caller's numbering, not
// by its position in the permuted matrix the factor runs on.
TEST(Solver, SingularPivotNamesOriginalColumn) {
  // Arrow matrix whose dense column 0 holds only stored zeros: the
  // ordering moves it last, and it is the one dependent column.
  const int n = 8;
  std::vector<Triplet> t = {{0, 0, 0.0}};
  for (int i = 1; i < n; ++i) {
    t.push_back({i, i, 4.0});
    t.push_back({0, i, 1.0});
    t.push_back({i, 0, 0.0});
  }
  Solver solver(SparseMatrix::from_triplets(n, n, std::move(t)));
  const std::vector<int>& q = solver.setup().col_perm;
  ASSERT_NE(q[0], 0) << "the ordering kept column 0 in place";
  try {
    solver.factorize();
    FAIL() << "factorize() accepted a singular matrix";
  } catch (const SingularPivotError& e) {
    EXPECT_STREQ(e.what(),
                 "matrix is numerically singular at original column 0");
  }
}

TEST(Solver, OrderingReducesFillOnStencil) {
  gen::ValueOptions vo;
  vo.seed = 5;
  const auto a = gen::stencil5(16, 16, 0.0, vo);
  SolverOptions natural;
  natural.ordering = SolverOptions::Ordering::kNatural;
  SolverOptions mindeg;
  const auto s_nat = prepare(a, natural);
  const auto s_md = prepare(a, mindeg);
  EXPECT_LT(s_md.structure.factor_entries(),
            s_nat.structure.factor_entries());
}

TEST(Solver, AmalgamationGrowsBlocksAndKeepsCorrectness) {
  gen::ValueOptions vo;
  vo.seed = 9;
  const auto a = gen::fem2d(8, 8, 2, 0.0, vo);
  SolverOptions r0;
  r0.amalgamation = 0;
  SolverOptions r6;
  r6.amalgamation = 6;
  const auto s0 = prepare(a, r0);
  const auto s6 = prepare(a, r6);
  EXPECT_LE(s6.layout->num_blocks(), s0.layout->num_blocks());
  expect_solves(a, r6, 1e-6);
}

// prepare() as it was built from public calls before the column etree:
// AᵀA formed once for the ordering and again, after permuting, for the
// postorder's elimination tree, and the postorder applied as a second
// permutation. Equilibration off (the default).
struct ReferenceSetup {
  SparseMatrix permuted;
  std::vector<int> row_perm, col_perm;
  StaticStructure structure;
  std::vector<int> starts;
};

ReferenceSetup two_ata_prepare(const SparseMatrix& a,
                               const SolverOptions& opt) {
  const int n = a.rows();
  std::vector<int> rowt;
  const SparseMatrix a1 = make_zero_free_diagonal(a, &rowt);
  std::vector<int> q;
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
      ADD_FAILURE() << "reference covers the fill-reducing orderings";
      break;
  }
  ReferenceSetup r;
  r.permuted = a1.permuted(q, q);
  const std::vector<int> post =
      postorder(elimination_tree(ata_pattern(r.permuted)));
  r.permuted = r.permuted.permuted(post, post);
  for (int i = 0; i < n; ++i) {
    r.col_perm.push_back(q[post[i]]);
    r.row_perm.push_back(rowt[r.col_perm.back()]);
  }
  r.structure = static_symbolic_factorization(r.permuted);
  r.starts = amalgamate(r.structure,
                        find_supernodes(r.structure, opt.max_block),
                        opt.amalgamation, opt.max_block)
                 .start;
  return r;
}

TEST(Solver, PrepareMatchesTwoAtaReference) {
  std::vector<std::pair<std::string, SparseMatrix>> inputs;
  for (std::uint64_t seed = 0; seed < 3; ++seed)
    inputs.emplace_back("random seed " + std::to_string(seed),
                        testing::random_sparse(150, 3, 2200 + seed));
  {
    // Needs the transversal: a cyclic shift plus noise.
    const int n = 60;
    std::vector<Triplet> t;
    Rng rng(2210);
    for (int j = 0; j < n; ++j) {
      t.push_back({(j + 1) % n, j, 3.0 + rng.uniform()});
      t.push_back({(j + 11) % n, j, rng.uniform(-1.0, 1.0)});
    }
    inputs.emplace_back("shifted",
                        SparseMatrix::from_triplets(n, n, std::move(t)));
  }
  {
    const int n = 300;
    std::vector<Triplet> t;
    for (int i = 0; i < n; ++i) {
      t.push_back({i, i, 4.0});
      if (i + 1 < n) t.push_back({i + 1, i, -1.0});
      if (i + 1 < n) t.push_back({i, i + 1, -1.0});
      if (i != 123) t.push_back({123, i, 0.25});
    }
    inputs.emplace_back("dense row",
                        SparseMatrix::from_triplets(n, n, std::move(t)));
  }
  for (const char* name : {"sherman5", "orsreg1", "jpwh991"})
    inputs.emplace_back(name, gen::suite_entry(name).generate(0.2, 1));

  for (const auto ord : {SolverOptions::Ordering::kMinDegreeAtA,
                         SolverOptions::Ordering::kNestedDissection,
                         SolverOptions::Ordering::kRcm}) {
    SolverOptions opt;
    opt.ordering = ord;
    for (const auto& [what, a] : inputs) {
      SCOPED_TRACE(what + ", ordering " +
                   std::to_string(static_cast<int>(ord)));
      const SolverSetup got = prepare(a, opt);
      const ReferenceSetup want = two_ata_prepare(a, opt);
      EXPECT_EQ(got.row_perm, want.row_perm);
      EXPECT_EQ(got.col_perm, want.col_perm);
      EXPECT_EQ(got.permuted.col_ptr(), want.permuted.col_ptr());
      EXPECT_EQ(got.permuted.row_idx(), want.permuted.row_idx());
      EXPECT_EQ(got.permuted.values(), want.permuted.values());
      EXPECT_EQ(got.structure.l_col_ptr, want.structure.l_col_ptr);
      EXPECT_EQ(got.structure.l_rows, want.structure.l_rows);
      EXPECT_EQ(got.structure.u_row_ptr, want.structure.u_row_ptr);
      EXPECT_EQ(got.structure.u_cols, want.structure.u_cols);
      EXPECT_EQ(got.layout->partition().start, want.starts);
    }
  }
}

TEST(Solver, EquilibratedPrepareScalesTheSameAnalysis) {
  const auto a = gen::suite_entry("sherman5").generate(0.2, 1);
  SolverOptions eq;
  eq.equilibrate = true;
  const SolverSetup plain = prepare(a, SolverOptions{});
  const SolverSetup scaled = prepare(a, eq);
  EXPECT_EQ(scaled.row_perm, plain.row_perm);
  EXPECT_EQ(scaled.col_perm, plain.col_perm);
  EXPECT_EQ(scaled.structure.u_cols, plain.structure.u_cols);
  EXPECT_EQ(scaled.structure.l_rows, plain.structure.l_rows);
  ASSERT_TRUE(scaled.permuted.same_pattern(plain.permuted));
  const SparseMatrix& p = scaled.permuted;
  for (int j = 0; j < p.cols(); ++j) {
    const int oj = scaled.col_perm[j];
    for (int k = p.col_begin(j); k < p.col_end(j); ++k) {
      const int oi = scaled.row_perm[p.row_idx()[k]];
      EXPECT_EQ(p.values()[k],
                a.at(oi, oj) * (scaled.row_scale[oi] * scaled.col_scale[oj]));
    }
  }
}

class SuiteSmoke : public ::testing::TestWithParam<const char*> {};

TEST_P(SuiteSmoke, GeneratesAndSolvesAtTinyScale) {
  const auto& entry = gen::suite_entry(GetParam());
  const auto a = entry.generate(/*scale=*/0.04, /*seed=*/3);
  ASSERT_GT(a.rows(), 0);
  EXPECT_EQ(a.zero_diagonal_count(), 0)
      << "generators must emit full diagonals";
  SolverOptions opt;
  opt.max_block = 16;
  expect_solves(a, opt, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    AllMatrices, SuiteSmoke,
    ::testing::Values("sherman5", "lnsp3937", "lns3937", "sherman3",
                      "jpwh991", "orsreg1", "saylr4", "goodwin", "e40r0100",
                      "ex11", "raefsky4", "inaccura", "af23560", "vavasis3",
                      "b33_5600", "dense1000", "memplus", "wang3"));

TEST(Suite, StatisticsRoughlyMatchPaperAtFullScale) {
  // Order must match the published order closely and nnz within a loose
  // factor for the small matrices (structural replicas, not copies).
  for (const char* name : {"sherman5", "jpwh991", "orsreg1", "saylr4"}) {
    const auto& e = gen::suite_entry(name);
    const auto a = e.generate(1.0, 1);
    EXPECT_NEAR(a.rows(), e.paper_order, e.paper_order * 0.02) << name;
    EXPECT_NEAR(static_cast<double>(a.nnz()),
                static_cast<double>(e.paper_nnz), 0.25 * e.paper_nnz)
        << name;
  }
}

TEST(Suite, LookupFailsOnUnknownName) {
  EXPECT_THROW(gen::suite_entry("nonexistent"), CheckError);
}

TEST(Suite, PrincipalSubmatrixTruncates) {
  const auto a = testing::random_sparse(20, 3, 5);
  const auto b = gen::principal_submatrix(a, 12);
  EXPECT_EQ(b.rows(), 12);
  for (int j = 0; j < 12; ++j)
    for (int k = b.col_begin(j); k < b.col_end(j); ++k)
      EXPECT_DOUBLE_EQ(b.values()[k], a.at(b.row_idx()[k], j));
}

}  // namespace
}  // namespace sstar
