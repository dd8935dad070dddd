// Tests for the static symbolic factorization (George–Ng) — the
// correctness keystone of the whole S* approach: the predicted structure
// must contain the fill of ANY partial-pivoting sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "matrix/pattern_ops.hpp"
#include "ordering/transversal.hpp"
#include "symbolic/cholesky_symbolic.hpp"
#include "symbolic/static_symbolic.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sstar {
namespace {

// Reference implementation: the textbook quadratic row-union algorithm,
// straight from the paper's §3.1 description.
StaticStructure naive_static_symbolic(const SparseMatrix& a) {
  const int n = a.rows();
  std::vector<std::vector<bool>> row(n, std::vector<bool>(n, false));
  for (int j = 0; j < n; ++j)
    for (int k = a.col_begin(j); k < a.col_end(j); ++k)
      row[a.row_idx()[k]][j] = true;

  StaticStructure s;
  s.n = n;
  s.l_col_ptr.assign(n + 1, 0);
  s.u_row_ptr.assign(n + 1, 0);
  for (int k = 0; k < n; ++k) {
    std::vector<int> cand;
    for (int i = k; i < n; ++i)
      if (row[i][k]) cand.push_back(i);
    std::vector<bool> u(n, false);
    for (int i : cand)
      for (int j = k; j < n; ++j)
        if (row[i][j]) u[j] = true;
    for (int i : cand)
      for (int j = k; j < n; ++j) row[i][j] = u[j];
    for (int j = k; j < n; ++j)
      if (u[j]) s.u_cols.push_back(j);
    s.u_row_ptr[k + 1] = static_cast<std::int64_t>(s.u_cols.size());
    for (std::size_t c = 1; c < cand.size(); ++c) s.l_rows.push_back(cand[c]);
    s.l_col_ptr[k + 1] = static_cast<std::int64_t>(s.l_rows.size());
  }
  return s;
}

SparseMatrix small_dense_matrix() {
  const int n = 12;
  std::vector<Triplet> t;
  Rng rng(3);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) t.push_back({i, j, rng.uniform(1.0, 2.0)});
  return SparseMatrix::from_triplets(n, n, std::move(t));
}

void expect_matches_naive(const SparseMatrix& a, const std::string& what) {
  const auto fast = static_symbolic_factorization(a);
  const auto ref = naive_static_symbolic(a);
  EXPECT_EQ(fast.l_col_ptr, ref.l_col_ptr) << what;
  EXPECT_EQ(fast.l_rows, ref.l_rows) << what;
  EXPECT_EQ(fast.u_row_ptr, ref.u_row_ptr) << what;
  EXPECT_EQ(fast.u_cols, ref.u_cols) << what;
}

// Diagonal n x n plus a dense row (or column) at index d.
SparseMatrix diagonal_plus_dense(int n, int d, bool dense_row) {
  std::vector<Triplet> t;
  for (int i = 0; i < n; ++i) {
    t.push_back({i, i, 2.0});
    if (i != d)
      t.push_back(dense_row ? Triplet{d, i, 1.0} : Triplet{i, d, 1.0});
  }
  return SparseMatrix::from_triplets(n, n, std::move(t));
}

TEST(StaticSymbolic, MatchesNaiveReference) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    auto a = testing::random_sparse(30, 3, 500 + seed);
    a = make_zero_free_diagonal(a);
    expect_matches_naive(a, "seed " + std::to_string(seed));
  }
  expect_matches_naive(SparseMatrix::from_triplets(1, 1, {{0, 0, 1.0}}),
                       "n = 1");
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto a = make_zero_free_diagonal(
        testing::random_sparse(60, 2, 520 + seed));
    expect_matches_naive(a, "n = 60, seed " + std::to_string(seed));
  }
  for (const int d : {0, 17, 39}) {
    expect_matches_naive(diagonal_plus_dense(40, d, true),
                         "dense row " + std::to_string(d));
    expect_matches_naive(diagonal_plus_dense(40, d, false),
                         "dense column " + std::to_string(d));
  }
}

TEST(StaticSymbolic, Fig2ExampleInvariants) {
  const auto a = testing::paper_fig2_matrix();
  const auto s = static_symbolic_factorization(a);
  EXPECT_EQ(s.n, 5);
  // The structure must contain A itself.
  for (int j = 0; j < 5; ++j)
    for (int k = a.col_begin(j); k < a.col_end(j); ++k) {
      const int i = a.row_idx()[k];
      if (i > j) {
        EXPECT_TRUE(std::binary_search(s.l_rows.begin() + s.l_col_ptr[j],
                                       s.l_rows.begin() + s.l_col_ptr[j + 1],
                                       i));
      } else {
        EXPECT_TRUE(std::binary_search(s.u_cols.begin() + s.u_row_ptr[i],
                                       s.u_cols.begin() + s.u_row_ptr[i + 1],
                                       j));
      }
    }
  // Diagonal present in every U row.
  for (int r = 0; r < 5; ++r) EXPECT_EQ(s.u_cols[s.u_row_ptr[r]], r);
}

TEST(StaticSymbolic, RequiresZeroFreeDiagonal) {
  const auto a = SparseMatrix::from_triplets(
      3, 3, {{1, 0, 1.0}, {0, 1, 1.0}, {2, 2, 1.0}});
  EXPECT_THROW(static_symbolic_factorization(a), CheckError);
}

TEST(StaticSymbolic, DenseMatrixGivesFullStructure) {
  const auto a = small_dense_matrix();
  const auto s = static_symbolic_factorization(a);
  const int n = a.rows();
  EXPECT_EQ(s.l_nnz(), static_cast<std::int64_t>(n) * (n - 1) / 2);
  EXPECT_EQ(s.u_nnz(), static_cast<std::int64_t>(n) * (n + 1) / 2);
  std::int64_t want_ops = 0;
  for (int k = 0; k < n; ++k) {
    const std::int64_t l = n - 1 - k;
    want_ops += l + 2 * l * l;
  }
  EXPECT_EQ(s.factor_ops(), want_ops);
}

// Property: the static structure bounds the fill of any pivot sequence.
//
// Reference GEPP in the storage-row formulation S* itself uses: the row
// interchange applies only to the active region (columns >= k); computed
// L multipliers stay with their storage row. In this formulation the
// George–Ng guarantee is per storage row: every L multiplier at storage
// row r, step j has r in the static L column j, and every U entry of the
// step-k pivot row lies in static U row k.
class PivotContainment : public ::testing::TestWithParam<int> {};

TEST_P(PivotContainment, CoversActualGeppFill) {
  const int n = 24;
  auto base = testing::random_sparse(n, 3, GetParam());
  base = make_zero_free_diagonal(base);
  const auto s = static_symbolic_factorization(base);

  for (int trial = 0; trial < 8; ++trial) {
    auto a = base;
    Rng rng(1000 + GetParam() * 17 + trial);
    for (auto& v : a.values()) v = rng.uniform(0.5, 2.0) *
                                   (rng.bernoulli(0.5) ? 1.0 : -1.0);
    auto w = a.to_dense();  // active matrix, by storage row
    DenseMatrix l(n, n);    // multipliers, by storage row

    for (int k = 0; k < n; ++k) {
      // Pivot: max |w(i, k)| over i >= k.
      int piv = k;
      for (int i = k + 1; i < n; ++i)
        if (std::fabs(w(i, k)) > std::fabs(w(piv, k))) piv = i;
      ASSERT_NE(w(piv, k), 0.0);
      if (piv != k)  // swap active regions only (columns >= k)
        for (int j = k; j < n; ++j) std::swap(w(k, j), w(piv, j));
      // Check the pivot row against static U row k.
      for (int j = k; j < n; ++j) {
        if (w(k, j) == 0.0) continue;
        EXPECT_TRUE(std::binary_search(s.u_cols.begin() + s.u_row_ptr[k],
                                       s.u_cols.begin() + s.u_row_ptr[k + 1],
                                       j))
            << "U fill (" << k << "," << j << ") escaped the bound";
      }
      // Eliminate; multipliers recorded by storage row.
      for (int i = k + 1; i < n; ++i) {
        if (w(i, k) == 0.0) continue;
        const double m = w(i, k) / w(k, k);
        l(i, k) = m;
        EXPECT_TRUE(std::binary_search(s.l_rows.begin() + s.l_col_ptr[k],
                                       s.l_rows.begin() + s.l_col_ptr[k + 1],
                                       i))
            << "L fill (" << i << "," << k << ") escaped the bound";
        for (int j = k; j < n; ++j) w(i, j) -= m * w(k, j);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PivotContainment, ::testing::Range(0, 8));

TEST(StaticSymbolic, TighterThanCholeskyAtaBound) {
  // Table 1's point: the static bound is (usually much) tighter than
  // chol(AᵀA). It can never exceed it.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto a = testing::random_sparse(40, 3, 900 + seed);
    a = make_zero_free_diagonal(a);
    const auto s = static_symbolic_factorization(a);
    const auto bound = cholesky_ata_bound(a);
    EXPECT_LE(s.factor_entries(), bound.lu_bound) << "seed " << seed;
  }
}

TEST(StaticSymbolic, UStructuresSharedWithinCandidateGroups) {
  // Theorem 1's precondition: rows retiring from the same group share
  // their U structure: if k+1 is in L column k and the U row lengths
  // differ by one, U row k+1 must be U row k minus its diagonal.
  auto a = testing::random_sparse(30, 3, 4242);
  a = make_zero_free_diagonal(a);
  const auto s = static_symbolic_factorization(a);
  for (int k = 0; k + 1 < s.n; ++k) {
    const bool l_adjacent = std::binary_search(
        s.l_rows.begin() + s.l_col_ptr[k],
        s.l_rows.begin() + s.l_col_ptr[k + 1], k + 1);
    const auto len_k = s.u_row_ptr[k + 1] - s.u_row_ptr[k];
    const auto len_k1 = s.u_row_ptr[k + 2] - s.u_row_ptr[k + 1];
    if (l_adjacent && len_k == len_k1 + 1 &&
        s.u_cols[s.u_row_ptr[k] + 1] == k + 1) {
      EXPECT_TRUE(std::equal(s.u_cols.begin() + s.u_row_ptr[k] + 1,
                             s.u_cols.begin() + s.u_row_ptr[k + 1],
                             s.u_cols.begin() + s.u_row_ptr[k + 1]));
    }
  }
}

TEST(StaticSymbolic, StructureContainsHelper) {
  auto a = testing::random_sparse(20, 3, 31);
  a = make_zero_free_diagonal(a);
  const auto s = static_symbolic_factorization(a);
  // L = strict lower of A, U = upper of A: both inside the structure.
  std::vector<Triplet> lt, ut;
  for (int j = 0; j < 20; ++j)
    for (int k = a.col_begin(j); k < a.col_end(j); ++k) {
      const int i = a.row_idx()[k];
      (i > j ? lt : ut).push_back({i, j, a.values()[k]});
    }
  const auto l = SparseMatrix::from_triplets(20, 20, lt);
  const auto u = SparseMatrix::from_triplets(20, 20, ut);
  EXPECT_TRUE(structure_contains(s, l, u));
  // An entry outside the structure is caught.
  StaticStructure tiny;
  tiny.n = 20;
  tiny.l_col_ptr.assign(21, 0);
  tiny.u_row_ptr.assign(21, 0);
  EXPECT_FALSE(structure_contains(tiny, l, u));
}

}  // namespace
}  // namespace sstar
