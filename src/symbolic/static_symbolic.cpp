#include "symbolic/static_symbolic.hpp"

#include <algorithm>
#include <span>

#include "util/check.hpp"

namespace sstar {

std::int64_t StaticStructure::factor_ops() const {
  std::int64_t ops = 0;
  for (int k = 0; k < n; ++k) {
    const std::int64_t lk = l_col_ptr[k + 1] - l_col_ptr[k];
    const std::int64_t uk = u_row_ptr[k + 1] - u_row_ptr[k];  // incl diag
    ops += lk + 2 * lk * (uk - 1);
  }
  return ops;
}

StaticStructure static_symbolic_factorization(const SparseMatrix& a) {
  SSTAR_CHECK(a.rows() == a.cols());
  const int n = a.rows();
  SSTAR_CHECK_MSG(a.zero_diagonal_count() == 0,
                  "static symbolic factorization requires a zero-free "
                  "diagonal; run max_transversal first");

  // Row structures of A: build from Aᵀ (columns of Aᵀ are rows of A).
  const SparseMatrix at = a.transpose();

  StaticStructure s;
  s.n = n;
  s.l_col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  s.u_row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  s.l_rows.reserve(static_cast<std::size_t>(a.nnz()));
  s.u_cols.reserve(static_cast<std::size_t>(a.nnz()));

  // Group g < n is row g of A; group n + k is the group merged at step k.
  // Each group is queued once, under its smallest column, in the list
  // head[c] -> next[g] -> ... (see the header).
  std::vector<int> head(static_cast<std::size_t>(n), -1);
  std::vector<int> next(static_cast<std::size_t>(2) * n, -1);
  auto enqueue = [&](int g, int first_col) {
    next[g] = head[first_col];
    head[first_col] = g;
  };
  for (int i = 0; i < n; ++i) enqueue(i, at.row_idx()[at.col_begin(i)]);

  // Group g's structure and members: row g of A (its own only member;
  // the span points at the caller's g), or what step g - n emitted.
  using Span = std::span<const int>;
  auto cols_of = [&](int g) {
    if (g < n)
      return Span(at.row_idx().data() + at.col_begin(g),
                  at.row_idx().data() + at.col_end(g));
    const int t = g - n;  // U row t minus its diagonal
    return Span(s.u_cols.data() + s.u_row_ptr[t] + 1,
                s.u_cols.data() + s.u_row_ptr[t + 1]);
  };
  auto members_of = [&](const int& g) {
    if (g < n) return Span(&g, 1);
    const int t = g - n;  // L column t
    return Span(s.l_rows.data() + s.l_col_ptr[t],
                s.l_rows.data() + s.l_col_ptr[t + 1]);
  };

  std::vector<int> mark(static_cast<std::size_t>(n), -1);
  std::vector<int> extra_cols, extra_members;  // outside the base group
  std::vector<int> union_cols, union_members;  // the merged group

  for (int k = 0; k < n; ++k) {
    SSTAR_CHECK_MSG(head[k] != -1, "no candidate rows at step "
                                       << k << " (diagonal lost?)");
    // The union is sorted by merging the candidate with the largest
    // structure (already sorted) with everything the others add, sorted
    // on its own; that remainder is usually small.
    int base = head[k];
    for (int g = next[base]; g != -1; g = next[g])
      if (cols_of(g).size() > cols_of(base).size()) base = g;
    const Span bc = cols_of(base), bm = members_of(base);
    for (int c : bc) mark[c] = k;
    extra_cols.clear();
    extra_members.clear();
    for (int g = head[k]; g != -1; g = next[g]) {
      if (g == base) continue;
      const Span gc = cols_of(g), gm = members_of(g);
      for (int c : gc) {
        SSTAR_DCHECK(c >= k);
        if (mark[c] != k) {
          mark[c] = k;
          extra_cols.push_back(c);
        }
      }
      extra_members.insert(extra_members.end(), gm.begin(), gm.end());
    }
    std::sort(extra_cols.begin(), extra_cols.end());
    std::sort(extra_members.begin(), extra_members.end());
    union_cols.resize(bc.size() + extra_cols.size());
    std::merge(bc.begin(), bc.end(), extra_cols.begin(), extra_cols.end(),
               union_cols.begin());
    union_members.resize(bm.size() + extra_members.size());
    std::merge(bm.begin(), bm.end(), extra_members.begin(), extra_members.end(),
               union_members.begin());
    SSTAR_CHECK_MSG(union_members.front() == k,
                    "row " << k << " is not a candidate at its own step");
    SSTAR_CHECK(union_cols.front() == k);

    // Emit U row k = the union (diagonal first) and L column k = the
    // candidate rows below the diagonal: together, the merged group.
    s.u_cols.insert(s.u_cols.end(), union_cols.begin(), union_cols.end());
    s.u_row_ptr[k + 1] =
        s.u_row_ptr[k] + static_cast<std::int64_t>(union_cols.size());
    s.l_rows.insert(s.l_rows.end(), union_members.begin() + 1,
                    union_members.end());
    s.l_col_ptr[k + 1] =
        s.l_col_ptr[k] + static_cast<std::int64_t>(union_members.size()) - 1;
    if (union_members.size() > 1) {
      // Every member row i > k keeps its diagonal i in the structure.
      SSTAR_CHECK(union_cols.size() > 1);
      enqueue(n + k, union_cols[1]);
    }
  }
  return s;
}

bool structure_contains(const StaticStructure& s, const SparseMatrix& l,
                        const SparseMatrix& u) {
  const int n = s.n;
  if (l.rows() != n || l.cols() != n || u.rows() != n || u.cols() != n)
    return false;
  // L check: every below-diagonal entry of l must appear in s's L column.
  for (int j = 0; j < n; ++j) {
    const auto lb = s.l_rows.begin() + s.l_col_ptr[j];
    const auto le = s.l_rows.begin() + s.l_col_ptr[j + 1];
    for (int k = l.col_begin(j); k < l.col_end(j); ++k) {
      const int i = l.row_idx()[k];
      if (i <= j) continue;
      if (!std::binary_search(lb, le, i)) return false;
    }
  }
  // U check: every on/above-diagonal entry of u must be in s's U rows.
  // u is CSC; scan columns and test per row using binary search into the
  // row-major structure.
  for (int j = 0; j < n; ++j) {
    for (int k = u.col_begin(j); k < u.col_end(j); ++k) {
      const int i = u.row_idx()[k];
      if (i > j) continue;
      const auto ub = s.u_cols.begin() + s.u_row_ptr[i];
      const auto ue = s.u_cols.begin() + s.u_row_ptr[i + 1];
      if (!std::binary_search(ub, ue, j)) return false;
    }
  }
  return true;
}

}  // namespace sstar
