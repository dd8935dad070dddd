#include "matrix/pattern_ops.hpp"

#include <algorithm>
#include <climits>
#include <cstddef>
#include <cstdint>

#include "util/check.hpp"

namespace sstar {

Pattern pattern_of(const SparseMatrix& a) {
  Pattern p;
  p.rows = a.rows();
  p.cols = a.cols();
  p.col_ptr = a.col_ptr();
  p.row_idx = a.row_idx();
  return p;
}

Pattern ata_pattern(const SparseMatrix& a) {
  // Column j of AᵀA has a nonzero at row i iff columns i and j of A share
  // a nonzero row r. AᵀA is symmetric, so only its lower triangle is
  // enumerated: row r of A is read from cursor[r], which passes column j
  // once column j is done, and a scatter mark drops repeats. Each lower
  // column is sorted as it is built; the upper triangle is its mirror.
  const SparseMatrix at = a.transpose();  // columns of at == rows of a
  const int n = a.cols();

  std::vector<int> cursor(at.col_ptr().begin(), at.col_ptr().end() - 1);
  std::vector<std::int64_t> lower_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<int> lower;
  lower.reserve(static_cast<std::size_t>(a.nnz()));
  std::vector<int> mark(static_cast<std::size_t>(n), -1);
  // Column counts of the full pattern: its lower part plus the mirror.
  std::vector<std::int64_t> count(static_cast<std::size_t>(n), 0);
  for (int j = 0; j < n; ++j) {
    for (int k = a.col_begin(j); k < a.col_end(j); ++k) {
      const int r = a.row_idx()[k];
      SSTAR_DCHECK(at.row_idx()[cursor[r]] == j);
      for (int k2 = cursor[r]++; k2 < at.col_end(r); ++k2) {
        const int i = at.row_idx()[k2];
        if (mark[i] != j) {
          mark[i] = j;
          lower.push_back(i);
        }
      }
    }
    std::sort(lower.begin() + lower_ptr[j], lower.end());
    lower_ptr[j + 1] = static_cast<std::int64_t>(lower.size());
    count[j] += lower_ptr[j + 1] - lower_ptr[j];
    for (auto k = lower_ptr[j]; k < lower_ptr[j + 1]; ++k)
      if (lower[k] != j) ++count[lower[k]];
  }

  Pattern p;
  p.rows = n;
  p.cols = n;
  p.col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int j = 0; j < n; ++j) {
    const std::int64_t end = p.col_ptr[j] + count[j];
    SSTAR_CHECK_MSG(end <= INT_MAX,
                    "ata_pattern: AᵀA has more than INT_MAX entries");
    p.col_ptr[j + 1] = static_cast<int>(end);
  }
  // Column j = its upper part {i < j}, filled in increasing i, then its
  // lower part.
  p.row_idx.resize(static_cast<std::size_t>(p.col_ptr[n]));
  std::vector<int> next(p.col_ptr.begin(), p.col_ptr.end() - 1);
  for (int i = 0; i < n; ++i)
    for (auto k = lower_ptr[i]; k < lower_ptr[i + 1]; ++k)
      if (lower[k] != i) p.row_idx[next[lower[k]]++] = i;
  for (int j = 0; j < n; ++j)
    std::copy(lower.begin() + lower_ptr[j], lower.begin() + lower_ptr[j + 1],
              p.row_idx.begin() + next[j]);
  return p;
}

Pattern aplusat_pattern(const SparseMatrix& a) {
  SSTAR_CHECK(a.rows() == a.cols());
  const SparseMatrix at = a.transpose();
  const int n = a.cols();
  Pattern p;
  p.rows = n;
  p.cols = n;
  p.col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  p.row_idx.reserve(static_cast<std::size_t>(2 * a.nnz()));
  for (int j = 0; j < n; ++j) {
    // Merge sorted columns of A and Aᵀ.
    int ka = a.col_begin(j), kb = at.col_begin(j);
    const int ea = a.col_end(j), eb = at.col_end(j);
    while (ka < ea || kb < eb) {
      int r;
      if (kb >= eb || (ka < ea && a.row_idx()[ka] <= at.row_idx()[kb])) {
        r = a.row_idx()[ka];
        if (kb < eb && at.row_idx()[kb] == r) ++kb;
        ++ka;
      } else {
        r = at.row_idx()[kb];
        ++kb;
      }
      p.row_idx.push_back(r);
    }
    p.col_ptr[static_cast<std::size_t>(j) + 1] =
        static_cast<int>(p.row_idx.size());
  }
  return p;
}

double structural_symmetry(const SparseMatrix& a) {
  SSTAR_CHECK(a.rows() == a.cols());
  std::int64_t offdiag = 0;
  std::int64_t mirrored = 0;
  for (int j = 0; j < a.cols(); ++j) {
    for (int k = a.col_begin(j); k < a.col_end(j); ++k) {
      const int i = a.row_idx()[k];
      if (i == j) continue;
      ++offdiag;
      if (a.has_entry(j, i)) ++mirrored;
    }
  }
  return offdiag == 0 ? 1.0
                      : static_cast<double>(mirrored) /
                            static_cast<double>(offdiag);
}

}  // namespace sstar
