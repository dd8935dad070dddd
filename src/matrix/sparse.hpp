// Core sparse matrix type (compressed sparse column) and dense helper.
//
// Sparse LU with partial pivoting is a column-oriented algorithm family
// (column orderings, column supernodes, column elimination), so CSC is the
// primary storage everywhere in this library. Row indices within each
// column are kept sorted and duplicate-free.
#pragma once

#include <cstdint>
#include <vector>

namespace sstar {

/// One (row, col, value) entry used to assemble matrices.
struct Triplet {
  int row = 0;
  int col = 0;
  double val = 0.0;
};

/// Dense column-major matrix used as a correctness oracle and for small
/// examples; not intended for large data.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(int rows, int cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
              0.0) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  double& operator()(int i, int j) {
    return data_[static_cast<std::size_t>(j) * rows_ + i];
  }
  double operator()(int i, int j) const {
    return data_[static_cast<std::size_t>(j) * rows_ + i];
  }
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  /// Leading dimension (== rows).
  int ld() const { return rows_; }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

/// Compressed sparse column matrix with sorted, duplicate-free row
/// indices per column.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Assemble from triplets; duplicates are summed. Triplets may be in
  /// any order.
  static SparseMatrix from_triplets(int rows, int cols,
                                    std::vector<Triplet> triplets);

  /// Build directly from CSC arrays (validated: sorted rows, in-range).
  static SparseMatrix from_csc(int rows, int cols, std::vector<int> col_ptr,
                               std::vector<int> row_idx,
                               std::vector<double> values);

  /// Dense -> sparse conversion, dropping exact zeros.
  static SparseMatrix from_dense(const DenseMatrix& d, double drop_tol = 0.0);

  /// n x n identity.
  static SparseMatrix identity(int n);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::int64_t nnz() const { return static_cast<std::int64_t>(row_idx_.size()); }

  const std::vector<int>& col_ptr() const { return col_ptr_; }
  const std::vector<int>& row_idx() const { return row_idx_; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& values() { return values_; }

  /// Begin/end offsets of column j in row_idx()/values().
  int col_begin(int j) const { return col_ptr_[j]; }
  int col_end(int j) const { return col_ptr_[j + 1]; }

  /// Value at (i, j); 0 if not stored. O(log column length).
  double at(int i, int j) const;

  /// True if (i, j) is a stored entry.
  bool has_entry(int i, int j) const;

  /// Transposed copy.
  SparseMatrix transpose() const;

  /// Permuted copy B = A(p, q): B(i, j) = A(p[i], q[j]) where p maps
  /// new row index -> old row index (and likewise q for columns).
  /// Either permutation may be empty meaning identity; a non-empty one
  /// must be a permutation (checked). O(nnz + rows + cols).
  SparseMatrix permuted(const std::vector<int>& row_new_to_old,
                        const std::vector<int>& col_new_to_old) const;

  /// y = A * x (sizes checked).
  void multiply(const std::vector<double>& x, std::vector<double>& y) const;
  std::vector<double> multiply(const std::vector<double>& x) const;

  /// Dense copy (for small matrices / tests).
  DenseMatrix to_dense() const;

  /// Count of structural zeros on the diagonal (square matrices).
  int zero_diagonal_count() const;

  /// Max absolute value of all stored entries.
  double max_abs() const;

  /// Structural pattern equality.
  bool same_pattern(const SparseMatrix& other) const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<int> col_ptr_;   // size cols + 1
  std::vector<int> row_idx_;   // size nnz, sorted per column
  std::vector<double> values_; // size nnz
};

/// Relative factorization residual ||P*A - L*U||_F / ||A||_F where
/// perm_row maps original row index -> permuted position (the P of
/// PA = LU). L is unit lower triangular (its stored diagonal is ignored
/// and treated as 1), U upper triangular. Dense evaluation: test sizes.
double factorization_residual(const SparseMatrix& a,
                              const std::vector<int>& perm_row,
                              const DenseMatrix& l, const DenseMatrix& u);

}  // namespace sstar
