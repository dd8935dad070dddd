// Elimination tree and postordering for symmetric patterns.
//
// The S* pipeline needs the elimination tree of AᵀA twice: symbolic
// Cholesky of AᵀA (the loose fill bound of Table 1) and the postorder
// that prepare() applies after the fill-reducing ordering. `Pattern`
// inputs must be symmetric with both triangles stored (as produced by
// ata_pattern / aplusat_pattern); column_etree reads A itself.
#pragma once

#include <vector>

#include "matrix/pattern_ops.hpp"
#include "matrix/sparse.hpp"

namespace sstar {

/// Liu's elimination-tree algorithm with path compression.
/// parent[j] = parent column of j, or -1 for roots.
std::vector<int> elimination_tree(const Pattern& sym);

/// Column elimination tree: the elimination tree of AᵀA computed from
/// A's own structure, without forming AᵀA (Liu's algorithm, the `ata`
/// mode of the classic etree routine). Row r of A makes its columns a
/// clique in AᵀA; the tree walk enters that clique only through the
/// previous column of row r (`prev[r]`), and that yields the same tree:
/// column_etree(a) == elimination_tree(ata_pattern(a)) for any A.
/// O(nnz(A) log n) time with path compression, O(rows + cols) extra
/// memory.
///
/// With a col_order (a permutation of 0..cols-1), node j is column
/// col_order[j] of A and parent[] is in that numbering: the etree of
/// AᵀA under the symmetric permutation col_order, without permuting A
/// (row order never matters).
std::vector<int> column_etree(const SparseMatrix& a,
                              const std::vector<int>& col_order = {});

/// Postorder of a forest given by parent[]: returns `post` with
/// post[k] = the node visited k-th; children before parents.
std::vector<int> postorder(const std::vector<int>& parent);

/// Number of nonzeros per column of the Cholesky factor L of the
/// symmetric pattern (diagonal included), computed by row-subtree
/// traversal. Total fill = sum of the result.
std::vector<std::int64_t> cholesky_col_counts(const Pattern& sym,
                                              const std::vector<int>& parent);

}  // namespace sstar
