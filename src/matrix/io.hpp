// Matrix Market (coordinate format) reader/writer.
//
// The paper's benchmark matrices come from the Harwell–Boeing / Davis
// collections, normally distributed in Matrix Market form. The real files
// are not available offline (DESIGN.md substitution #3), but the library
// still supports the format so users can run the solver on their own
// matrices; the synthetic suite can also be exported for inspection.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iosfwd>
#include <string>

#include "matrix/sparse.hpp"

namespace sstar::io {

/// Up-front reservation for a count declared in a file header, capped at
/// 2^20 elements. A header is not evidence that the data follows, so
/// buffers grow past the cap as entries actually arrive: a short file
/// declaring billions of entries fails on its missing data, not on an
/// allocation.
inline std::size_t header_reserve(long long declared) {
  return static_cast<std::size_t>(std::clamp(declared, 0LL, 1LL << 20));
}

/// Parse a Matrix Market stream: "%%MatrixMarket matrix coordinate
/// real|integer|pattern general|symmetric". Pattern entries get value 1,
/// symmetric inputs are expanded to full storage. Throws CheckError on
/// malformed input: sizes above INT_MAX, more entries than the matrix
/// has positions, out-of-range indices, and a stream that ends (or stops
/// parsing) before the declared entry count, naming the entry.
SparseMatrix read_matrix_market(std::istream& in);

/// Read from a file path.
SparseMatrix read_matrix_market(const std::string& path);

/// Write in "coordinate real general" form.
void write_matrix_market(const SparseMatrix& m, std::ostream& out);
void write_matrix_market(const SparseMatrix& m, const std::string& path);

}  // namespace sstar::io
