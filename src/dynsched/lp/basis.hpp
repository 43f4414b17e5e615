// Dense explicit basis inverse for the revised simplex.
//
// The time-indexed instances have many columns but only (#jobs + #grid
// points) rows, so an m×m dense inverse (m typically a few hundred) with
// product-form updates and periodic Gauss–Jordan refactorization is simple,
// fast enough, and numerically transparent.
//
// B^{-1} is stored column-major, and every kernel skips exact zeros of its
// input, so the costs follow the sparsity the simplex feeds it:
//   ftran      one contiguous axpy per nonzero of the rhs — O(m·nnz(rhs));
//              entering columns have a handful of nonzeros.
//   btran      one dot product per column over the rhs nonzeros —
//              O(m·nnz(rhs)).
//   update     O(m) plus O(nnz(alpha)) per column whose pivot-row entry is
//              nonzero.
//   factorize  O(m²) setup plus elimination over the nonzeros of each pivot
//              row only; basis matrices are mostly slack unit columns.
// Only exactly-zero terms are dropped, and every output element is formed by
// the same operations in the same order as a plain dense row-major inverse,
// so the results are bit-identical to it (tests/basis_test.cpp keeps that
// reference and checks it).
#pragma once

#include <functional>
#include <vector>

namespace dynsched::lp {

class DenseBasis {
 public:
  explicit DenseBasis(int m);

  int size() const { return m_; }

  /// Rebuilds the inverse from scratch. `writeColumn(k, col)` must fill
  /// `col` (size m, pre-zeroed) with the k-th basis column. Returns false if
  /// the basis matrix is numerically singular (the inverse is then stale).
  bool factorize(
      const std::function<void(int, std::vector<double>&)>& writeColumn);

  /// rhs := B^{-1} rhs (forward transformation). Not reentrant: uses the
  /// basis's scratch buffers, so concurrent calls on one DenseBasis race
  /// (each simplex owns its basis, so this never happens in-tree).
  void ftran(std::vector<double>& rhs) const;

  /// rhs := B^{-T} rhs (backward transformation). Same reentrancy caveat
  /// as ftran().
  void btran(std::vector<double>& rhs) const;

  /// Product-form update after a pivot: basis column `pos` is replaced by
  /// the column whose FTRAN image is `alpha` (so alpha = B^{-1} a_enter).
  /// Requires |alpha[pos]| to be safely nonzero.
  void update(const std::vector<double>& alpha, int pos);

  /// Pivots applied since the last factorize().
  int updatesSinceFactorize() const { return updates_; }

 private:
  int m_;
  std::vector<double> inv_;  ///< column-major m×m
  // Reused work buffers: ftran/btran run once per simplex iteration and
  // factorize every few dozen pivots, so per-call vectors would dominate
  // the solver's allocation count. The index lists are reserved to m in the
  // constructor and never grow.
  mutable std::vector<double> scratch_;   ///< ftran/btran output
  mutable std::vector<int> nonzeros_;     ///< btran/update input nonzeros;
                                          ///< factorize: pivot row of B
  std::vector<int> invNonzeros_;          ///< factorize: pivot row of B^{-1}
  std::vector<double> factorMat_;         ///< factorize: row-major B
  std::vector<double> factorInv_;         ///< factorize: row-major B^{-1}
  std::vector<double> factorCol_;         ///< factorize: one basis column
  std::vector<int> rowOrder_;             ///< factorize: pivot permutation
  int updates_ = 0;
};

}  // namespace dynsched::lp
