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
//              entering columns have a handful of nonzeros. Four nonzeros
//              share one pass over the output.
//   btran      one dot product per column over the rhs nonzeros —
//              O(m·nnz(rhs)); four columns per pass keep four independent
//              sums in flight instead of waiting on one.
//   update     O(m) plus O(nnz(alpha)) per column whose pivot-row entry is
//              nonzero.
//   factorize  one scan per basis column, then elimination over the
//              nonzeros of each pivot row only; basis matrices are mostly
//              slack unit columns.
// Diagonal bases — every column k nonzero only at row k, as the simplex's
// crash basis of signed slack and artificial unit columns always is — skip
// the elimination: factorize writes 1/b_kk straight onto a zeroed inverse,
// and until the next update ftran and btran are one O(m) scaling pass.
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
  /// the basis matrix is numerically singular; the inverse is then garbage
  /// until the next factorize() that succeeds.
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
  /// ftran/btran of a diagonal inverse; false (rhs untouched) when rhs
  /// holds an inf or NaN, which the dense kernels must spread.
  bool applyDiagonal(std::vector<double>& rhs) const;

  int m_;
  std::vector<double> inv_;  ///< column-major m×m
  /// Set by a factorize() that found B diagonal, cleared by update() and
  /// every other factorize(); invDiagonal_ then holds the diagonal of inv_.
  bool diagonal_ = false;
  std::vector<double> invDiagonal_;  ///< also factorize's copy of diag(B)
  // Reused work buffers: ftran/btran run once per simplex iteration and
  // factorize every few dozen pivots, so per-call vectors would dominate
  // the solver's allocation count. The index lists are reserved to m in the
  // constructor and never grow.
  mutable std::vector<double> scratch_;   ///< ftran/btran output;
                                          ///< factorize: one basis column,
                                          ///< then one column of B^{-1}
  mutable std::vector<int> nonzeros_;     ///< ftran/btran/update input
                                          ///< nonzeros; factorize: one
                                          ///< column, then pivot row of B
  std::vector<int> invNonzeros_;          ///< factorize: pivot row of B^{-1}
  std::vector<double> factorMat_;         ///< factorize: row-major B
  std::vector<int> rowOrder_;             ///< factorize: pivot permutation
  int updates_ = 0;
};

}  // namespace dynsched::lp
