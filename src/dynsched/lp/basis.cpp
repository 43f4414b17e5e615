#include "dynsched/lp/basis.hpp"

#include <cmath>

#include "dynsched/util/error.hpp"

namespace dynsched::lp {

DenseBasis::DenseBasis(int m) : m_(m) {
  DYNSCHED_CHECK(m > 0);
  inv_.assign(static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_),
              0.0);
  nonzeros_.reserve(static_cast<std::size_t>(m_));
  invNonzeros_.reserve(static_cast<std::size_t>(m_));
}

bool DenseBasis::factorize(
    const std::function<void(int, std::vector<double>&)>& writeColumn) {
  const std::size_t m = static_cast<std::size_t>(m_);
  // Build B column by column, then run Gauss-Jordan with partial pivoting on
  // the augmented [B | I], leaving B^{-1} in place of I. Both halves are
  // row-major here so each elimination step touches only the nonzeros of
  // the pivot row; the result is transposed into inv_ at the end. The work
  // buffers are members: assign() reuses their capacity on
  // refactorizations.
  std::vector<double>& mat = factorMat_;  // row-major B
  mat.assign(m * m, 0.0);
  std::vector<double>& col = factorCol_;
  col.assign(m, 0.0);
  for (int k = 0; k < m_; ++k) {
    std::fill(col.begin(), col.end(), 0.0);
    writeColumn(k, col);
    for (std::size_t i = 0; i < m; ++i) {
      mat[i * m + static_cast<std::size_t>(k)] = col[i];
    }
  }
  std::vector<double>& inv = factorInv_;  // row-major B^{-1}
  inv.assign(m * m, 0.0);
  for (std::size_t i = 0; i < m; ++i) inv[i * m + i] = 1.0;

  std::vector<int>& rowOrder = rowOrder_;
  rowOrder.resize(m);
  for (std::size_t i = 0; i < m; ++i) rowOrder[i] = static_cast<int>(i);

  for (std::size_t k = 0; k < m; ++k) {
    // Partial pivoting: largest |entry| in column k among remaining rows.
    std::size_t pivotRow = k;
    double best = std::fabs(mat[static_cast<std::size_t>(rowOrder[k]) * m + k]);
    for (std::size_t i = k + 1; i < m; ++i) {
      const double v =
          std::fabs(mat[static_cast<std::size_t>(rowOrder[i]) * m + k]);
      if (v > best) {
        best = v;
        pivotRow = i;
      }
    }
    if (best < 1e-11) return false;  // singular
    std::swap(rowOrder[k], rowOrder[pivotRow]);
    const std::size_t pr = static_cast<std::size_t>(rowOrder[k]);
    double* pivotMat = &mat[pr * m];
    double* pivotInv = &inv[pr * m];
    const double invPivot = 1.0 / pivotMat[k];
    // Scale the pivot row and list its nonzeros: a zero entry of the pivot
    // row leaves the matching entry of every other row unchanged.
    nonzeros_.clear();
    invNonzeros_.clear();
    for (std::size_t j = 0; j < m; ++j) {
      if (pivotMat[j] != 0.0) {
        pivotMat[j] *= invPivot;
        nonzeros_.push_back(static_cast<int>(j));
      }
      if (pivotInv[j] != 0.0) {
        pivotInv[j] *= invPivot;
        invNonzeros_.push_back(static_cast<int>(j));
      }
    }
    for (std::size_t ri = 0; ri < m; ++ri) {
      if (ri == pr) continue;
      const double factor = mat[ri * m + k];
      if (factor == 0.0) continue;
      double* rowMat = &mat[ri * m];
      for (const int j : nonzeros_) rowMat[j] -= factor * pivotMat[j];
      double* rowInv = &inv[ri * m];
      for (const int j : invNonzeros_) rowInv[j] -= factor * pivotInv[j];
    }
  }
  // Undo the row permutation while transposing: row rowOrder[k] of the
  // eliminated [B | I] holds the k-th row of B^{-1}, i.e. entry k of every
  // column of the column-major inverse.
  for (std::size_t k = 0; k < m; ++k) {
    const double* src = &inv[static_cast<std::size_t>(rowOrder[k]) * m];
    for (std::size_t j = 0; j < m; ++j) inv_[j * m + k] = src[j];
  }
  updates_ = 0;
  return true;
}

void DenseBasis::ftran(std::vector<double>& rhs) const {
  const std::size_t m = static_cast<std::size_t>(m_);
  DYNSCHED_CHECK(rhs.size() == m);
  // out = Σ_j rhs_j · column_j, summed over ascending j with zero rhs
  // entries skipped. Swap-with-scratch instead of a fresh vector: after the
  // swap both buffers stay size m, so steady-state ftran allocates nothing.
  scratch_.assign(m, 0.0);
  double* out = scratch_.data();
  for (std::size_t j = 0; j < m; ++j) {
    const double v = rhs[j];
    if (v == 0.0) continue;
    const double* column = &inv_[j * m];
    for (std::size_t i = 0; i < m; ++i) out[i] += column[i] * v;
  }
  rhs.swap(scratch_);
}

void DenseBasis::btran(std::vector<double>& rhs) const {
  const std::size_t m = static_cast<std::size_t>(m_);
  DYNSCHED_CHECK(rhs.size() == m);
  // out_j = column_j · rhs over the nonzeros of rhs, in ascending order.
  nonzeros_.clear();
  for (std::size_t i = 0; i < m; ++i) {
    if (rhs[i] != 0.0) nonzeros_.push_back(static_cast<int>(i));
  }
  scratch_.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    const double* column = &inv_[j * m];
    double sum = 0;
    for (const int i : nonzeros_) {
      sum += column[i] * rhs[static_cast<std::size_t>(i)];
    }
    scratch_[j] = sum;
  }
  rhs.swap(scratch_);
}

void DenseBasis::update(const std::vector<double>& alpha, int pos) {
  const std::size_t m = static_cast<std::size_t>(m_);
  DYNSCHED_CHECK(alpha.size() == m);
  const std::size_t p = static_cast<std::size_t>(pos);
  const double pivot = alpha[p];
  DYNSCHED_CHECK_MSG(std::fabs(pivot) > 1e-12, "pivot too small in update");
  const double invPivot = 1.0 / pivot;
  // E = I except column p: E[i][p] = -alpha_i/alpha_p, E[p][p] = 1/alpha_p.
  // inv := E * inv — row p is scaled, every other row gets a multiple of it.
  // Column by column, only rows with alpha_i != 0 change, and only in
  // columns whose scaled pivot-row entry is nonzero.
  nonzeros_.clear();
  for (std::size_t i = 0; i < m; ++i) {
    if (i != p && alpha[i] != 0.0) nonzeros_.push_back(static_cast<int>(i));
  }
  for (std::size_t j = 0; j < m; ++j) {
    double* column = &inv_[j * m];
    const double scaled = column[p] * invPivot;
    column[p] = scaled;
    if (scaled == 0.0) continue;
    for (const int i : nonzeros_) {
      column[i] -= alpha[static_cast<std::size_t>(i)] * scaled;
    }
  }
  ++updates_;
}

}  // namespace dynsched::lp
