#include "dynsched/lp/basis.hpp"

#include <algorithm>
#include <cmath>

#include "dynsched/util/error.hpp"

namespace dynsched::lp {

DenseBasis::DenseBasis(int m) : m_(m) {
  DYNSCHED_CHECK(m > 0);
  inv_.assign(static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_),
              0.0);
  invDiagonal_.resize(static_cast<std::size_t>(m_));
  nonzeros_.reserve(static_cast<std::size_t>(m_));
  invNonzeros_.reserve(static_cast<std::size_t>(m_));
}

bool DenseBasis::factorize(
    const std::function<void(int, std::vector<double>&)>& writeColumn) {
  const std::size_t m = static_cast<std::size_t>(m_);
  diagonal_ = false;
  // Build B column by column, copying only the nonzeros. While every column
  // k so far has its only nonzero at row k, B's diagonal goes to
  // invDiagonal_ and the row-major copy is not even allocated; the first
  // other column switches to the general path below. The work buffers are
  // members: assign() reuses their capacity on refactorizations.
  std::vector<double>& mat = factorMat_;  // row-major B
  std::vector<double>& col = scratch_;
  col.assign(m, 0.0);
  bool diagonal = true;
  for (std::size_t k = 0; k < m; ++k) {
    writeColumn(static_cast<int>(k), col);
    nonzeros_.clear();
    for (std::size_t i = 0; i < m; ++i) {
      if (col[i] != 0.0) nonzeros_.push_back(static_cast<int>(i));
    }
    if (diagonal) {
      if (nonzeros_.size() == 1 && nonzeros_[0] == static_cast<int>(k)) {
        invDiagonal_[k] = col[k];
        col[k] = 0.0;
        continue;
      }
      diagonal = false;
      mat.assign(m * m, 0.0);
      for (std::size_t i = 0; i < k; ++i) mat[i * m + i] = invDiagonal_[i];
    }
    for (const int i : nonzeros_) {
      const auto si = static_cast<std::size_t>(i);
      mat[si * m + k] = col[si];
      col[si] = 0.0;
    }
  }
  if (diagonal) {
    // Gauss-Jordan on a diagonal B never swaps a row and finds every other
    // row's factor zero, so it leaves exactly 1.0 · (1 / b_kk) on the
    // diagonal of the identity and +0 elsewhere.
    for (std::size_t k = 0; k < m; ++k) {
      if (std::fabs(invDiagonal_[k]) < 1e-11) return false;  // singular
    }
    std::fill(inv_.begin(), inv_.end(), 0.0);
    for (std::size_t k = 0; k < m; ++k) {
      invDiagonal_[k] = 1.0 * (1.0 / invDiagonal_[k]);
      inv_[k * m + k] = invDiagonal_[k];
    }
    diagonal_ = true;
    updates_ = 0;
    return true;
  }

  // Gauss-Jordan with partial pivoting on the augmented [B | I], leaving
  // B^{-1} in place of I. The I half is inv_ itself. Both halves are
  // row-major here, indexed by the rows of B, so each elimination step
  // touches only the nonzeros of the pivot row; at the end inv_ is
  // transposed in place and its rows put in pivot order.
  double* inv = inv_.data();
  std::fill(inv_.begin(), inv_.end(), 0.0);
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
  // Row r of the eliminated I half is row k of B^{-1} for r = rowOrder[k].
  // After the transpose, column j holds entry j of every row r at
  // position r; gathering it through rowOrder puts row k at position k.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      std::swap(inv[i * m + j], inv[j * m + i]);
    }
  }
  if (!std::is_sorted(rowOrder.begin(), rowOrder.end())) {
    for (std::size_t j = 0; j < m; ++j) {
      double* column = &inv[j * m];
      for (std::size_t k = 0; k < m; ++k) {
        scratch_[k] = column[static_cast<std::size_t>(rowOrder[k])];
      }
      std::copy(scratch_.begin(), scratch_.end(), column);
    }
  }
  updates_ = 0;
  return true;
}

bool DenseBasis::applyDiagonal(std::vector<double>& rhs) const {
  // Every dense sum holds one product, inv_jj · rhs_j, among terms that are
  // ±0 added to +0; the leading 0.0 + turns a −0 product into the +0 the
  // dense sum ends with. With an inf or NaN in rhs the dense sums spread it
  // (0 · inf = NaN), so those inputs take the dense path.
  const std::size_t m = static_cast<std::size_t>(m_);
  scratch_.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    if (!std::isfinite(rhs[j])) return false;
    scratch_[j] = 0.0 + invDiagonal_[j] * rhs[j];
  }
  rhs.swap(scratch_);
  return true;
}

void DenseBasis::ftran(std::vector<double>& rhs) const {
  const std::size_t m = static_cast<std::size_t>(m_);
  DYNSCHED_CHECK(rhs.size() == m);
  if (diagonal_ && applyDiagonal(rhs)) return;
  // out = Σ_j rhs_j · column_j, summed over ascending j with zero rhs
  // entries skipped. Four columns per pass over out: each element still
  // adds its products one at a time in ascending j. Swap-with-scratch
  // instead of a fresh vector: after the swap both buffers stay size m, so
  // steady-state ftran allocates nothing.
  nonzeros_.clear();
  for (std::size_t j = 0; j < m; ++j) {
    if (rhs[j] != 0.0) nonzeros_.push_back(static_cast<int>(j));
  }
  scratch_.assign(m, 0.0);
  double* out = scratch_.data();
  const std::size_t count = nonzeros_.size();
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const auto j0 = static_cast<std::size_t>(nonzeros_[k]);
    const auto j1 = static_cast<std::size_t>(nonzeros_[k + 1]);
    const auto j2 = static_cast<std::size_t>(nonzeros_[k + 2]);
    const auto j3 = static_cast<std::size_t>(nonzeros_[k + 3]);
    const double* c0 = &inv_[j0 * m];
    const double* c1 = &inv_[j1 * m];
    const double* c2 = &inv_[j2 * m];
    const double* c3 = &inv_[j3 * m];
    const double v0 = rhs[j0], v1 = rhs[j1], v2 = rhs[j2], v3 = rhs[j3];
    for (std::size_t i = 0; i < m; ++i) {
      out[i] = (((out[i] + c0[i] * v0) + c1[i] * v1) + c2[i] * v2) +
               c3[i] * v3;
    }
  }
  for (; k < count; ++k) {
    const auto j = static_cast<std::size_t>(nonzeros_[k]);
    const double* column = &inv_[j * m];
    const double v = rhs[j];
    for (std::size_t i = 0; i < m; ++i) out[i] += column[i] * v;
  }
  rhs.swap(scratch_);
}

void DenseBasis::btran(std::vector<double>& rhs) const {
  const std::size_t m = static_cast<std::size_t>(m_);
  DYNSCHED_CHECK(rhs.size() == m);
  if (diagonal_ && applyDiagonal(rhs)) return;
  // out_j = column_j · rhs over the nonzeros of rhs, in ascending order.
  // Four columns per pass keep four independent sums in flight; each still
  // adds its products one at a time in ascending i.
  nonzeros_.clear();
  for (std::size_t i = 0; i < m; ++i) {
    if (rhs[i] != 0.0) nonzeros_.push_back(static_cast<int>(i));
  }
  scratch_.resize(m);
  std::size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    const double* c0 = &inv_[j * m];
    const double* c1 = c0 + m;
    const double* c2 = c1 + m;
    const double* c3 = c2 + m;
    double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (const int i : nonzeros_) {
      const auto si = static_cast<std::size_t>(i);
      const double v = rhs[si];
      s0 += c0[si] * v;
      s1 += c1[si] * v;
      s2 += c2[si] * v;
      s3 += c3[si] * v;
    }
    scratch_[j] = s0;
    scratch_[j + 1] = s1;
    scratch_[j + 2] = s2;
    scratch_[j + 3] = s3;
  }
  for (; j < m; ++j) {
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
  diagonal_ = false;
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
