// Direct DenseBasis tests: factorization, FTRAN/BTRAN, product-form
// updates, singular detection — validated against hand matrices, a
// random-matrix property (B · ftran(e_i) = e_i), and bit for bit against
// plain dense row-major reference kernels.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "dynsched/lp/basis.hpp"
#include "dynsched/util/rng.hpp"

namespace dynsched::lp {
namespace {

/// Dense matrix-vector product helper (row-major m×m).
std::vector<double> multiply(const std::vector<double>& mat,
                             const std::vector<double>& v) {
  const std::size_t m = v.size();
  std::vector<double> out(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) out[i] += mat[i * m + j] * v[j];
  }
  return out;
}

TEST(DenseBasis, IdentityFactorization) {
  DenseBasis basis(3);
  ASSERT_TRUE(basis.factorize([](int k, std::vector<double>& col) {
    col[static_cast<std::size_t>(k)] = 1.0;
  }));
  std::vector<double> v{1.0, -2.0, 3.5};
  std::vector<double> f = v;
  basis.ftran(f);
  EXPECT_EQ(f, v);
  basis.btran(f);
  EXPECT_EQ(f, v);
}

TEST(DenseBasis, NegatedIdentity) {
  // The slack basis of the simplex: B = −I.
  DenseBasis basis(2);
  ASSERT_TRUE(basis.factorize([](int k, std::vector<double>& col) {
    col[static_cast<std::size_t>(k)] = -1.0;
  }));
  std::vector<double> v{4.0, -6.0};
  basis.ftran(v);
  EXPECT_DOUBLE_EQ(v[0], -4.0);
  EXPECT_DOUBLE_EQ(v[1], 6.0);
}

TEST(DenseBasis, KnownTwoByTwoInverse) {
  // B = [[2, 1], [1, 1]], B^{-1} = [[1, -1], [-1, 2]].
  const std::vector<double> columns = {2, 1, 1, 1};  // column-major pairs
  DenseBasis basis(2);
  ASSERT_TRUE(basis.factorize([&](int k, std::vector<double>& col) {
    col[0] = columns[static_cast<std::size_t>(2 * k)];
    col[1] = columns[static_cast<std::size_t>(2 * k + 1)];
  }));
  std::vector<double> e0{1.0, 0.0};
  basis.ftran(e0);  // first column of B^{-1}
  EXPECT_NEAR(e0[0], 1.0, 1e-12);
  EXPECT_NEAR(e0[1], -1.0, 1e-12);
  std::vector<double> e1{0.0, 1.0};
  basis.btran(e1);  // second row of B^{-1} (via transpose)
  EXPECT_NEAR(e1[0], -1.0, 1e-12);
  EXPECT_NEAR(e1[1], 2.0, 1e-12);
}

TEST(DenseBasis, DetectsSingularMatrix) {
  DenseBasis basis(2);
  EXPECT_FALSE(basis.factorize([](int k, std::vector<double>& col) {
    col[0] = static_cast<double>(k + 1);  // second column = 2x first
    col[1] = static_cast<double>(k + 1);
  }));
}

TEST(DenseBasis, UpdateMatchesRefactorization) {
  // Replace one basis column via update() and compare FTRAN against a
  // from-scratch factorization of the new matrix.
  util::Rng rng(99);
  const int m = 6;
  std::vector<double> cols(static_cast<std::size_t>(m * m));
  for (double& v : cols) v = rng.uniform(-2, 2);
  for (int i = 0; i < m; ++i) {
    cols[static_cast<std::size_t>(i * m + i)] += 4.0;  // well-conditioned
  }
  const auto writer = [&cols, m](int k, std::vector<double>& col) {
    for (int i = 0; i < m; ++i) {
      col[static_cast<std::size_t>(i)] =
          cols[static_cast<std::size_t>(k * m + i)];
    }
  };
  DenseBasis updated(m);
  ASSERT_TRUE(updated.factorize(writer));

  // New column to enter at position 2.
  std::vector<double> enter(static_cast<std::size_t>(m));
  for (double& v : enter) v = rng.uniform(-3, 3);
  enter[2] += 5.0;
  std::vector<double> alpha = enter;
  updated.ftran(alpha);  // B^{-1} a
  updated.update(alpha, 2);
  EXPECT_EQ(updated.updatesSinceFactorize(), 1);

  for (int i = 0; i < m; ++i) {
    cols[static_cast<std::size_t>(2 * m + i)] =
        enter[static_cast<std::size_t>(i)];
  }
  DenseBasis fresh(m);
  ASSERT_TRUE(fresh.factorize(writer));

  std::vector<double> rhs(static_cast<std::size_t>(m));
  for (double& v : rhs) v = rng.uniform(-1, 1);
  std::vector<double> a = rhs, b = rhs;
  updated.ftran(a);
  fresh.ftran(b);
  for (int i = 0; i < m; ++i) {
    EXPECT_NEAR(a[static_cast<std::size_t>(i)],
                b[static_cast<std::size_t>(i)], 1e-9);
  }
}

class BasisRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BasisRandomTest, FtranInvertsTheMatrix) {
  util::Rng rng(GetParam());
  const int m = static_cast<int>(rng.uniformInt(1, 20));
  std::vector<double> cols(static_cast<std::size_t>(m * m));
  for (double& v : cols) v = rng.uniform(-2, 2);
  for (int i = 0; i < m; ++i) {
    cols[static_cast<std::size_t>(i * m + i)] +=
        (rng.bernoulli(0.5) ? 5.0 : -5.0);  // diagonal dominance
  }
  DenseBasis basis(m);
  ASSERT_TRUE(basis.factorize([&](int k, std::vector<double>& col) {
    for (int i = 0; i < m; ++i) {
      col[static_cast<std::size_t>(i)] =
          cols[static_cast<std::size_t>(k * m + i)];
    }
  }));
  // Row-major B for the check (cols is column-major).
  std::vector<double> rowMajor(static_cast<std::size_t>(m * m));
  for (int i = 0; i < m; ++i) {
    for (int k = 0; k < m; ++k) {
      rowMajor[static_cast<std::size_t>(i * m + k)] =
          cols[static_cast<std::size_t>(k * m + i)];
    }
  }
  std::vector<double> rhs(static_cast<std::size_t>(m));
  for (double& v : rhs) v = rng.uniform(-4, 4);
  std::vector<double> x = rhs;
  basis.ftran(x);  // x = B^{-1} rhs
  const std::vector<double> back = multiply(rowMajor, x);
  for (int i = 0; i < m; ++i) {
    EXPECT_NEAR(back[static_cast<std::size_t>(i)],
                rhs[static_cast<std::size_t>(i)], 1e-8)
        << "seed " << GetParam() << " m " << m;
  }
  // BTRAN solves the transposed system.
  std::vector<double> y = rhs;
  basis.btran(y);  // y = B^{-T} rhs
  std::vector<double> backT(static_cast<std::size_t>(m), 0.0);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      backT[static_cast<std::size_t>(j)] +=
          rowMajor[static_cast<std::size_t>(i * m + j)] *
          y[static_cast<std::size_t>(i)];
    }
  }
  for (int i = 0; i < m; ++i) {
    EXPECT_NEAR(backT[static_cast<std::size_t>(i)],
                rhs[static_cast<std::size_t>(i)], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMatrices, BasisRandomTest,
                         ::testing::Range<std::uint64_t>(5000, 5020));

// ---------------------------------------------------------------------------
// Bit identity against the dense reference.
// ---------------------------------------------------------------------------

/// Plain dense row-major kernels: every output element is a full dense sum.
/// DenseBasis drops only exactly-zero terms and keeps each element's
/// operations in the same order, so it must reproduce these results bit for
/// bit — that is what keeps the simplex's pivot path, and with it the branch
/// & bound search, the same as with these kernels.
class ReferenceBasis {
 public:
  explicit ReferenceBasis(int m)
      : m_(static_cast<std::size_t>(m)), inv_(m_ * m_, 0.0) {}

  bool factorize(
      const std::function<void(int, std::vector<double>&)>& writeColumn) {
    const std::size_t m = m_;
    std::vector<double> mat(m * m, 0.0);  // row-major B
    std::vector<double> col(m, 0.0);
    for (std::size_t k = 0; k < m; ++k) {
      std::fill(col.begin(), col.end(), 0.0);
      writeColumn(static_cast<int>(k), col);
      for (std::size_t i = 0; i < m; ++i) mat[i * m + k] = col[i];
    }
    std::vector<double> inv(m * m, 0.0);
    for (std::size_t i = 0; i < m; ++i) inv[i * m + i] = 1.0;
    std::vector<std::size_t> rowOrder(m);
    for (std::size_t i = 0; i < m; ++i) rowOrder[i] = i;
    for (std::size_t k = 0; k < m; ++k) {
      std::size_t pivotRow = k;
      double best = std::fabs(mat[rowOrder[k] * m + k]);
      for (std::size_t i = k + 1; i < m; ++i) {
        const double v = std::fabs(mat[rowOrder[i] * m + k]);
        if (v > best) {
          best = v;
          pivotRow = i;
        }
      }
      if (best < 1e-11) return false;
      std::swap(rowOrder[k], rowOrder[pivotRow]);
      const std::size_t pr = rowOrder[k];
      const double invPivot = 1.0 / mat[pr * m + k];
      for (std::size_t j = 0; j < m; ++j) {
        mat[pr * m + j] *= invPivot;
        inv[pr * m + j] *= invPivot;
      }
      for (std::size_t i = 0; i < m; ++i) {
        const std::size_t ri = rowOrder[i];
        if (ri == pr) continue;
        const double factor = mat[ri * m + k];
        if (factor == 0.0) continue;
        for (std::size_t j = 0; j < m; ++j) {
          mat[ri * m + j] -= factor * mat[pr * m + j];
          inv[ri * m + j] -= factor * inv[pr * m + j];
        }
      }
    }
    for (std::size_t k = 0; k < m; ++k) {
      std::copy_n(&inv[rowOrder[k] * m], m, &inv_[k * m]);
    }
    return true;
  }

  void ftran(std::vector<double>& rhs) const {
    std::vector<double> out(m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      double sum = 0;
      for (std::size_t j = 0; j < m_; ++j) sum += inv_[i * m_ + j] * rhs[j];
      out[i] = sum;
    }
    rhs.swap(out);
  }

  void btran(std::vector<double>& rhs) const {
    std::vector<double> out(m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const double v = rhs[i];
      if (v == 0.0) continue;
      for (std::size_t j = 0; j < m_; ++j) out[j] += inv_[i * m_ + j] * v;
    }
    rhs.swap(out);
  }

  void update(const std::vector<double>& alpha, std::size_t p) {
    const double invPivot = 1.0 / alpha[p];
    double* pivotRow = &inv_[p * m_];
    for (std::size_t j = 0; j < m_; ++j) pivotRow[j] *= invPivot;
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == p) continue;
      const double factor = alpha[i];
      if (factor == 0.0) continue;
      double* row = &inv_[i * m_];
      for (std::size_t j = 0; j < m_; ++j) row[j] -= factor * pivotRow[j];
    }
  }

 private:
  std::size_t m_;
  std::vector<double> inv_;  ///< row-major m×m
};

/// Exact equality, down to the sign of zero.
void expectBitIdentical(const std::vector<double>& actual,
                        const std::vector<double>& expected,
                        const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    std::uint64_t a = 0, e = 0;
    std::memcpy(&a, &actual[i], sizeof a);
    std::memcpy(&e, &expected[i], sizeof e);
    ASSERT_EQ(a, e) << what << " element " << i << ": " << actual[i]
                    << " vs " << expected[i];
  }
}

/// A column pool shaped like the simplex's: rows [0, jobs) are assignment
/// rows and the rest capacity rows. Columns [0, m) are the signed unit
/// columns ±e_r (slacks −e_r, artificials ±e_r); every further column is a
/// structural one with a 1 in its job row and the job's width in each of
/// the `duration` consecutive capacity rows it covers. `dense` replaces the
/// structural columns by diagonally dominant dense random ones.
struct ColumnPool {
  int m = 0;
  std::vector<std::vector<double>> columns;  ///< dense, size m each

  static ColumnPool simplexShaped(util::Rng& rng, int jobs, int slots) {
    ColumnPool pool;
    pool.m = jobs + slots;
    pool.addSignedUnits(rng);
    for (int j = 0; j < jobs; ++j) {
      const double width = static_cast<double>(rng.uniformInt(1, 6));
      const int duration = static_cast<int>(rng.uniformInt(1, 5));
      for (int start = 0; start + duration <= slots; ++start) {
        std::vector<double> col(static_cast<std::size_t>(pool.m), 0.0);
        col[static_cast<std::size_t>(j)] = 1.0;
        for (int t = start; t < start + duration; ++t) {
          col[static_cast<std::size_t>(jobs + t)] = width;
        }
        pool.columns.push_back(std::move(col));
      }
    }
    return pool;
  }

  static ColumnPool denseRandom(util::Rng& rng, int m, int count) {
    ColumnPool pool;
    pool.m = m;
    pool.addSignedUnits(rng);
    for (int c = 0; c < count; ++c) {
      std::vector<double> col(static_cast<std::size_t>(m));
      for (double& v : col) v = rng.uniform(-2, 2);
      col[static_cast<std::size_t>(rng.uniformInt(0, m - 1))] += 6.0;
      pool.columns.push_back(std::move(col));
    }
    return pool;
  }

 private:
  void addSignedUnits(util::Rng& rng) {
    for (int r = 0; r < m; ++r) {
      std::vector<double> col(static_cast<std::size_t>(m), 0.0);
      col[static_cast<std::size_t>(r)] = rng.bernoulli(0.7) ? -1.0 : 1.0;
      columns.push_back(std::move(col));
    }
  }
};

/// Runs DenseBasis and the reference side by side through a simplex-like
/// pivot sequence — enter a random nonbasic column, leave at the largest
/// |alpha|, refactorize every `refactorInterval` pivots — and compares every
/// ftran and btran result bit for bit.
void runInLockstep(const ColumnPool& pool, util::Rng& rng, int pivots,
                   int refactorInterval) {
  const int m = pool.m;
  const std::size_t sm = static_cast<std::size_t>(m);
  std::vector<int> basic(sm);
  std::vector<bool> inBasis(pool.columns.size(), false);
  for (int r = 0; r < m; ++r) {
    basic[static_cast<std::size_t>(r)] = r;
    inBasis[static_cast<std::size_t>(r)] = true;
  }
  const auto writer = [&](int k, std::vector<double>& col) {
    col = pool.columns[static_cast<std::size_t>(
        basic[static_cast<std::size_t>(k)])];
  };
  DenseBasis fast(m);
  ReferenceBasis slow(m);
  ASSERT_TRUE(fast.factorize(writer));
  ASSERT_TRUE(slow.factorize(writer));

  int done = 0;
  for (int attempt = 0; done < pivots && attempt < 20 * pivots; ++attempt) {
    const std::string at = "pivot " + std::to_string(done);
    if (fast.updatesSinceFactorize() >= refactorInterval) {
      const bool ok = fast.factorize(writer);
      ASSERT_EQ(ok, slow.factorize(writer)) << at;
      ASSERT_TRUE(ok) << at;
    }
    // Pricing-style btran of a sparse cost vector over the basics.
    std::vector<double> y(sm, 0.0);
    for (std::size_t i = 0; i < sm; ++i) {
      if (rng.bernoulli(0.3)) y[i] = static_cast<double>(rng.uniformInt(1, 900));
    }
    std::vector<double> yRef = y;
    fast.btran(y);
    slow.btran(yRef);
    expectBitIdentical(y, yRef, "btran at " + at);

    const std::size_t enter = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(pool.columns.size()) - 1));
    if (inBasis[enter]) continue;
    std::vector<double> alpha = pool.columns[enter];
    std::vector<double> alphaRef = alpha;
    fast.ftran(alpha);
    slow.ftran(alphaRef);
    expectBitIdentical(alpha, alphaRef, "ftran at " + at);

    std::size_t leave = 0;
    for (std::size_t i = 1; i < sm; ++i) {
      if (std::fabs(alpha[i]) > std::fabs(alpha[leave])) leave = i;
    }
    if (std::fabs(alpha[leave]) < 1e-3) continue;
    fast.update(alpha, static_cast<int>(leave));
    slow.update(alphaRef, leave);
    inBasis[static_cast<std::size_t>(basic[leave])] = false;
    basic[leave] = static_cast<int>(enter);
    inBasis[enter] = true;
    ++done;

    // A dense rhs exercises every column of the inverse.
    std::vector<double> rhs(sm);
    for (double& v : rhs) v = rng.uniform(-5, 5);
    std::vector<double> rhsRef = rhs;
    fast.ftran(rhs);
    slow.ftran(rhsRef);
    expectBitIdentical(rhs, rhsRef, "dense ftran after " + at);
  }
  EXPECT_EQ(done, pivots) << "pivot sequence stalled";
}

/// ftran and btran of both bases on sparse, dense and edge-case right-hand
/// sides, compared bit for bit. The edge cases are −0 entries and a
/// subnormal whose product with 1/4 underflows to −0: the dense sums end on
/// +0 there.
void expectKernelsMatch(const DenseBasis& fast, const ReferenceBasis& slow,
                        util::Rng& rng, const std::string& what) {
  const std::size_t m = static_cast<std::size_t>(fast.size());
  std::vector<std::vector<double>> cases;
  std::vector<double> sparse(m, 0.0);
  for (std::size_t i = 0; i < m; i += 3) sparse[i] = rng.uniform(-9, 9);
  cases.push_back(sparse);
  std::vector<double> dense(m);
  for (double& v : dense) v = rng.uniform(-5, 5);
  cases.push_back(dense);
  std::vector<double> edge(m, -0.0);
  edge[0] = -4.9406564584124654e-324;
  edge[m - 1] = 1.0;
  cases.push_back(edge);
  for (std::size_t c = 0; c < cases.size(); ++c) {
    std::vector<double> f = cases[c], fRef = cases[c];
    fast.ftran(f);
    slow.ftran(fRef);
    expectBitIdentical(f, fRef, what + " ftran case " + std::to_string(c));
    std::vector<double> b = cases[c], bRef = cases[c];
    fast.btran(b);
    slow.btran(bRef);
    expectBitIdentical(b, bRef, what + " btran case " + std::to_string(c));
  }
}

/// Column k of a diagonal basis: `diag[k]` at row k.
std::function<void(int, std::vector<double>&)> diagonalWriter(
    const std::vector<double>& diag) {
  return [&diag](int k, std::vector<double>& col) {
    col[static_cast<std::size_t>(k)] = diag[static_cast<std::size_t>(k)];
  };
}

TEST(BasisDiagonal, SignedUnitBasesMatchDenseReferenceThroughUpdates) {
  // The simplex's crash basis: slacks −e_r and artificials ±e_r. Pivot away
  // from it, refactorize a general basis, then return to a diagonal one.
  util::Rng rng(7300);
  for (const int m : {1, 5, 7, 13}) {
    const std::string at = "m " + std::to_string(m);
    std::vector<double> diag(static_cast<std::size_t>(m));
    for (double& d : diag) d = rng.bernoulli(0.5) ? -1.0 : 1.0;
    diag[0] = 4.0;  // 1/4 makes the subnormal edge case underflow
    DenseBasis fast(m);
    ReferenceBasis slow(m);
    ASSERT_TRUE(fast.factorize(diagonalWriter(diag)));
    ASSERT_TRUE(slow.factorize(diagonalWriter(diag)));
    expectKernelsMatch(fast, slow, rng, "diagonal " + at);

    std::vector<std::vector<double>> columns;
    for (int k = 0; k < m; ++k) {
      std::vector<double> col(static_cast<std::size_t>(m), 0.0);
      col[static_cast<std::size_t>(k)] = diag[static_cast<std::size_t>(k)];
      columns.push_back(col);
    }
    for (int pivot = 0; pivot < m; ++pivot) {
      std::vector<double> enter(static_cast<std::size_t>(m));
      for (double& v : enter) v = rng.bernoulli(0.5) ? rng.uniform(-2, 2) : 0.0;
      enter[static_cast<std::size_t>(pivot)] = 3.0;
      std::vector<double> alpha = enter, alphaRef = enter;
      fast.ftran(alpha);
      slow.ftran(alphaRef);
      expectBitIdentical(alpha, alphaRef, "entering ftran " + at);
      fast.update(alpha, pivot);
      slow.update(alphaRef, static_cast<std::size_t>(pivot));
      columns[static_cast<std::size_t>(pivot)] = enter;
      expectKernelsMatch(fast, slow, rng,
                         "update " + std::to_string(pivot) + " " + at);
    }
    const auto general = [&columns](int k, std::vector<double>& col) {
      col = columns[static_cast<std::size_t>(k)];
    };
    const bool ok = fast.factorize(general);
    ASSERT_EQ(ok, slow.factorize(general)) << at;
    if (ok) expectKernelsMatch(fast, slow, rng, "general " + at);
    ASSERT_TRUE(fast.factorize(diagonalWriter(diag)));
    ASSERT_TRUE(slow.factorize(diagonalWriter(diag)));
    expectKernelsMatch(fast, slow, rng, "diagonal again " + at);
  }
}

TEST(BasisDiagonal, NearZeroEntryIsSingular) {
  util::Rng rng(7301);
  const int m = 6;
  std::vector<double> diag{-1.0, 1.0, -1.0, -1.0, 1.0, 2.0};
  DenseBasis fast(m);
  ReferenceBasis slow(m);
  ASSERT_TRUE(fast.factorize(diagonalWriter(diag)));
  std::vector<double> nearSingular = diag;
  nearSingular[3] = 5e-12;
  EXPECT_FALSE(fast.factorize(diagonalWriter(nearSingular)));
  EXPECT_FALSE(slow.factorize(diagonalWriter(nearSingular)));
  nearSingular[3] = -5e-12;
  EXPECT_FALSE(fast.factorize(diagonalWriter(nearSingular)));
  // The next factorization that succeeds makes the basis usable again.
  ASSERT_TRUE(fast.factorize(diagonalWriter(diag)));
  ASSERT_TRUE(slow.factorize(diagonalWriter(diag)));
  expectKernelsMatch(fast, slow, rng, "after singular");
}

TEST(BasisDiagonal, NonFiniteRhsSpreadsLikeTheDenseSums) {
  // 0 · inf is NaN, so every dense sum that meets the inf turns NaN.
  const std::vector<double> diag{-1.0, 1.0, -1.0};
  DenseBasis fast(3);
  ReferenceBasis slow(3);
  ASSERT_TRUE(fast.factorize(diagonalWriter(diag)));
  ASSERT_TRUE(slow.factorize(diagonalWriter(diag)));
  const std::vector<double> rhs{1.0, HUGE_VAL, 2.0};
  std::vector<double> f = rhs, fRef = rhs;
  fast.ftran(f);
  slow.ftran(fRef);
  expectBitIdentical(f, fRef, "ftran");
  EXPECT_TRUE(std::isnan(f[0]));
  std::vector<double> b = rhs, bRef = rhs;
  fast.btran(b);
  slow.btran(bRef);
  expectBitIdentical(b, bRef, "btran");
}

TEST(BasisBitIdentity, TailsOfTheFourWidePassesMatchDenseReference) {
  // Sizes and rhs nonzero counts that are not multiples of four exercise
  // the one-at-a-time tails of ftran (over rhs nonzeros) and btran (over
  // output columns).
  util::Rng rng(7302);
  for (int m = 1; m <= 11; ++m) {
    const ColumnPool pool = ColumnPool::denseRandom(rng, m, m);
    const auto writer = [&pool, m](int k, std::vector<double>& col) {
      col = pool.columns[static_cast<std::size_t>(m + k)];
    };
    DenseBasis fast(m);
    ReferenceBasis slow(m);
    const bool ok = fast.factorize(writer);
    ASSERT_EQ(ok, slow.factorize(writer)) << "m " << m;
    if (!ok) continue;
    for (int nnz = 1; nnz <= m; ++nnz) {
      std::vector<double> rhs(static_cast<std::size_t>(m), 0.0);
      for (int k = 0; k < nnz; ++k) {
        rhs[static_cast<std::size_t>((k * 5) % m)] = rng.uniform(-3, 3);
      }
      const std::string at =
          "m " + std::to_string(m) + " nnz " + std::to_string(nnz);
      std::vector<double> f = rhs, fRef = rhs;
      fast.ftran(f);
      slow.ftran(fRef);
      expectBitIdentical(f, fRef, "ftran " + at);
      std::vector<double> b = rhs, bRef = rhs;
      fast.btran(b);
      slow.btran(bRef);
      expectBitIdentical(b, bRef, "btran " + at);
    }
  }
}

class BasisBitIdentityTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BasisBitIdentityTest, SimplexShapedBasesMatchDenseReference) {
  util::Rng rng(GetParam());
  const int jobs = static_cast<int>(rng.uniformInt(3, 12));
  const int slots = static_cast<int>(rng.uniformInt(20, 70));
  const ColumnPool pool = ColumnPool::simplexShaped(rng, jobs, slots);
  runInLockstep(pool, rng, /*pivots=*/150, /*refactorInterval=*/40);
}

TEST_P(BasisBitIdentityTest, DenseRandomBasesMatchDenseReference) {
  util::Rng rng(GetParam());
  const int m = static_cast<int>(rng.uniformInt(2, 24));
  const ColumnPool pool = ColumnPool::denseRandom(rng, m, 3 * m);
  runInLockstep(pool, rng, /*pivots=*/60, /*refactorInterval=*/25);
}

INSTANTIATE_TEST_SUITE_P(RandomSequences, BasisBitIdentityTest,
                         ::testing::Range<std::uint64_t>(7100, 7106));

}  // namespace
}  // namespace dynsched::lp
