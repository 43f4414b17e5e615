// Simplex solver tests: hand-checked instances, degenerate/edge cases, and
// randomized property tests that certify optimality through the returned
// duals (feasible point + dual feasibility + complementary slackness on
// bounds is a full optimality certificate for an LP).
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>

#include <gtest/gtest.h>

#include "dynsched/lp/model.hpp"
#include "dynsched/lp/simplex.hpp"
#include "dynsched/util/budget.hpp"
#include "dynsched/util/rng.hpp"
#include "dynsched/util/signals.hpp"

namespace dynsched::lp {
namespace {

constexpr double kTol = 1e-6;

TEST(LpModel, BuildsAndEvaluates) {
  LpModel m;
  const int x = m.addVariable(0, 10, 1.0, "x");
  const int y = m.addVariable(0, 10, 2.0, "y");
  m.addRow(-kInf, 8.0, {{x, 1.0}, {y, 1.0}}, "sum");
  EXPECT_EQ(m.numVariables(), 2);
  EXPECT_EQ(m.numRows(), 1);
  EXPECT_EQ(m.numNonZeros(), 2u);
  const std::vector<double> point{3.0, 4.0};
  EXPECT_DOUBLE_EQ(m.objectiveValue(point), 11.0);
  EXPECT_DOUBLE_EQ(m.rowActivity(point)[0], 7.0);
  EXPECT_TRUE(m.isFeasible(point));
  EXPECT_FALSE(m.isFeasible({5.0, 4.0}));
}

TEST(LpModel, DuplicateEntriesAccumulate) {
  LpModel m;
  const int x = m.addVariable(0, 1, 0.0);
  const int r = m.addRow(0, 1);
  m.addEntry(r, x, 0.5);
  m.addEntry(r, x, 0.25);
  EXPECT_EQ(m.numNonZeros(), 1u);
  EXPECT_DOUBLE_EQ(m.rowActivity({1.0})[0], 0.75);
}

TEST(LpModel, ColumnsStayInAscendingRowOrder) {
  LpModel m;
  const int x = m.addVariable(0, 1, 0.0);
  for (int r = 0; r < 4; ++r) m.addRow(0, 10);
  m.addEntry(3, x, 4.0);
  m.addEntry(1, x, 2.0);
  m.addEntry(2, x, 3.0);
  m.addEntry(0, x, 1.0);
  m.addEntry(2, x, 0.5);  // a duplicate still accumulates in place
  m.addEntry(1, x, 0.0);  // zero values add nothing
  const std::vector<ColumnEntry>& column = m.column(x);
  ASSERT_EQ(column.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(column[static_cast<std::size_t>(r)].row, r);
  }
  EXPECT_EQ(column[0].value, 1.0);
  EXPECT_EQ(column[1].value, 2.0);
  EXPECT_EQ(column[2].value, 3.5);
  EXPECT_EQ(column[3].value, 4.0);
}

TEST(Simplex, TrivialBoundsOnly) {
  // No rows: minimum sits at the cheap bound of each variable.
  LpModel m;
  m.addVariable(2, 5, 3.0);    // min at lb
  m.addVariable(-4, -1, -2.0); // min at ub
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.x[0], 2.0, kTol);
  EXPECT_NEAR(s.x[1], -1.0, kTol);
  EXPECT_NEAR(s.objective, 2 * 3.0 + (-1) * -2.0, kTol);
}

TEST(Simplex, TextbookTwoVariable) {
  // max 3a + 5b s.t. a<=4, 2b<=12, 3a+2b<=18  (classic Dantzig example)
  // -> a=2, b=6, optimum 36. We minimize the negation.
  LpModel m;
  const int a = m.addVariable(0, kInf, -3.0);
  const int b = m.addVariable(0, kInf, -5.0);
  m.addRow(-kInf, 4.0, {{a, 1.0}});
  m.addRow(-kInf, 12.0, {{b, 2.0}});
  m.addRow(-kInf, 18.0, {{a, 3.0}, {b, 2.0}});
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.objective, -36.0, kTol);
  EXPECT_NEAR(s.x[0], 2.0, kTol);
  EXPECT_NEAR(s.x[1], 6.0, kTol);
}

TEST(Simplex, EqualityConstraint) {
  // min x+y s.t. x+y = 5, 0<=x,y<=10 — any split, objective 5.
  LpModel m;
  const int x = m.addVariable(0, 10, 1.0);
  const int y = m.addVariable(0, 10, 1.0);
  m.addRow(5.0, 5.0, {{x, 1.0}, {y, 1.0}});
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.objective, 5.0, kTol);
  EXPECT_NEAR(s.x[0] + s.x[1], 5.0, kTol);
}

TEST(Simplex, RangeRow) {
  // min x s.t. 3 <= x + y <= 7, y <= 1 -> x = 2 at y = 1.
  LpModel m;
  const int x = m.addVariable(0, kInf, 1.0);
  const int y = m.addVariable(0, 1, 0.0);
  m.addRow(3.0, 7.0, {{x, 1.0}, {y, 1.0}});
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.objective, 2.0, kTol);
}

TEST(Simplex, DetectsInfeasible) {
  LpModel m;
  const int x = m.addVariable(0, 1, 1.0);
  m.addRow(5.0, kInf, {{x, 1.0}});  // x >= 5 with x <= 1
  const LpSolution s = solveLp(m);
  EXPECT_EQ(s.status, LpStatus::Infeasible);
}

TEST(Simplex, DetectsInfeasibleSystem) {
  // x + y >= 6 and x + y <= 2.
  LpModel m;
  const int x = m.addVariable(0, 10, 1.0);
  const int y = m.addVariable(0, 10, 1.0);
  m.addRow(6.0, kInf, {{x, 1.0}, {y, 1.0}});
  m.addRow(-kInf, 2.0, {{x, 1.0}, {y, 1.0}});
  EXPECT_EQ(solveLp(m).status, LpStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LpModel m;
  const int x = m.addVariable(0, kInf, -1.0);  // minimize -x, x unbounded
  m.addRow(0.0, kInf, {{x, 1.0}});
  EXPECT_EQ(solveLp(m).status, LpStatus::Unbounded);
}

TEST(Simplex, FixedVariablesDoNotCycle) {
  LpModel m;
  const int x = m.addVariable(3, 3, -10.0);  // fixed, attractive cost
  const int y = m.addVariable(0, 5, 1.0);
  m.addRow(4.0, kInf, {{x, 1.0}, {y, 1.0}});
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.x[0], 3.0, kTol);
  EXPECT_NEAR(s.x[1], 1.0, kTol);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x + y, x in [-5, 5], y in [-2, 8], x + y >= -4.
  LpModel m;
  const int x = m.addVariable(-5, 5, 1.0);
  const int y = m.addVariable(-2, 8, 1.0);
  m.addRow(-4.0, kInf, {{x, 1.0}, {y, 1.0}});
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.objective, -4.0, kTol);
}

TEST(Simplex, FreeVariable) {
  // min x s.t. x >= y - 3, y = 2, x free  ->  x = -1.
  LpModel m;
  const int x = m.addVariable(-kInf, kInf, 1.0);
  const int y = m.addVariable(2, 2, 0.0);
  m.addRow(-3.0, kInf, {{x, 1.0}, {y, -1.0}});
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.objective, -1.0, kTol);
}

TEST(Simplex, DegenerateVertexTerminates) {
  // Many redundant constraints through one vertex; Bland fallback must
  // terminate and find the optimum.
  LpModel m;
  const int x = m.addVariable(0, kInf, -1.0);
  const int y = m.addVariable(0, kInf, -1.0);
  for (int i = 0; i < 8; ++i) {
    m.addRow(-kInf, 4.0,
             {{x, 1.0 + 0.0 * i}, {y, 1.0}});  // identical rows
  }
  m.addRow(-kInf, 4.0, {{x, 2.0}, {y, 1.0}});
  m.addRow(-kInf, 4.0, {{x, 1.0}, {y, 2.0}});
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.objective, -(4.0 / 3.0 + 4.0 / 3.0), 1e-5);
}

// ---------------------------------------------------------------------------
// Property test: on random instances with a known feasible point, the solver
// must return Optimal and its (x, duals) must pass the optimality
// certificate: primal feasibility, dual sign feasibility on row activities,
// and correct reduced-cost signs at the variable bounds.
// ---------------------------------------------------------------------------

struct RandomLpCase {
  std::uint64_t seed;
  int vars;
  int rows;
};

class SimplexRandomTest : public ::testing::TestWithParam<RandomLpCase> {};

/// A random bounded LP with rows built around a random interior point, so
/// it is feasible by construction; the point is returned through `point`.
LpModel randomLp(const RandomLpCase& param, std::vector<double>& point) {
  util::Rng rng(param.seed);
  LpModel m;
  for (int j = 0; j < param.vars; ++j) {
    const double lb = rng.uniform(-5, 0);
    const double ub = lb + rng.uniform(0.5, 8);
    m.addVariable(lb, ub, rng.uniform(-3, 3));
    point.push_back(rng.uniform(lb, ub));
  }
  for (int r = 0; r < param.rows; ++r) {
    std::vector<std::pair<int, double>> entries;
    double activity = 0;
    for (int j = 0; j < param.vars; ++j) {
      if (!rng.bernoulli(0.6)) continue;
      const double coef = rng.uniform(-2, 2);
      entries.emplace_back(j, coef);
      activity += coef * point[static_cast<std::size_t>(j)];
    }
    if (entries.empty()) continue;
    switch (rng.uniformInt(0, 2)) {
      case 0:  // <= with slack
        m.addRow(-kInf, activity + rng.uniform(0, 2), entries);
        break;
      case 1:  // >= with slack
        m.addRow(activity - rng.uniform(0, 2), kInf, entries);
        break;
      default:  // range containing the point
        m.addRow(activity - rng.uniform(0, 1), activity + rng.uniform(0, 1),
                 entries);
        break;
    }
  }
  return m;
}

TEST_P(SimplexRandomTest, OptimalWithValidCertificate) {
  const RandomLpCase param = GetParam();
  std::vector<double> point;
  const LpModel m = randomLp(param, point);

  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, LpStatus::Optimal) << "seed " << param.seed;
  ASSERT_TRUE(m.isFeasible(s.x, 1e-5));
  EXPECT_LE(s.objective, m.objectiveValue(point) + 1e-6);

  // Optimality certificate from the duals.
  ASSERT_EQ(static_cast<int>(s.duals.size()), m.numRows());
  const std::vector<double> activity = m.rowActivity(s.x);
  for (int r = 0; r < m.numRows(); ++r) {
    const double y = s.duals[static_cast<std::size_t>(r)];
    const bool atLower =
        activity[static_cast<std::size_t>(r)] <= m.rowLower(r) + 1e-5;
    const bool atUpper =
        activity[static_cast<std::size_t>(r)] >= m.rowUpper(r) - 1e-5;
    // Minimization with A x = s convention: y > 0 requires the activity at
    // its lower row bound, y < 0 at its upper (complementary slackness).
    if (y > 1e-5) {
      EXPECT_TRUE(atLower) << "row " << r << " seed " << param.seed;
    }
    if (y < -1e-5) {
      EXPECT_TRUE(atUpper) << "row " << r << " seed " << param.seed;
    }
  }
  for (int j = 0; j < m.numVariables(); ++j) {
    double rc = m.objectiveCoef(j);
    for (const ColumnEntry& e : m.column(j)) {
      rc -= s.duals[static_cast<std::size_t>(e.row)] * e.value;
    }
    const double v = s.x[static_cast<std::size_t>(j)];
    const bool atLower = v <= m.columnLower(j) + 1e-5;
    const bool atUpper = v >= m.columnUpper(j) - 1e-5;
    if (rc > 1e-5) {
      EXPECT_TRUE(atLower) << "var " << j << " rc " << rc << " seed "
                           << param.seed;
    } else if (rc < -1e-5) {
      EXPECT_TRUE(atUpper) << "var " << j << " rc " << rc << " seed "
                           << param.seed;
    }
  }
}

// Equality-heavy instances (assignment-like rows) anchored at a feasible
// point — the shape of the time-indexed models' Eq. 3 rows.
class SimplexEqualityTest : public ::testing::TestWithParam<std::uint64_t> {};

LpModel equalityLp(std::uint64_t seed, std::vector<double>& point) {
  util::Rng rng(seed);
  LpModel m;
  const int vars = static_cast<int>(rng.uniformInt(4, 20));
  for (int j = 0; j < vars; ++j) {
    const double lb = 0.0, ub = rng.uniform(1, 4);
    m.addVariable(lb, ub, rng.uniform(-2, 2));
    point.push_back(rng.uniform(lb, ub));
  }
  const int eqRows = static_cast<int>(rng.uniformInt(1, vars / 2 + 1));
  for (int r = 0; r < eqRows; ++r) {
    std::vector<std::pair<int, double>> entries;
    double activity = 0;
    for (int j = 0; j < vars; ++j) {
      if (!rng.bernoulli(0.5)) continue;
      const double coef = rng.uniform(0.2, 2);  // positive, like Eq. 3/4
      entries.emplace_back(j, coef);
      activity += coef * point[static_cast<std::size_t>(j)];
    }
    if (entries.empty()) continue;
    m.addRow(activity, activity, entries);  // equality through the point
  }
  return m;
}

TEST_P(SimplexEqualityTest, SolvesEqualityHeavySystems) {
  std::vector<double> point;
  const LpModel m = equalityLp(GetParam(), point);
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, LpStatus::Optimal) << "seed " << GetParam();
  EXPECT_TRUE(m.isFeasible(s.x, 1e-5));
  EXPECT_LE(s.objective, m.objectiveValue(point) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SimplexEqualityTest,
                         ::testing::Range<std::uint64_t>(3000, 3030));

std::vector<RandomLpCase> randomLpCases() {
  std::vector<RandomLpCase> cases;
  std::uint64_t seed = 1000;
  for (const int vars : {2, 3, 5, 8, 12, 20}) {
    for (const int rows : {1, 3, 6, 12}) {
      for (int rep = 0; rep < 3; ++rep) {
        cases.push_back(RandomLpCase{seed++, vars, rows});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SimplexRandomTest,
                         ::testing::ValuesIn(randomLpCases()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed) +
                                  "_v" + std::to_string(info.param.vars) +
                                  "_r" + std::to_string(info.param.rows);
                         });

// ---------------------------------------------------------------------------
// Pinned pivot paths. For every random instance above: the pivot count, the
// refactorization count and the bit pattern of the optimal objective,
// recorded with per-column pricing. Row-wise pricing must reproduce them
// exactly; a change that moves a single pivot, or one rounding step of the
// objective, fails here.
// ---------------------------------------------------------------------------

struct PivotPath {
  long iterations;
  long refactorizations;
  std::uint64_t objectiveBits;
};

void expectPivotPath(const LpSolution& s, const PivotPath& pinned) {
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_EQ(s.iterations, pinned.iterations);
  EXPECT_EQ(s.refactorizations, pinned.refactorizations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.objective), pinned.objectiveBits)
      << "objective " << s.objective;
}

/// SimplexRandomTest seeds 1000, 1001, ... in randomLpCases() order.
constexpr PivotPath kRandomPivotPaths[] = {
    {2, 2, 0xbfe057d22bac6218ULL},
    {1, 2, 0x3fad1a41db0855e0ULL},
    {2, 2, 0xc00c9fa38b9f40c1ULL},
    {4, 2, 0xc00554a9ae6140d2ULL},
    {1, 2, 0xc02b271524178f24ULL},
    {2, 2, 0xc0073e25adb3e273ULL},
    {4, 2, 0x3ff3496da064aea0ULL},
    {9, 2, 0xc01fb604763a7684ULL},
    {4, 2, 0xc011e2d504836c41ULL},
    {10, 2, 0xc0126e3436df7b17ULL},
    {9, 2, 0x3fe2368c49ccd515ULL},
    {5, 2, 0xbfb12d95dfd26216ULL},
    {3, 2, 0xc01047be071eb596ULL},
    {5, 2, 0xc013e51e2014ac73ULL},
    {1, 2, 0xc02313cc9136c8d9ULL},
    {6, 2, 0xc03484be68a1b67dULL},
    {7, 2, 0x400de11ebc69c19cULL},
    {3, 2, 0xc02d6f76d536f00fULL},
    {6, 2, 0x3fd845b7dc6269b1ULL},
    {3, 2, 0xc019e93f4850e5b2ULL},
    {4, 2, 0x3ff15a7370e7fd08ULL},
    {3, 2, 0xbfcd8736b1724b0aULL},
    {4, 2, 0xc017d4aad07feb77ULL},
    {9, 2, 0x3ff05088230b9e34ULL},
    {1, 2, 0xc03431c83f3c9fd2ULL},
    {2, 2, 0xc02b61ddfdcaf504ULL},
    {4, 2, 0xbfe0457c5f4849f0ULL},
    {8, 2, 0x40037941b2f9787aULL},
    {4, 2, 0xc0234ec6d12e29a2ULL},
    {8, 2, 0xbfed144896a2173cULL},
    {8, 2, 0x400b9d46fa3b87faULL},
    {7, 2, 0xc00b960cea1d2700ULL},
    {5, 2, 0xc03137ed585d529aULL},
    {11, 2, 0xc018ed9ed4cad075ULL},
    {9, 2, 0xc0217c736d52e706ULL},
    {7, 2, 0x4008b5cb388b570cULL},
    {0, 0, 0xc03d80bef1352e5cULL},
    {5, 2, 0xc035e55959772ac5ULL},
    {4, 2, 0xc02ca3593c625ba6ULL},
    {3, 2, 0xc0219275079acf5aULL},
    {5, 2, 0xc02d9b7b2b1b8126ULL},
    {7, 2, 0xc0363eb4814256e5ULL},
    {10, 2, 0xc0273f8c4a6cad8cULL},
    {10, 2, 0x401cbba22a70545eULL},
    {18, 2, 0xc022e7b57b29e03cULL},
    {16, 2, 0xbfb4550784d10d70ULL},
    {16, 2, 0x402bc8a7e8082216ULL},
    {21, 2, 0x40056c2b09808216ULL},
    {8, 2, 0xc043be938b4b06c9ULL},
    {6, 2, 0xc042b51d70bb83b9ULL},
    {10, 2, 0xc050a8bde2b496e9ULL},
    {10, 2, 0xc03a48c99e7971c3ULL},
    {10, 2, 0xc043fd1377254bf0ULL},
    {12, 2, 0xc02ec70ac322d3ccULL},
    {16, 2, 0xc03774a5ee1bdf2fULL},
    {20, 2, 0xc02721a6607dc38eULL},
    {18, 2, 0xc01fcd69a6fccbf0ULL},
    {32, 2, 0xc00c8cbd4b91f25fULL},
    {29, 2, 0x4021e6bc9a65706eULL},
    {17, 2, 0xc0210bc32e875de7ULL},
    {11, 2, 0xc04cc4e9ff70663cULL},
    {18, 2, 0xc0476c4c60aeb9a1ULL},
    {18, 2, 0xc04b8e48cec9aab8ULL},
    {19, 2, 0xc04cc3c75416434eULL},
    {13, 2, 0xc0488fb75293b189ULL},
    {17, 2, 0xc049574acb2c0132ULL},
    {27, 2, 0xc044bdcf4f2ed347ULL},
    {20, 2, 0xc04532a32f161121ULL},
    {29, 2, 0xc04c287cfddc862bULL},
    {58, 2, 0xc037b3967ae9393bULL},
    {29, 2, 0xc042e007447457afULL},
    {31, 2, 0xc03185224d1d9d13ULL},
};

/// SimplexEqualityTest seeds 3000, 3001, ...
constexpr PivotPath kEqualityPivotPaths[] = {
    {32, 2, 0xc0145fc38dd2dc6aULL},
    {5, 2, 0x4000d379b95ecd3dULL},
    {15, 2, 0xc030169588f61df7ULL},
    {4, 2, 0x400ed6da011a6969ULL},
    {19, 2, 0xc02438ecbe57baafULL},
    {11, 2, 0xc029684f440bae64ULL},
    {27, 2, 0x4010890832b40ec2ULL},
    {22, 2, 0xc00167d14e7fa692ULL},
    {7, 2, 0xbff2656d6f39956cULL},
    {12, 2, 0xbff649b1d08d4b42ULL},
    {19, 2, 0xc02042ba1ef547e9ULL},
    {13, 2, 0xc036d038374ab0f1ULL},
    {12, 2, 0xc030656ed6a76de4ULL},
    {11, 2, 0xc02b7f2b3bfd94c0ULL},
    {25, 2, 0xc022d7ab0ba0e4b6ULL},
    {14, 2, 0xc028b2de779535c4ULL},
    {18, 2, 0x3fe0115f4cd87224ULL},
    {15, 2, 0xc03cb6aad7aa7cb1ULL},
    {16, 2, 0xc031a8894028497aULL},
    {20, 2, 0xc022b66e12200adbULL},
    {9, 2, 0x3ff7947e865abbf6ULL},
    {15, 2, 0xc01b5c48c081add0ULL},
    {14, 2, 0xc018a2381e7e0120ULL},
    {17, 2, 0xc02f3ad32fda0e6dULL},
    {4, 2, 0xbffc0bd74ca33f0eULL},
    {12, 2, 0xc02a42a93b5278f0ULL},
    {13, 2, 0xc03b367dc7e2ede3ULL},
    {28, 2, 0xc018dc4338ed4680ULL},
    {8, 2, 0xc021c374c313e814ULL},
    {12, 2, 0x401bb7c45e4d1b72ULL},
};

TEST_P(SimplexRandomTest, PivotPathIsPinned) {
  const RandomLpCase param = GetParam();
  std::vector<double> point;
  const LpSolution s = solveLp(randomLp(param, point));
  ASSERT_LT(param.seed - 1000, std::size(kRandomPivotPaths));
  expectPivotPath(s, kRandomPivotPaths[param.seed - 1000]);
}

TEST_P(SimplexEqualityTest, PivotPathIsPinned) {
  std::vector<double> point;
  const LpSolution s = solveLp(equalityLp(GetParam(), point));
  ASSERT_LT(GetParam() - 3000, std::size(kEqualityPivotPaths));
  expectPivotPath(s, kEqualityPivotPaths[GetParam() - 3000]);
}


TEST(LpWorkspace, ReuseGivesTheSameResultsAsFreshSolves) {
  // One workspace through every random instance, so the row and column
  // counts grow and shrink between solves, then the same instances again
  // in reverse: each result must equal a fresh solve to the bit.
  std::vector<RandomLpCase> cases = randomLpCases();
  const std::size_t forward = cases.size();
  cases.insert(cases.end(), cases.rbegin(), cases.rend());
  LpWorkspace workspace;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    std::vector<double> point;
    const LpModel m = randomLp(cases[c], point);
    const LpSolution fresh = solveLp(m);
    const LpSolution reused = solveLp(m, {}, workspace);
    const std::string what = "seed " + std::to_string(cases[c].seed) +
                             (c < forward ? " forward" : " reverse");
    ASSERT_EQ(reused.status, fresh.status) << what;
    EXPECT_EQ(reused.iterations, fresh.iterations) << what;
    EXPECT_EQ(reused.refactorizations, fresh.refactorizations) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reused.objective),
              std::bit_cast<std::uint64_t>(fresh.objective))
        << what;
    EXPECT_EQ(reused.x, fresh.x) << what;
    EXPECT_EQ(reused.duals, fresh.duals) << what;
  }
}

TEST(Simplex, CancelDeadlineNowStopsBeforeFirstPivot) {
  // The deadline is polled at the head of every iteration, so an already
  // expired deadline is honored with zero pivots — the guaranteed overshoot
  // bound of one iteration.
  LpModel m;
  const int a = m.addVariable(0, kInf, -3.0);
  const int b = m.addVariable(0, kInf, -5.0);
  m.addRow(-kInf, 4.0, {{a, 1.0}});
  m.addRow(-kInf, 12.0, {{b, 2.0}});
  m.addRow(-kInf, 18.0, {{a, 3.0}, {b, 2.0}});
  util::FaultPlan faults;
  faults.deadlineNow = true;
  util::CancelToken token({}, faults);
  SimplexOptions opts;
  opts.cancel = &token;
  const LpSolution s = solveLp(m, opts);
  EXPECT_EQ(s.status, LpStatus::Cancelled);
  EXPECT_EQ(s.iterations, 0);
  EXPECT_EQ(token.reason(), util::CancelReason::Deadline);
}

TEST(Simplex, CancelIterationBudgetBoundsPivots) {
  // A shared one-iteration budget stops the solve after at most one pivot
  // even though the instance needs several — the mechanism that keeps a
  // degenerate node LP inside branch & bound from overrunning a step.
  LpModel m;
  const int a = m.addVariable(0, kInf, -3.0);
  const int b = m.addVariable(0, kInf, -5.0);
  m.addRow(-kInf, 4.0, {{a, 1.0}});
  m.addRow(-kInf, 12.0, {{b, 2.0}});
  m.addRow(-kInf, 18.0, {{a, 3.0}, {b, 2.0}});
  util::SolveBudget budget;
  budget.maxLpIterations = 1;
  util::CancelToken token(budget);
  SimplexOptions opts;
  opts.cancel = &token;
  const LpSolution s = solveLp(m, opts);
  EXPECT_EQ(s.status, LpStatus::Cancelled);
  EXPECT_LE(s.iterations, 1);
  EXPECT_EQ(token.reason(), util::CancelReason::LpIterationLimit);
}

TEST(Simplex, ProcessInterruptCancelsWithInterruptedReason) {
  // The SIGINT/SIGTERM flag rides on every token poll: a solve in flight
  // when the user hits Ctrl-C stops as Cancelled/Interrupted, which the
  // journaled study uses to discard the half-done row before flushing.
  LpModel m;
  const int a = m.addVariable(0, kInf, -3.0);
  const int b = m.addVariable(0, kInf, -5.0);
  m.addRow(-kInf, 4.0, {{a, 1.0}});
  m.addRow(-kInf, 12.0, {{b, 2.0}});
  m.addRow(-kInf, 18.0, {{a, 3.0}, {b, 2.0}});
  util::requestInterrupt();
  util::CancelToken token;
  SimplexOptions opts;
  opts.cancel = &token;
  const LpSolution s = solveLp(m, opts);
  util::clearInterrupt();
  EXPECT_EQ(s.status, LpStatus::Cancelled);
  EXPECT_EQ(token.reason(), util::CancelReason::Interrupted);
}

TEST(Simplex, RequestCancelStopsTheSolve) {
  LpModel m;
  const int a = m.addVariable(0, kInf, -3.0);
  const int b = m.addVariable(0, kInf, -5.0);
  m.addRow(-kInf, 4.0, {{a, 1.0}});
  m.addRow(-kInf, 18.0, {{a, 3.0}, {b, 2.0}});
  util::CancelToken token;
  token.requestCancel(util::CancelReason::Interrupted);
  SimplexOptions opts;
  opts.cancel = &token;
  const LpSolution s = solveLp(m, opts);
  EXPECT_EQ(s.status, LpStatus::Cancelled);
  EXPECT_EQ(token.reason(), util::CancelReason::Interrupted);
}

TEST(Simplex, InjectedNumericalFailureConsumesOneFault) {
  LpModel m;
  m.addVariable(2, 5, 3.0);
  util::FaultPlan faults;
  faults.lpFailures = 1;
  util::CancelToken token({}, faults);
  SimplexOptions opts;
  opts.cancel = &token;
  EXPECT_EQ(solveLp(m, opts).status, LpStatus::NumericalFailure);
  // The fault is consumed; the same token lets the next solve through.
  EXPECT_EQ(solveLp(m, opts).status, LpStatus::Optimal);
}

}  // namespace
}  // namespace dynsched::lp
