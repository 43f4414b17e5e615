// Bounded-variable primal simplex (revised form, dense basis inverse).
//
// Handles general range rows and variable bounds. Infeasibility is resolved
// by a classical two-phase start: the crash basis takes each row's slack
// when the starting activity fits the row bounds, and otherwise a signed
// artificial variable for that row (one per row is allocated). Phase 1
// minimizes the sum of the artificials, which can only leave the basis:
// pricing covers structural and slack columns alone. Once the sum reaches
// zero the artificials are fixed at zero for phase 2. Every basis is primal
// feasible in both phases, so one ratio test and one pivoting path serve
// both. Degeneracy falls back to Bland's rule after a run of non-improving
// pivots.
//
// Pricing is row-wise. Each solve builds a row-major copy of the structural
// columns that are not fixed (lb == ub columns never enter); each iteration
// forms y^T A by walking only the rows whose dual y_r is nonzero, in
// ascending row order. LpModel keeps every column in ascending row order, so
// each reduced cost adds the same products in the same order as a
// per-column dot product: the terms skipped are exactly ±0, and the pivots
// are bit-identical to column-wise pricing.
//
// This solver plays the role of the LP engine inside the branch-and-bound
// "CPLEX substitute" (dynsched::mip); see DESIGN.md, substitutions.
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace dynsched::util {
class CancelToken;
}  // namespace dynsched::util

namespace dynsched::lp {

class LpModel;

enum class LpStatus {
  Optimal,
  Infeasible,
  Unbounded,
  IterationLimit,
  NumericalFailure,
  Cancelled,  ///< a CancelToken stopped the solve (budget/deadline/fault)
};

const char* lpStatusName(LpStatus status);

struct LpSolution {
  LpStatus status = LpStatus::NumericalFailure;
  double objective = 0;
  std::vector<double> x;      ///< structural variable values
  std::vector<double> duals;  ///< dual values per row (phase-2 y)
  long iterations = 0;
  long refactorizations = 0;

  bool optimal() const { return status == LpStatus::Optimal; }
};

/// The tolerances, iteration cap and refactorization interval are fixed
/// constants of the solver (simplex.cpp); only the cancellation point varies
/// per solve.
struct SimplexOptions {
  /// Cooperative cancellation point, polled at every iteration so a shared
  /// deadline is honored with at most one iteration of overshoot (and so a
  /// degenerate node LP inside branch & bound cannot overrun the step
  /// budget). Non-owning; may be null.
  util::CancelToken* cancel = nullptr;
};

/// The storage a solve works in: the dense basis inverse and every
/// per-variable and per-row array. Branch & bound re-solves one model at
/// each node; handing all those solves one workspace allocates the buffers
/// once (and again only when the row count changes) instead of per node.
/// Results do not depend on what an earlier solve left behind. One solve
/// at a time per workspace.
class LpWorkspace {
 public:
  LpWorkspace();
  ~LpWorkspace();
  LpWorkspace(const LpWorkspace&) = delete;
  LpWorkspace& operator=(const LpWorkspace&) = delete;

  class Simplex;  ///< the solver and its buffers (simplex.cpp)

 private:
  friend LpSolution solveLp(const LpModel&, const SimplexOptions&,
                            LpWorkspace&);
  std::unique_ptr<Simplex> simplex_;
};

/// Solves `model` (minimization). The model is not modified.
LpSolution solveLp(const LpModel& model, const SimplexOptions& options = {});

/// Same, reusing the buffers of `workspace`.
LpSolution solveLp(const LpModel& model, const SimplexOptions& options,
                   LpWorkspace& workspace);

}  // namespace dynsched::lp
