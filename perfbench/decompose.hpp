// The traced decomposition of one supervised solve.
//
// tip::supervisedBestSchedule runs, on its first rung, makeInstance ->
// makeGrid + buildModel -> makeMipOptions -> solveMip -> compactFromSlots
// -> ScheduleValidator::validate. decomposeStep() makes the same public
// calls with a span around each, wraps the rounding heuristic that
// makeMipOptions returns to count its calls, and adds two probe calls the
// pipeline does not make itself: lp::solveLp on the root relaxation and
// analysis::lintModel on the built model. Used by ilp_study and serve_mix.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "dynsched/core/schedule.hpp"
#include "dynsched/sim/simulator.hpp"
#include "dynsched/tip/supervised.hpp"

namespace perfbench {

/// Counters of one decomposed step (or, summed, of several).
struct DecomposedStep {
  long nodes = 0;
  long lpIterations = 0;  ///< MipResult::lpIterations (simplex pivots)
  double gap = 0;         ///< relative B&B gap at stop (solved steps)
  int rows = 0;
  int cols = 0;
  long rootIterations = 0;
  long rootRefactorizations = 0;
  long heuristicCalls = 0;
  long heuristicHits = 0;  ///< calls that returned a candidate
  long solvedSteps = 0;    ///< steps whose solve returned a schedule
  bool solved = false;
  dynsched::core::Schedule schedule;  ///< compacted schedule (if solved)

  void add(const DecomposedStep& other);
};

/// Runs one step decomposed, under a root span "ilp.step". `budget` is the
/// solve budget the supervised call would carry (the serve path caps nodes
/// there). A capped solve may stop without a schedule (`solved` false; the
/// supervised ladder would then fall back); the caller decides whether that
/// is expected. Lint errors and an invalid schedule fail checks in
/// `report`.
DecomposedStep decomposeStep(const dynsched::sim::StepSnapshot& snapshot,
                             const dynsched::tip::SupervisedOptions& options,
                             const dynsched::util::SolveBudget& budget,
                             std::uint64_t request, Report& report);

/// Reports the tip, mip, lp and analysis per-layer metrics of `steps`
/// decomposed steps summed in `sum`, from the recorded spans, and prints
/// each ratio with its numerator and denominator.
void reportDecomposition(const DecomposedStep& sum, std::size_t steps,
                         Report& report);

}  // namespace perfbench
