#include "decompose.hpp"

#include <cstdio>
#include <optional>
#include <string>

#include "dynsched/analysis/model_lint.hpp"
#include "dynsched/analysis/schedule_validator.hpp"
#include "dynsched/tip/compaction.hpp"

namespace perfbench {

using namespace dynsched;

void DecomposedStep::add(const DecomposedStep& other) {
  nodes += other.nodes;
  lpIterations += other.lpIterations;
  gap += other.gap;
  solvedSteps += other.solvedSteps;
  rows += other.rows;
  cols += other.cols;
  rootIterations += other.rootIterations;
  rootRefactorizations += other.rootRefactorizations;
  heuristicCalls += other.heuristicCalls;
  heuristicHits += other.heuristicHits;
}

DecomposedStep decomposeStep(const sim::StepSnapshot& snapshot,
                             const tip::SupervisedOptions& options,
                             const util::SolveBudget& budget,
                             std::uint64_t request, Report& report) {
  DecomposedStep out;
  const std::string at = "step t=" + std::to_string(snapshot.time);
  const Span step("ilp.step", request);
  std::optional<tip::TipInstance> instance;
  {
    const Span s("tip.make_instance");
    instance.emplace(tip::makeInstance(snapshot, options));
  }
  std::optional<tip::Grid> grid;
  std::optional<tip::TipModel> model;
  {
    const Span s("tip.build_model");
    grid.emplace(tip::makeGrid(*instance));
    model.emplace(tip::buildModel(*instance, *grid));
  }
  out.rows = model->mip.lp.numRows();
  out.cols = model->mip.lp.numVariables();
  {
    const Span s("analysis.lint");
    const analysis::LintReport lint = analysis::lintModel(model->mip);
    report.check(!lint.hasErrors(), at + ": model lint errors");
  }
  mip::MipOptions mipOptions = tip::makeMipOptions(
      *model, *instance, *grid, options.mip,
      options.warmStart ? &snapshot.bestSchedule : nullptr);
  {
    const Span s("lp.root_solve");
    const lp::LpSolution root =
        lp::solveLp(model->mip.lp, mipOptions.lpOptions);
    out.rootIterations = root.iterations;
    out.rootRefactorizations = root.refactorizations;
  }
  const auto rounding = mipOptions.roundingHeuristic;
  mipOptions.roundingHeuristic = [&out, &rounding](
                                     const std::vector<double>& x) {
    const Span s("mip.heuristic");
    ++out.heuristicCalls;
    auto candidate = rounding(x);
    if (candidate) ++out.heuristicHits;
    return candidate;
  };
  util::CancelToken token(budget, util::FaultPlan{});
  mipOptions.cancel = &token;
  std::optional<mip::MipResult> solved;
  {
    const Span s("mip.solve");
    solved.emplace(mip::solveMip(model->mip, mipOptions));
  }
  out.nodes = solved->nodes;
  out.lpIterations = solved->lpIterations;
  out.solved = solved->hasSolution();
  if (!out.solved) return out;
  out.gap = solved->gap();
  out.solvedSteps = 1;
  {
    const Span s("tip.compact");
    out.schedule =
        tip::compactFromSlots(*instance, model->startSlots(solved->x));
  }
  const Span s("analysis.validate");
  const auto check = analysis::ScheduleValidator().validate(
      out.schedule, instance->history, instance->now);
  report.check(check.ok(), at + ": decomposed schedule invalid: " +
                               check.toString());
  return out;
}

void reportDecomposition(const DecomposedStep& sum, std::size_t steps,
                         Report& report) {
  const auto total = [](const char* name) {
    return Tracer::stats(name).totalSeconds;
  };
  const auto self = [](const char* name) {
    return Tracer::stats(name).selfSeconds;
  };
  const double n = static_cast<double>(steps);
  const double mipSolve = total("mip.solve");
  // The supervised-equivalent step: the traced step minus the two probes.
  const double stepSeconds =
      total("ilp.step") - total("analysis.lint") - total("lp.root_solve");
  const double itPerNode =
      sum.nodes > 0 ? static_cast<double>(sum.lpIterations) /
                          static_cast<double>(sum.nodes)
                    : 0;
  const double rootPerStep = static_cast<double>(sum.rootIterations) / n;
  std::printf(
      "definitions: mip.lp_iterations = sum of MipResult::lpIterations "
      "(simplex pivots of every node LP, root included). The supervised "
      "CancelToken count adds one poll per node LP and is never used here.\n");
  std::printf("ratio lp.us_per_iteration = mip.solve_s %.6f s / "
              "mip.lp_iterations %ld (derived)\n",
              mipSolve, sum.lpIterations);
  std::printf("ratio mip.iterations_per_node = mip.lp_iterations %ld / "
              "mip.nodes %ld\n",
              sum.lpIterations, sum.nodes);
  std::printf("ratio lp.cold_ratio = mip.iterations_per_node %.3f / "
              "(lp.root_iterations %ld / %zu steps) (derived)\n",
              itPerNode, sum.rootIterations, steps);
  std::printf("ratio mip.solve_share = mip.solve_s %.6f s / traced step time "
              "without the two probes %.6f s\n",
              mipSolve, stepSeconds);
  std::printf("ratio mip.heuristic hits = %ld candidates / %ld calls\n",
              sum.heuristicHits, sum.heuristicCalls);

  report.metric("tip.make_instance_s", total("tip.make_instance"), "s");
  report.metric("tip.build_model_s", total("tip.build_model"), "s");
  report.metric("tip.model_rows", static_cast<double>(sum.rows), "count");
  report.metric("tip.model_cols", static_cast<double>(sum.cols), "count");
  report.metric("tip.compact_s", total("tip.compact"), "s");
  report.metric("tip.step_self_s", self("ilp.step"), "s");
  report.metric("mip.solve_s", mipSolve, "s");
  report.metric("mip.solve_self_s", self("mip.solve"), "s");
  report.metric("mip.solve_share",
                stepSeconds > 0 ? mipSolve / stepSeconds : 0, "share");
  report.metric("mip.nodes", static_cast<double>(sum.nodes), "count");
  report.metric("mip.lp_iterations", static_cast<double>(sum.lpIterations),
                "count");
  report.metric("mip.iterations_per_node", itPerNode, "count");
  report.metric("mip.gap",
                sum.solvedSteps > 0
                    ? sum.gap / static_cast<double>(sum.solvedSteps)
                    : 0,
                "share");
  report.metric("mip.heuristic_calls",
                static_cast<double>(sum.heuristicCalls), "count");
  report.metric("mip.heuristic_hits", static_cast<double>(sum.heuristicHits),
                "count");
  report.metric("mip.heuristic_s", total("mip.heuristic"), "s");
  report.metric("lp.root_solve_s", total("lp.root_solve"), "s");
  report.metric("lp.root_iterations", static_cast<double>(sum.rootIterations),
                "count");
  report.metric("lp.root_refactorizations",
                static_cast<double>(sum.rootRefactorizations), "count");
  report.metric("lp.us_per_iteration",
                sum.lpIterations > 0
                    ? mipSolve * 1e6 / static_cast<double>(sum.lpIterations)
                    : 0,
                "us");
  report.metric("lp.cold_ratio", rootPerStep > 0 ? itPerNode / rootPerStep : 0,
                "ratio");
  report.metric("analysis.lint_s", total("analysis.lint"), "s");
  report.metric("analysis.validate_s", total("analysis.validate"), "s");
}

}  // namespace perfbench
