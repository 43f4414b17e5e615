// Workload ilp_study: the pinned bench_exact_solvers scenario.
//
// Inputs: the self-tuning steps with 5-14 waiting jobs captured from the
// CTC-calibrated trace (700 jobs, trace seed 44) — 21 steps. The step set is
// pinned so node counts and schedule quality can be gated on reference
// values; --seed sets the order in which the steps are solved. Each step is
// solved through tip::supervisedBestSchedule with a B&B node cap (the search
// is then deterministic) and, with a node budget of its own, by the
// second-precision order B&B.
//
// Timed (trace off): the steps are visited in the seeded order, cycling
// through the set until --seconds have passed, a visit repeating its step's
// solve until kVisitSeconds went into it; each step's time is the median of
// its solves, and the study time sums the steps' mean times. Every solve is
// checked against the reference. The traced run
// solves the set once untraced and once decomposed into its public steps
// (makeInstance -> makeGrid/buildModel -> solveMip -> compactFromSlots ->
// validate) with a span around each call, plus probe calls for the root LP
// (lp::solveLp) and the model lint.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench.hpp"
#include "decompose.hpp"
#include "dynsched/analysis/model_lint.hpp"
#include "dynsched/analysis/schedule_validator.hpp"
#include "dynsched/sim/simulator.hpp"
#include "dynsched/tip/order_bnb.hpp"
#include "dynsched/tip/supervised.hpp"
#include "dynsched/trace/synthetic.hpp"
#include "dynsched/util/rng.hpp"

namespace perfbench {

using namespace dynsched;

namespace {

constexpr std::size_t kTraceJobs = 700;
constexpr std::uint64_t kTraceSeed = 44;
constexpr long kIlpNodeCap = 8;          ///< B&B nodes per supervised step
constexpr long kOrderBnbNodeCap = 250000;  ///< order B&B nodes per step
constexpr int kSetupRepeats = 31;
/// A visit to a step repeats its solve until this much time has gone into
/// the visit, so a short step gets several solves where a long one gets one.
constexpr double kVisitSeconds = 0.5;

/// Expected outcome of one pinned step (recorded from this harness; the
/// search is node-capped and single-threaded, so it is deterministic).
struct Reference {
  Time time;
  long ilpNodes;
  double ilpSld;
  long orderNodes;
  bool orderProven;
  double orderSld;
};

// clang-format off
const std::vector<Reference> kReference = {
#include "ilp_reference.inc"
};
// clang-format on

/// Trace generation and snapshot capture; `generateSeconds` receives the
/// time of the trace generation alone.
std::vector<sim::StepSnapshot> captureSteps(double& generateSeconds) {
  const Clock::time_point t = Clock::now();
  const auto swf = trace::ctcModel().generate(kTraceJobs, kTraceSeed);
  generateSeconds = secondsSince(t);
  sim::SimOptions options;
  options.kind = sim::SchedulerKind::DynP;
  options.snapshots.enabled = true;
  options.snapshots.minWaiting = 5;
  options.snapshots.maxWaiting = 14;
  sim::RmsSimulator simulator(core::Machine{430}, options);
  return simulator.run(core::fromSwf(swf)).snapshots;
}

tip::SupervisedOptions solveOptions() {
  tip::SupervisedOptions options;
  options.scaling.totalMemoryBytes = 256ULL << 20;  // bench_exact_solvers
  options.mip.timeLimitSeconds = 1e6;  // node cap only: deterministic
  options.mip.maxNodes = kIlpNodeCap;
  options.faults = util::FaultPlan{};  // never read DYNSCHED_FAULTS
  return options;
}

tip::OrderBnbOptions orderOptions() {
  tip::OrderBnbOptions options;
  options.maxNodes = kOrderBnbNodeCap;
  options.timeLimitSeconds = 1e6;
  return options;
}

/// What one step produced in the untraced pipeline.
struct StepOutcome {
  tip::SupervisedResult ilp;
  tip::OrderBnbResult order;
  double ilpSld = 0;
  double orderSld = 0;
  double ilpSeconds = 0;
  double orderSeconds = 0;
};

StepOutcome solveStep(const sim::StepSnapshot& snap,
                      const tip::SupervisedOptions& options) {
  StepOutcome out;
  Clock::time_point t = Clock::now();
  out.ilp = tip::supervisedBestSchedule(snap, options);
  out.ilpSeconds = secondsSince(t);
  const tip::TipInstance instance = tip::makeInstance(snap, options);
  t = Clock::now();
  out.order = tip::solveByOrderBnb(instance, orderOptions());
  out.orderSeconds = secondsSince(t);
  const core::MetricEvaluator evaluator(snap.time,
                                        snap.history.machineSize());
  out.ilpSld = evaluator.evaluate(out.ilp.schedule, core::MetricKind::SldWA);
  out.orderSld =
      evaluator.evaluate(out.order.schedule, core::MetricKind::SldWA);
  return out;
}

bool sameValue(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

/// The step's result as a line of ilp_reference.inc.
std::string referenceLine(const sim::StepSnapshot& snap, const StepOutcome& o) {
  char line[160];
  std::snprintf(line, sizeof(line), "{%lld, %ld, %.17g, %ld, %s, %.17g},",
                static_cast<long long>(snap.time), o.ilp.nodes, o.ilpSld,
                o.order.nodes, o.order.optimal ? "true" : "false", o.orderSld);
  return line;
}

/// Checks one step's results: both schedules valid, step time, node counts
/// and values equal to the pinned reference (`ref` is null for a step the
/// reference does not have). A mismatch prints the observed reference line.
void checkStep(const sim::StepSnapshot& snap, const StepOutcome& out,
               const Reference* ref, Report& report) {
  const std::string at = "ilp_study step t=" + std::to_string(snap.time);
  const analysis::ScheduleValidator validator;
  const auto ilpCheck =
      validator.validate(out.ilp.schedule, snap.history, snap.time);
  report.check(ilpCheck.ok(), at + ": ILP schedule invalid: " +
                                  ilpCheck.toString());
  const auto orderCheck =
      validator.validate(out.order.schedule, snap.history, snap.time);
  report.check(orderCheck.ok(), at + ": order B&B schedule invalid: " +
                                    orderCheck.toString());
  report.check(out.ilp.schedule.size() == snap.waiting.size(),
               at + ": ILP schedule misses jobs");
  const bool same = ref != nullptr && snap.time == ref->time &&
                    out.ilp.nodes == ref->ilpNodes &&
                    sameValue(out.ilpSld, ref->ilpSld) &&
                    out.order.nodes == ref->orderNodes &&
                    out.order.optimal == ref->orderProven &&
                    sameValue(out.orderSld, ref->orderSld);
  report.check(same, at + ": result differs from the reference; observed "
                          "line of ilp_reference.inc: " +
                          referenceLine(snap, out));
}

}  // namespace

void runIlpStudy(const Args& args, Report& report) {
  // Set-up: trace generation and snapshot capture, repeated; the median is
  // the set-up time.
  std::vector<double> setupSamples;
  std::vector<double> generateSamples;
  std::vector<sim::StepSnapshot> steps;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t = Clock::now();
    double generateSeconds = 0;
    steps = captureSteps(generateSeconds);
    setupSamples.push_back(secondsSince(t));
    generateSamples.push_back(generateSeconds);
    HostProbe::tick();
  }
  report.check(steps.size() == kReference.size(),
               "ilp_study: captured " + std::to_string(steps.size()) +
                   " steps, reference has " +
                   std::to_string(kReference.size()));
  if (steps.empty()) return;

  // The seed only permutes the solve order.
  std::vector<std::size_t> order(steps.size());
  std::iota(order.begin(), order.end(), 0);
  util::Rng rng(args.seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(
                  rng.uniformInt(0, static_cast<std::int64_t>(i) - 1))]);
  }

  const tip::SupervisedOptions options = solveOptions();
  const auto lintBefore = analysis::modelLintStats().modelsLinted;
  // Visits to the steps in `order`, cycling through the set until
  // --seconds have passed and every step was visited once (the traced run
  // solves each step once, its untraced baseline). A visit solves its step
  // until kVisitSeconds have gone into it. A step's time is the median of
  // its solves and the study time the sum of the steps' mean times, both
  // over the whole window: on a shared host the speed of the same
  // deterministic work drifts in phases of seconds to minutes, and the host
  // probe, run between the solves over the same window, converts
  // whole-window estimates to the reference speed. Each solve is checked
  // against the reference.
  std::vector<StepOutcome> outcomes(steps.size());
  std::vector<std::vector<double>> ilpSeconds(steps.size());
  std::vector<std::vector<double>> orderSeconds(steps.size());
  std::size_t visits = 0;
  std::size_t solves = 0;
  const Clock::time_point begin = Clock::now();
  do {
    const std::size_t i = order[visits % steps.size()];
    double visitSeconds = 0;
    do {
      StepOutcome out = solveStep(steps[i], options);
      HostProbe::tick();
      report.attempted(1);
      if (out.ilp.rung == tip::SolveRung::PolicyFallback) report.failed(1);
      checkStep(steps[i], out,
                i < kReference.size() ? &kReference[i] : nullptr, report);
      ilpSeconds[i].push_back(out.ilpSeconds);
      orderSeconds[i].push_back(out.orderSeconds);
      visitSeconds += out.ilpSeconds + out.orderSeconds;
      if (ilpSeconds[i].size() == 1) outcomes[i] = std::move(out);
      ++solves;
    } while (!args.trace && visitSeconds < kVisitSeconds);
    ++visits;
  } while (visits < steps.size() ||
           (!args.trace && secondsSince(begin) < args.seconds));
  const double untracedSeconds = secondsSince(begin);

  std::vector<double> stepTimes;
  std::vector<double> orderTimes;
  std::vector<double> slds;
  std::size_t proven = 0;
  std::size_t answered = 0;
  double studySeconds = 0;
  double orderStudySeconds = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    stepTimes.push_back(median(ilpSeconds[i]));
    orderTimes.push_back(median(orderSeconds[i]));
    studySeconds += mean(ilpSeconds[i]) + mean(orderSeconds[i]);
    orderStudySeconds += mean(orderSeconds[i]);
    slds.push_back(outcomes[i].ilpSld);
    if (outcomes[i].order.optimal) ++proven;
    if (outcomes[i].ilp.rung != tip::SolveRung::PolicyFallback) ++answered;
  }
  const double sldMean = mean(slds);
  std::vector<double> refSlds;
  for (const Reference& r : kReference) refSlds.push_back(r.ilpSld);
  char means[96];
  std::snprintf(means, sizeof(means), "%.17g, reference %.17g", sldMean,
                mean(refSlds));
  report.check(sameValue(sldMean, mean(refSlds)),
               std::string("ilp_study: ilp_sldwa_mean differs from the "
                           "reference: ") + means);

  std::printf(
      "ilp_study: %zu pinned steps (trace %zu jobs, trace seed %llu), ILP "
      "node cap %ld, order B&B node cap %ld, %zu solves (median per "
      "step)\n",
      steps.size(), kTraceJobs, static_cast<unsigned long long>(kTraceSeed),
      kIlpNodeCap, kOrderBnbNodeCap, solves);
  std::printf("%12s %5s %6s %6s %6s %10s %9s %12s %9s %11s %8s\n", "step",
              "jobs", "rows", "cols", "nodes", "ILP s med", "ILP SLDwA",
              "order s med", "order sld", "order nodes", "proven");
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const StepOutcome& o = outcomes[i];
    std::printf("%12lld %5zu %6d %6d %6ld %10.4f %9.4f %12.4f %9.4f %11ld "
                "%8s\n",
                static_cast<long long>(steps[i].time), steps[i].waiting.size(),
                o.ilp.lpRows, o.ilp.lpColumns, o.ilp.nodes, stepTimes[i],
                o.ilpSld, orderTimes[i], o.orderSld, o.order.nodes,
                o.order.optimal ? "yes" : "no (cap)");
  }
  std::printf(
      "order B&B proven optimal on %zu of %zu steps; unproven rows are "
      "incumbents, not optima\n",
      proven, steps.size());
  std::printf("ratio order B&B share of ilp_study_s = order B&B %.6f s / "
              "ilp_study_s %.6f s = %.4f\n",
              orderStudySeconds, studySeconds,
              orderStudySeconds / studySeconds);
  std::printf("workload metrics: setup_s %.6f s, ilp_step_s_p50 %.6f s, "
              "ilp_study_s %.6f s, ilp_sldwa_mean %.6f\n",
              median(setupSamples), median(stepTimes), studySeconds,
              sldMean);

  if (!args.trace) {
    report.metric("latency_ms_p50", median(stepTimes) * 1e3, "ms");
    report.metric("latency_ms_p99", quantile(stepTimes, 0.99) * 1e3, "ms");
    report.metric("throughput_per_s",
                  static_cast<double>(steps.size()) / studySeconds, "1/s");
    report.metric("slowdown_mean", sldMean, "ratio");
    report.metric("ok_share",
                  static_cast<double>(answered) /
                      static_cast<double>(steps.size()),
                  "share");
    report.metric("setup_s", median(setupSamples), "s");
    return;
  }

  // ---- traced pass: the same step set, decomposed, one round.
  Tracer::enable(true);
  DecomposedStep sum;
  const Clock::time_point tracedBegin = Clock::now();
  for (const std::size_t i : order) {
    const DecomposedStep t =
        decomposeStep(steps[i], options, util::SolveBudget{}, i + 1, report);
    {
      const Span s("tip.order_bnb", i + 1);
      const tip::TipInstance instance = tip::makeInstance(steps[i], options);
      const tip::OrderBnbResult r =
          tip::solveByOrderBnb(instance, orderOptions());
      report.check(r.nodes == outcomes[i].order.nodes,
                   "ilp_study: traced order B&B differs from untraced");
    }
    const StepOutcome& ref = outcomes[i];
    const std::string at = "ilp_study step t=" + std::to_string(steps[i].time);
    const core::MetricEvaluator evaluator(steps[i].time,
                                          steps[i].history.machineSize());
    report.check(t.nodes == ref.ilp.nodes,
                 at + ": decomposition nodes " + std::to_string(t.nodes) +
                     " != supervised " + std::to_string(ref.ilp.nodes));
    report.check(
        t.solved &&
            sameValue(core::MetricEvaluator::totalWeightedResponse(t.schedule),
                      core::MetricEvaluator::totalWeightedResponse(
                          ref.ilp.schedule)) &&
            sameValue(evaluator.evaluate(t.schedule, core::MetricKind::SldWA),
                      ref.ilpSld),
        at + ": decomposition objective differs from supervised");
    sum.add(t);
  }
  const double tracedSeconds = secondsSince(tracedBegin);
  Tracer::enable(false);
  report.check(Tracer::write(args.workdir + "/spans-ilp_study.csv"),
               "cannot write the span log to " + args.workdir);

  reportDecomposition(sum, steps.size(), report);
  const auto total = [](const char* name) {
    return Tracer::stats(name).totalSeconds;
  };
  const double probeSeconds = total("analysis.lint") + total("lp.root_solve");
  std::printf("ratio tip.exact_proven_share = %zu proven / %zu steps\n",
              proven, steps.size());
  std::printf("ratio trace.overhead_share = (traced pass %.6f s - probes "
              "%.6f s) / untraced pass %.6f s - 1\n",
              tracedSeconds, probeSeconds, untracedSeconds);

  std::size_t rungs[tip::kSolveRungs] = {0, 0, 0, 0};
  long orderNodes = 0;
  for (const StepOutcome& o : outcomes) {
    ++rungs[tip::solveRungIndex(o.ilp.rung)];
    orderNodes += o.order.nodes;
  }
  report.metric("trace.overhead_share",
                (tracedSeconds - probeSeconds) / untracedSeconds - 1.0,
                "share");
  report.metric("trace.spans", static_cast<double>(Tracer::count()), "count");
  report.metric("trace.generate_s", median(generateSamples), "s");
  report.metric("tip.rung_optimal", static_cast<double>(rungs[0]), "count");
  report.metric("tip.rung_incumbent_gap", static_cast<double>(rungs[1]),
                "count");
  report.metric("tip.rung_coarsened_retry", static_cast<double>(rungs[2]),
                "count");
  report.metric("tip.rung_policy_fallback", static_cast<double>(rungs[3]),
                "count");
  report.metric("tip.order_bnb_s", total("tip.order_bnb"), "s");
  report.metric("tip.order_bnb_nodes", static_cast<double>(orderNodes),
                "count");
  report.metric("tip.exact_proven_share",
                static_cast<double>(proven) / static_cast<double>(steps.size()),
                "share");
  report.metric("analysis.models_linted",
                static_cast<double>(analysis::modelLintStats().modelsLinted -
                                    lintBefore),
                "count");
}

}  // namespace perfbench
