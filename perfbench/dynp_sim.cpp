// Workload dynp_sim: full simulator runs with self-tuning dynP at every
// submission, then a replay of captured steps through selfTuningStep.
//
// Inputs: kTraces CTC-model traces of kTraceJobs jobs, trace seeds derived
// from --seed. Each trace's arrivals are compressed (submit times scaled by
// a factor found by bisection) until the mean waiting set over the
// simulated tuning steps is about kTargetWaiting jobs, the paper's Section
// 4 figure; calibrating per trace keeps the load, and so the work per job,
// alike across seeds. Set-up = generation + calibration + one capture run
// per trace (median over traces).
//
// Timed (trace off): until --seconds have passed, a pass of simulator runs
// with snapshot capture off (simulated jobs per second over all passes)
// alternates with a replay pass (selfTuningStep latency, each step's median
// over the replays) over every captured step of every trace, at its natural
// waiting-set size. One checked replay (results and schedules compared with the
// capture) runs before the timed passes. The
// traced run makes one untraced and one traced pass of both, then probe
// calls (planSchedule per policy, metric evaluation, schedule validation)
// on the replayed steps.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "dynsched/analysis/model_lint.hpp"
#include "dynsched/analysis/schedule_validator.hpp"
#include "dynsched/core/dynp.hpp"
#include "dynsched/core/planner.hpp"
#include "dynsched/sim/simulator.hpp"
#include "dynsched/trace/synthetic.hpp"

namespace perfbench {

using namespace dynsched;

namespace {

constexpr int kTraces = 20;
constexpr std::size_t kTraceJobs = 1500;
constexpr double kTargetWaiting = 25.0;
constexpr int kBisections = 7;
constexpr std::size_t kCaptureEvery = 4;  ///< capture every 4th step
const core::Machine kMachine{430};

/// Pinned check: this trace and compression must reproduce these report
/// values exactly (recorded from this harness).
constexpr std::uint64_t kPinnedSeed = 44;
constexpr std::size_t kPinnedJobs = 2000;
constexpr double kPinnedCompression = 0.8;
#include "dynp_reference.inc"

struct Trace {
  std::vector<core::Job> jobs;
  std::vector<sim::StepSnapshot> steps;  ///< captured every kCaptureEvery
  double waitingMean = 0;                ///< over the captured steps
  double compression = 1;
  double generateSeconds = 0;
  double setupSeconds = 0;
  // Capture-run report values every later run must reproduce.
  double avgSlowdown = 0;
  double avgResponse = 0;
  std::size_t switches = 0;
};

std::vector<core::Job> compress(const std::vector<core::Job>& base,
                                double factor) {
  std::vector<core::Job> jobs = base;
  const Time t0 = jobs.front().submit;
  for (core::Job& job : jobs) {
    job.submit = t0 + static_cast<Time>(
                          std::llround(static_cast<double>(job.submit - t0) *
                                       factor));
  }
  return jobs;
}

sim::SimulationReport simulate(const std::vector<core::Job>& jobs,
                               std::size_t captureEvery) {
  sim::SimOptions options;
  options.kind = sim::SchedulerKind::DynP;
  options.faults = util::FaultPlan{};
  if (captureEvery > 0) {
    options.snapshots.enabled = true;
    options.snapshots.minWaiting = 1;
    options.snapshots.everyNth = captureEvery;
  }
  return sim::RmsSimulator(kMachine, options).run(jobs);
}

double waitingMean(const std::vector<sim::StepSnapshot>& steps) {
  double sum = 0;
  for (const sim::StepSnapshot& s : steps) {
    sum += static_cast<double>(s.waiting.size());
  }
  return steps.empty() ? 0 : sum / static_cast<double>(steps.size());
}

Trace setUpTrace(std::uint64_t traceSeed) {
  Trace trace;
  const Clock::time_point t = Clock::now();
  const auto base = core::fromSwf(
      trace::ctcModel().generate(kTraceJobs, traceSeed));
  trace.generateSeconds = secondsSince(t);
  // Bisection on the compression factor: a smaller factor packs the same
  // jobs into less time, so the waiting set grows.
  double lo = 0.3;
  double hi = 1.0;
  for (int i = 0; i < kBisections; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double w = waitingMean(simulate(compress(base, mid), 16).snapshots);
    (w > kTargetWaiting ? lo : hi) = mid;
  }
  trace.compression = 0.5 * (lo + hi);
  trace.jobs = compress(base, trace.compression);
  sim::SimulationReport captured = simulate(trace.jobs, kCaptureEvery);
  trace.steps = std::move(captured.snapshots);
  trace.waitingMean = waitingMean(trace.steps);
  trace.avgSlowdown = captured.avgSlowdown();
  trace.avgResponse = captured.avgResponseTime();
  trace.switches = captured.switches.size();
  trace.setupSeconds = secondsSince(t);
  return trace;
}

/// Totals of one simulator pass over every trace.
struct SimPass {
  double seconds = 0;
  std::size_t jobs = 0;
  std::size_t tuningSteps = 0;
  std::size_t degradedSteps = 0;
  std::size_t replans = 0;
  std::size_t switches = 0;
  double planningSeconds = 0;
  double slowdownSum = 0;
};

SimPass simPass(const std::vector<Trace>& traces, Report& report) {
  SimPass pass;
  for (std::size_t k = 0; k < traces.size(); ++k) {
    const Trace& trace = traces[k];
    const Clock::time_point t = Clock::now();
    sim::SimulationReport r;
    {
      const Span s("sim.run", k + 1);
      r = simulate(trace.jobs, 0);
    }
    pass.seconds += secondsSince(t);
    HostProbe::tick();
    pass.jobs += trace.jobs.size();
    pass.tuningSteps += r.tuningSteps;
    pass.degradedSteps += r.degradedSteps;
    pass.replans += r.replans;
    pass.switches += r.switches.size();
    pass.planningSeconds += r.dynpStats.totalPlanningSeconds;
    pass.slowdownSum += r.avgSlowdown();
    report.attempted(1);
    const bool same = r.avgSlowdown() == trace.avgSlowdown &&
                      r.avgResponseTime() == trace.avgResponse &&
                      r.switches.size() == trace.switches &&
                      r.completed.size() == trace.jobs.size();
    if (!same) report.failed(1);
    report.check(same, "dynp_sim: trace " + std::to_string(k) +
                           " simulated differently without snapshot capture");
  }
  return pass;
}

/// Every captured step of every trace, in trace order.
std::vector<const sim::StepSnapshot*> replaySetOf(
    const std::vector<Trace>& traces) {
  std::vector<const sim::StepSnapshot*> set;
  for (const Trace& trace : traces) {
    for (const sim::StepSnapshot& step : trace.steps) set.push_back(&step);
  }
  return set;
}

/// Replays the replay set through one scheduler; returns each step's
/// selfTuningStep latency (seconds).
std::vector<double> replayPass(const std::vector<const sim::StepSnapshot*>& set,
                               bool check, Report& report) {
  const analysis::ScheduleValidator validator;
  core::DynPScheduler scheduler(kMachine, core::DynPConfig{});
  std::vector<double> latency(set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    const sim::StepSnapshot& step = *set[i];
    const Clock::time_point t = Clock::now();
    std::optional<core::SelfTuningResult> result;
    {
      const Span s("core.self_tuning", i + 1);
      result.emplace(
          scheduler.selfTuningStep(step.history, step.waiting, step.time));
    }
    latency[i] = secondsSince(t);
    if (!check) continue;
    report.attempted(1);
    const bool same = result->values == step.values &&
                      result->bestValue() == step.bestValue;
    const auto verdict = validator.validate(result->chosenSchedule(),
                                            step.history, step.time);
    if (!same || !verdict.ok()) report.failed(1);
    report.check(same, "dynp_sim: replayed step t=" +
                           std::to_string(step.time) +
                           " evaluated the policies differently");
    report.check(verdict.ok(), "dynp_sim: replayed schedule invalid: " +
                                   verdict.toString());
  }
  return latency;
}

/// Probe calls on every replayed step: each policy's planSchedule, the
/// metric evaluation of its schedule, and the validation of the best one.
void probePass(const std::vector<const sim::StepSnapshot*>& set) {
  const core::DynPConfig config;
  const analysis::ScheduleValidator validator;
  for (const sim::StepSnapshot* step : set) {
    for (const core::PolicyKind policy : core::defaultPolicySet()) {
      std::optional<core::Schedule> schedule;
      {
        const Span s("core.plan");
        schedule.emplace(core::planSchedule(step->history, step->waiting,
                                            policy, step->time));
      }
      const Span s("core.metric_eval");
      (void)core::MetricEvaluator(step->time, kMachine.nodes)
          .evaluate(*schedule, config.metric);
    }
    const Span s("analysis.validate");
    (void)validator.validate(step->bestSchedule, step->history, step->time);
  }
}

void checkPinned(Report& report) {
  const auto base = core::fromSwf(
      trace::ctcModel().generate(kPinnedJobs, kPinnedSeed));
  const sim::SimulationReport r =
      simulate(compress(base, kPinnedCompression), 0);
  char observed[256];
  std::snprintf(observed, sizeof(observed),
                "constexpr double kPinnedSlowdown = %.17g;\n"
                "constexpr double kPinnedResponse = %.17g;\n"
                "constexpr std::size_t kPinnedSwitches = %zu;",
                r.avgSlowdown(), r.avgResponseTime(), r.switches.size());
  report.check(r.avgSlowdown() == kPinnedSlowdown &&
                   r.avgResponseTime() == kPinnedResponse &&
                   r.switches.size() == kPinnedSwitches,
               std::string("dynp_sim: pinned trace (seed 44) report differs "
                           "from the reference; observed "
                           "dynp_reference.inc:\n") +
                   observed);
}

}  // namespace

void runDynpSim(const Args& args, Report& report) {
  const auto lintBefore = analysis::modelLintStats().modelsLinted;
  checkPinned(report);

  std::vector<Trace> traces;
  std::vector<double> setupSamples;
  std::vector<double> generateSamples;
  for (int k = 0; k < kTraces; ++k) {
    traces.push_back(
        setUpTrace(args.seed * 1000 + static_cast<std::uint64_t>(k)));
    setupSamples.push_back(traces.back().setupSeconds);
    generateSamples.push_back(traces.back().generateSeconds);
    HostProbe::tick();
  }
  double waiting = 0;
  std::printf("dynp_sim: %d traces x %zu jobs, target mean waiting set %.0f\n",
              kTraces, kTraceJobs, kTargetWaiting);
  for (const Trace& t : traces) {
    std::printf("  mean interarrival %.1f s (x%.4f), mean waiting %.1f, %zu "
                "captured steps, set-up %.3f s\n",
                trace::ctcModel().arrivals.meanInterarrival * t.compression,
                t.compression, t.waitingMean, t.steps.size(), t.setupSeconds);
    waiting += t.waitingMean;
  }
  waiting /= kTraces;

  const std::vector<const sim::StepSnapshot*> replaySet = replaySetOf(traces);
  const std::size_t stepCount = replaySet.size();
  (void)replayPass(replaySet, true, report);
  // A simulator pass and an unchecked replay pass, alternating until
  // --seconds have passed (the traced run makes one of each, its untraced
  // baseline). The simulation rate is taken over all passes and each step's
  // latency is the median of its replays: on a shared host the speed of the
  // same deterministic work drifts in phases of seconds to minutes, and the
  // host probe, run between the passes over the same window, converts
  // whole-window estimates to the reference speed. Alternating exposes both
  // to the whole window.
  const Clock::time_point begin = Clock::now();
  std::vector<SimPass> passes;
  std::vector<std::vector<double>> replays;  ///< per pass, per step
  do {
    passes.push_back(simPass(traces, report));
    replays.push_back(replayPass(replaySet, false, report));
    HostProbe::tick();
  } while (!args.trace && secondsSince(begin) < args.seconds);
  const double untracedSeconds = secondsSince(begin);

  std::vector<double> decisions(stepCount);
  std::vector<double> stepSamples(replays.size());
  for (std::size_t i = 0; i < stepCount; ++i) {
    for (std::size_t r = 0; r < replays.size(); ++r) {
      stepSamples[r] = replays[r][i];
    }
    decisions[i] = median(stepSamples);
  }
  const SimPass& pass = passes.front();
  double passSeconds = 0;
  for (const SimPass& p : passes) passSeconds += p.seconds;
  const double jobsPerSecond =
      static_cast<double>(pass.jobs * passes.size()) / passSeconds;
  const double slowdown = pass.slowdownSum / kTraces;
  const double q = tailQuantile(stepCount);
  std::size_t maxWaiting = 0;
  for (const sim::StepSnapshot* step : replaySet) {
    maxWaiting = std::max(maxWaiting, step->waiting.size());
  }
  std::printf("workload metrics: setup_s %.6f s, sim_jobs_per_s %.1f 1/s (over "
              "%zu passes), decision_us_p50 %.3f us, "
              "decision_us_p%.0f %.3f us (%zu captured steps, waiting sets "
              "of 1-%zu jobs, median of %zu replays)\n",
              median(setupSamples), jobsPerSecond, passes.size(),
              median(decisions) * 1e6, q * 100,
              quantile(decisions, q) * 1e6, stepCount, maxWaiting,
              replays.size());
  std::printf("reports: mean slowdown %.4f, %zu switches, %zu tuning steps, "
              "%zu degraded\n",
              slowdown, pass.switches, pass.tuningSteps, pass.degradedSteps);

  if (!args.trace) {
    report.metric("latency_ms_p50", median(decisions) * 1e3, "ms");
    report.metric("latency_ms_p99", quantile(decisions, q) * 1e3, "ms");
    report.metric("throughput_per_s", jobsPerSecond, "1/s");
    report.metric("slowdown_mean", slowdown, "ratio");
    report.metric("ok_share",
                  1.0 - static_cast<double>(pass.degradedSteps) /
                            static_cast<double>(pass.tuningSteps),
                  "share");
    report.metric("setup_s", median(setupSamples), "s");
    return;
  }

  Tracer::enable(true);
  const Clock::time_point tracedBegin = Clock::now();
  const SimPass traced = simPass(traces, report);
  (void)replayPass(replaySet, false, report);
  const double tracedSeconds = secondsSince(tracedBegin);
  probePass(replaySet);
  Tracer::enable(false);
  report.check(Tracer::write(args.workdir + "/spans-dynp_sim.csv"),
               "cannot write the span log to " + args.workdir);

  const double simSeconds = Tracer::stats("sim.run").totalSeconds;
  std::printf("ratio core.planning_share = core.planning_s %.6f s / "
              "sim.run_s %.6f s\n",
              traced.planningSeconds, simSeconds);
  std::printf("ratio trace.overhead_share = traced pass %.6f s / untraced "
              "pass %.6f s - 1 (probe calls excluded)\n",
              tracedSeconds, untracedSeconds);
  report.metric("trace.generate_s", median(generateSamples), "s");
  report.metric("sim.run_s", simSeconds, "s");
  report.metric("sim.tuning_steps", static_cast<double>(traced.tuningSteps),
                "count");
  report.metric("sim.replans", static_cast<double>(traced.replans), "count");
  report.metric("sim.policy_switches", static_cast<double>(traced.switches),
                "count");
  report.metric("sim.waiting_mean", waiting, "jobs");
  report.metric("core.self_tuning_us_p50",
                median(Tracer::stats("core.self_tuning").durations) * 1e6, "us");
  report.metric("core.plan_us_p50", median(Tracer::stats("core.plan").durations) * 1e6,
                "us");
  report.metric("core.metric_eval_us_p50",
                median(Tracer::stats("core.metric_eval").durations) * 1e6, "us");
  report.metric("core.planning_s", traced.planningSeconds, "s");
  report.metric("core.planning_share", traced.planningSeconds / simSeconds,
                "share");
  report.metric("analysis.validate_s", Tracer::stats("analysis.validate").totalSeconds,
                "s");
  report.metric("analysis.models_linted",
                static_cast<double>(analysis::modelLintStats().modelsLinted -
                                    lintBefore),
                "count");
  report.metric("trace.overhead_share", tracedSeconds / untracedSeconds - 1.0,
                "share");
  report.metric("trace.spans", static_cast<double>(Tracer::count()), "count");
}

}  // namespace perfbench
