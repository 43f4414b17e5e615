// One quasi-offline self-tuning step, solved to optimality.
//
// Reproduces the paper's core experiment on a single instance: a fixed
// waiting set and a machine history are scheduled by FCFS/SJF/LJF, then the
// time-indexed ILP (Section 3.1) is solved with Eq. 6 time-scaling by the
// built-in branch & bound, compacted back to second precision, and compared:
// quality(p, m) = perf(ILP, m) / perf(p, m).
#include <cstdio>
#include <iostream>

#include "dynsched/analysis/audit.hpp"
#include "dynsched/lp/model.hpp"
#include "dynsched/lp/mps_writer.hpp"
#include "dynsched/sim/simulator.hpp"
#include "dynsched/tip/study.hpp"
#include "dynsched/tip/tim_model.hpp"
#include "dynsched/tip/time_scaling.hpp"
#include "dynsched/trace/synthetic.hpp"
#include "dynsched/util/flags.hpp"
#include "dynsched/util/strings.hpp"
#include "dynsched/util/table.hpp"
#include "dynsched/util/timer.hpp"

using namespace dynsched;

int main(int argc, char** argv) {
  util::FlagSet flags("optimal_vs_policy");
  auto& jobs = flags.addInt("jobs", 10, "waiting jobs in the step");
  auto& seed = flags.addInt("seed", 7, "instance seed");
  auto& machineSize = flags.addInt("machine", 64, "machine size");
  auto& memory = flags.addString("memory", "64M",
                                 "memory budget for Eq. 6 (e.g. 8G)");
  auto& mpsPath = flags.addString(
      "mps", "", "export the time-indexed ILP as MPS for external solvers");
  auto& journalPath = flags.addString(
      "journal", "", "crash-safe run journal path (empty = in-memory only)");
  auto& resume = flags.addBool(
      "resume", false, "replay a finished solve from --journal if present");
  if (!flags.parse(argc, argv)) return 0;
  if (resume && journalPath.empty()) {
    std::fprintf(stderr, "--resume requires --journal PATH\n");
    return 2;
  }

  // Synthesize the waiting set from the CTC-like class mixture, scaled to
  // the machine, plus a machine history from "running" jobs.
  trace::SyntheticModel model = trace::ctcModel();
  model.machineSize = static_cast<NodeCount>(machineSize);
  for (auto& cls : model.classes) {
    cls.widthHi = std::min<NodeCount>(cls.widthHi, model.machineSize);
    cls.widthLo = std::min(cls.widthLo, cls.widthHi);
    cls.runtimeHi = std::min(cls.runtimeHi, 4.0 * 3600);
  }
  const auto swf = model.generate(static_cast<std::size_t>(jobs),
                                  static_cast<std::uint64_t>(seed));
  std::vector<core::Job> waiting = core::fromSwf(swf);
  const Time now = waiting.back().submit;
  for (auto& j : waiting) j.submit = std::min(j.submit, now);

  const core::Machine machine{model.machineSize};
  const auto history = core::MachineHistory::fromRunningJobs(
      machine, now,
      {{9001, machine.nodes / 3, now + 1800},
       {9002, machine.nodes / 4, now + 5400}});

  // Policy schedules and the per-policy metric values (a self-tuning step).
  const core::MetricEvaluator evaluator(now, machine.nodes);
  Time maxMakespan = now;
  core::Schedule best;
  core::PolicyValues values{};
  core::PolicyKind bestPolicy = core::PolicyKind::Fcfs;
  double bestValue = 0;
  std::cout << "Self-tuning step at t=" << now << " with " << waiting.size()
            << " waiting jobs on " << machine.nodes << " nodes\n\n";
  for (const core::PolicyKind policy : core::kAllPolicies) {
    const core::Schedule s = core::planSchedule(history, waiting, policy, now);
    const double sld = evaluator.evaluate(s, core::MetricKind::SldWA);
    const double art = evaluator.evaluate(s, core::MetricKind::ArtWW);
    maxMakespan = std::max(maxMakespan, s.makespan(now));
    values.push_back(sld);
    std::printf("%-5s SLDwA=%8.3f ARTwW=%9.1f makespan=%lld s\n",
                core::policyName(policy), sld, art,
                static_cast<long long>(s.makespan(now) - now));
    if (best.empty() || sld < bestValue) {
      best = s;
      bestValue = sld;
      bestPolicy = policy;
    }
  }

  // The ILP with Eq. 6 time-scaling.
  tip::TipInstance instance;
  instance.history = history;
  instance.jobs = waiting;
  instance.now = now;
  instance.horizon = maxMakespan;
  tip::TimeScalingParams scaling;
  scaling.totalMemoryBytes = util::parseMemorySize(memory).value_or(64 << 20);
  Time accRuntime = 0;
  for (const auto& j : waiting) accRuntime += j.estimate;
  instance.timeScale = tip::computeTimeScale(maxMakespan - now, accRuntime,
                                             waiting.size(), scaling);
  std::cout << "\nEq. 6: makespan=" << maxMakespan - now << "s accRuntime="
            << accRuntime << "s budget=" << memory << " -> time scale "
            << instance.timeScale << "s\n";

  const tip::Grid grid = tip::makeGrid(instance);
  tip::TipModel tim = tip::buildModel(instance, grid);
  std::cout << "Time-indexed ILP: " << tim.mip.lp.numVariables()
            << " binaries, " << tim.mip.lp.numRows() << " rows, "
            << tim.mip.lp.numNonZeros() << " non-zeros ("
            << util::formatMemorySize(tim.mip.lp.memoryBytes()) << ")\n";

  if (!mpsPath.empty()) {
    lp::MpsOptions mpsOptions;
    mpsOptions.problemName = "TIMSCHED";
    mpsOptions.integerColumns = tim.mip.integer;
    lp::writeMpsFile(tim.mip.lp, mpsPath, mpsOptions);
    std::cout << "wrote MPS instance to " << mpsPath
              << " (verify with any external MIP solver)\n";
  }

  // The supervised solve, routed through the (optionally journaled) study
  // pipeline so an interrupted run can be resumed exactly: pack this step
  // into a StepSnapshot and run a one-row study on it.
  sim::StepSnapshot snapshot;
  snapshot.time = now;
  snapshot.history = history;
  snapshot.waiting = waiting;
  snapshot.values = values;
  snapshot.bestPolicy = bestPolicy;
  snapshot.bestValue = bestValue;
  snapshot.maxPolicyMakespan = maxMakespan;
  snapshot.bestSchedule = best;

  tip::StudyOptions study;
  study.scaling = scaling;
  study.mip.timeLimitSeconds = 120;
  study.metric = core::MetricKind::SldWA;
  study.journal.path = journalPath;
  study.journal.resume = resume;
  util::WallTimer timer;
  tip::StudyResumeInfo resumeInfo;
  std::vector<tip::StudyRow> rows;
  try {
    rows = tip::runStudy({snapshot}, study, 1, &resumeInfo);
  } catch (const analysis::AuditError& e) {
    std::fprintf(stderr, "journal error: %s\n", e.what());
    return 3;
  }
  if (!journalPath.empty()) {
    std::printf("journal '%s': %zu rows replayed, %zu solved this run\n",
                journalPath.c_str(), resumeInfo.replayedRows,
                resumeInfo.solvedRows);
    if (resumeInfo.tailDropped) {
      std::printf("journal warning: %s\n", resumeInfo.tailWarning.c_str());
    }
  }
  if (resumeInfo.interrupted || rows.empty()) {
    std::fprintf(stderr,
                 "interrupted before the step finished; re-run with "
                 "--journal %s --resume to continue\n",
                 journalPath.c_str());
    return 130;  // 128 + SIGINT, the conventional interrupted exit
  }
  const tip::StudyRow& row = rows.front();
  char gap[32] = "-";  // policy fallback: no ILP incumbent, no gap
  if (row.gap < lp::kInf) {
    std::snprintf(gap, sizeof(gap), "%.2f%%", row.gap * 100);
  }
  std::printf("B&B: %s [%s] in %s, %ld nodes, gap %s\n\n",
              mip::mipStatusName(row.status), row.provenance.c_str(),
              util::formatDuration(timer.elapsedSeconds()).c_str(), row.nodes,
              gap);

  std::printf("ILP (compacted) SLDwA=%.3f vs best policy %s SLDwA=%.3f\n",
              row.ilpValue, core::policyName(row.bestPolicy), row.policyValue);
  std::printf("quality(%s, SLDwA) = %.4f -> performance loss %.2f%%\n",
              core::policyName(row.bestPolicy), row.quality, row.perfLossPct);
  if (row.quality > 1) {
    std::cout << "(quality > 1: the policy beat the time-scaled ILP — the "
                 "paper's Section 3.2 effect)\n";
  }
  return 0;
}
