// Time-scale sensitivity (paper Section 3.2).
//
// Time-scaling trades memory/solve time against schedule quality: coarser
// grids can make the ILP *lose* to the best basic policy (quality > 1, the
// paper's negative perf-loss rows). This bench fixes a handful of captured
// self-tuning steps and sweeps the forced time scale from fine to coarse,
// reporting quality, model size and solve time per scale — the series
// behind the paper's discussion ("a time scaling of 6 minutes is used, so
// that an even larger improvement might be possible, if a second precise
// scaling is applied").
#include <cstdio>
#include <iostream>

#include "dynsched/sim/simulator.hpp"
#include "dynsched/tip/study.hpp"
#include "dynsched/util/flags.hpp"
#include "dynsched/util/strings.hpp"
#include "dynsched/util/table.hpp"
#include "dynsched/util/timer.hpp"

using namespace dynsched;

int main(int argc, char** argv) {
  util::FlagSet flags("bench_timescale_sweep");
  auto& traceJobs = flags.addInt("trace-jobs", 600, "simulated trace length");
  auto& seed = flags.addInt("seed", 9, "workload seed");
  auto& steps = flags.addInt("steps", 3, "self-tuning steps to sweep");
  auto& timeLimit =
      flags.addDouble("time-limit", 15.0, "B&B time limit per solve [s]");
  if (!flags.parse(argc, argv)) return 0;

  const auto report = sim::simulateCtcTrace(
      static_cast<std::size_t>(traceJobs), static_cast<std::uint64_t>(seed),
      {.minWaiting = 6, .maxWaiting = 14});
  if (report.snapshots.empty()) {
    std::puts("no snapshots captured; increase --trace-jobs");
    return 1;
  }

  const std::vector<Time> scales = {60, 120, 300, 600, 1200, 2400};
  constexpr int kMaxSlots = 700;  // keep the dense-basis LP tractable
  util::TextTable table({"step", "jobs", "scale [s]", "slots", "columns",
                         "quality", "perf. loss", "solve", "status"});
  char buf[64];
  for (const std::size_t idx : sim::evenlySpaced(
           report.snapshots.size(), static_cast<std::size_t>(steps))) {
    const sim::StepSnapshot& snap = report.snapshots[idx];
    for (const Time scale : scales) {
      const Time makespan = snap.maxPolicyMakespan - snap.time;
      if (makespan / scale > kMaxSlots) {
        std::printf("(skipping scale %llds for step t=%lld: %lld slots "
                    "exceed the %d-slot budget)\n",
                    static_cast<long long>(scale),
                    static_cast<long long>(snap.time),
                    static_cast<long long>(makespan / scale), kMaxSlots);
        continue;
      }
      tip::StudyOptions study;
      study.forcedTimeScale = scale;
      study.mip.timeLimitSeconds = timeLimit;
      study.metric = core::MetricKind::SldWA;
      const tip::StudyRow row = tip::runStep(snap, study);
      std::vector<std::string> cells;
      cells.push_back("t=" + util::formatThousands(snap.time));
      cells.push_back(std::to_string(row.jobs));
      cells.push_back(std::to_string(scale));
      cells.push_back(std::to_string(row.lpRows -
                                     static_cast<int>(row.jobs)));
      cells.push_back(std::to_string(row.lpColumns));
      std::snprintf(buf, sizeof(buf), "%.4f", row.quality);
      cells.push_back(buf);
      std::snprintf(buf, sizeof(buf), "%+.2f%%", row.perfLossPct);
      cells.push_back(buf);
      cells.push_back(util::formatDuration(row.solveSeconds));
      cells.push_back(mip::mipStatusName(row.status));
      table.addRow(std::move(cells));
    }
    table.addRule();
  }
  std::cout << table.render();
  std::puts(
      "\nexpected shape: finer scales -> quality <= 1 (ILP at least matches\n"
      "the best policy) at larger models and longer solves; coarse scales\n"
      "-> occasional quality > 1 (negative loss), the paper's time-scaling\n"
      "artifact. Compaction keeps the degradation mild.");
  return 0;
}
