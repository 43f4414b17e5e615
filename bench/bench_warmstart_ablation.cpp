// Warm-start / rounding-heuristic ablation (DESIGN.md Section 6).
//
// The study seeds the branch & bound with the best policy schedule (snapped
// to the grid) and uses an LP-guided order-rounding heuristic. This bench
// re-solves the same captured steps with each knob off and reports solve
// time, nodes and quality — quantifying how much of the "CPLEX substitute"
// performance comes from each ingredient.
#include <cstdio>
#include <iostream>

#include "dynsched/lp/model.hpp"
#include "dynsched/sim/simulator.hpp"
#include "dynsched/util/error.hpp"
#include "dynsched/tip/study.hpp"
#include "dynsched/util/flags.hpp"
#include "dynsched/util/strings.hpp"
#include "dynsched/util/table.hpp"
#include "dynsched/util/timer.hpp"

using namespace dynsched;

int main(int argc, char** argv) {
  util::FlagSet flags("bench_warmstart_ablation");
  auto& traceJobs = flags.addInt("trace-jobs", 600, "simulated trace length");
  auto& seed = flags.addInt("seed", 33, "workload seed");
  auto& steps = flags.addInt("steps", 4, "steps to solve per variant");
  auto& timeLimit =
      flags.addDouble("time-limit", 15.0, "B&B time limit per solve [s]");
  if (!flags.parse(argc, argv)) return 0;

  const auto report = sim::simulateCtcTrace(
      static_cast<std::size_t>(traceJobs), static_cast<std::uint64_t>(seed),
      {.minWaiting = 6, .maxWaiting = 16});
  if (report.snapshots.empty()) {
    std::puts("no snapshots captured; increase --trace-jobs");
    return 1;
  }
  std::vector<sim::StepSnapshot> selected;
  for (const std::size_t idx : sim::evenlySpaced(
           report.snapshots.size(), static_cast<std::size_t>(steps))) {
    selected.push_back(report.snapshots[idx]);
  }

  struct Variant {
    const char* name;
    bool warmStart;
    bool rounding;
  };
  const Variant variants[] = {
      {"warm+rounding (default)", true, true},
      {"warm only", true, false},
      {"rounding only", false, true},
      {"cold", false, false},
  };

  util::TextTable table({"variant", "step", "jobs", "quality", "gap",
                         "nodes", "solve", "status"});
  table.setAlign(0, util::TextTable::Align::Left);
  char buf[64];
  for (const Variant& v : variants) {
    double totalSeconds = 0;
    for (const auto& snap : selected) {
      tip::StudyOptions study;
      study.scaling.totalMemoryBytes = 256ULL << 20;
      study.mip.timeLimitSeconds = timeLimit;
      study.warmStart = v.warmStart;
      study.roundingHeuristic = v.rounding;
      tip::StudyRow row;
      try {
        row = tip::runStep(snap, study);
      } catch (const CheckError&) {
        // No incumbent within the limits — the strongest possible ablation
        // signal for the cold variants: report the row and move on.
        totalSeconds += timeLimit;
        table.addRow({v.name, "t=" + util::formatThousands(snap.time),
                      std::to_string(snap.waiting.size()), "-", "-", "-",
                      util::formatDuration(timeLimit), "no-solution"});
        continue;
      }
      totalSeconds += row.solveSeconds;
      std::vector<std::string> cells;
      cells.push_back(v.name);
      cells.push_back("t=" + util::formatThousands(snap.time));
      cells.push_back(std::to_string(row.jobs));
      std::snprintf(buf, sizeof(buf), "%.4f", row.quality);
      cells.push_back(buf);
      if (row.gap >= lp::kInf) {
        cells.emplace_back("-");  // policy fallback: no ILP incumbent
      } else {
        std::snprintf(buf, sizeof(buf), "%.2f%%", row.gap * 100);
        cells.push_back(buf);
      }
      cells.push_back(std::to_string(row.nodes));
      cells.push_back(util::formatDuration(row.solveSeconds));
      cells.push_back(mip::mipStatusName(row.status));
      table.addRow(std::move(cells));
    }
    std::printf("%-26s total solve time %s\n", v.name,
                util::formatDuration(totalSeconds).c_str());
    table.addRule();
  }
  std::cout << '\n' << table.render();
  std::puts(
      "\nexpected shape: the warm start guarantees an incumbent at node 0\n"
      "(quality can only improve on the policy, modulo time-scaling); cold\n"
      "runs need more nodes before the first incumbent and hit the time\n"
      "limit more often on equal budgets.");
  return 0;
}
