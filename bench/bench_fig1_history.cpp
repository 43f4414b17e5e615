// Figure 1 reproduction: the machine-history staircase.
//
// The paper's Figure 1 illustrates the list of (time stamp, free resources)
// tuples a planning-based RMS derives from its running jobs. This bench
// takes a *live* moment out of a CTC-like simulation (the machine history of
// a captured self-tuning step) and prints the tuple list plus the staircase,
// verifying the two Figure 1 properties: time stamps strictly increase and
// free resources increase monotonically.
#include <cstdio>
#include <iostream>

#include "dynsched/sim/simulator.hpp"
#include "dynsched/util/flags.hpp"
#include "dynsched/util/timer.hpp"

using namespace dynsched;

int main(int argc, char** argv) {
  util::FlagSet flags("bench_fig1_history");
  auto& traceJobs = flags.addInt("trace-jobs", 400, "simulated trace length");
  auto& seed = flags.addInt("seed", 11, "workload seed");
  if (!flags.parse(argc, argv)) return 0;

  const auto report = sim::simulateCtcTrace(
      static_cast<std::size_t>(traceJobs), static_cast<std::uint64_t>(seed),
      {.minWaiting = 4});
  if (report.snapshots.empty()) {
    std::puts("no self-tuning step captured; increase --trace-jobs");
    return 1;
  }
  // Pick the step whose history has the most entries (richest staircase).
  const sim::StepSnapshot* snap = &report.snapshots.front();
  for (const auto& s : report.snapshots) {
    if (s.history.entries().size() > snap->history.entries().size()) {
      snap = &s;
    }
  }
  const core::MachineHistory& h = snap->history;
  std::printf("machine history at self-tuning step t=%lld (%zu waiting jobs)\n",
              static_cast<long long>(snap->time), snap->waiting.size());
  std::printf("%-14s %-14s %s\n", "time [sec]", "d+hh:mm:ss", "free resources");
  for (const auto& e : h.entries()) {
    std::printf("%-14lld %-14s %d\n", static_cast<long long>(e.time),
                util::formatSimTime(e.time).c_str(), e.freeNodes);
  }

  // Figure 1 invariants.
  bool monotone = true;
  for (std::size_t i = 1; i < h.entries().size(); ++i) {
    monotone &= h.entries()[i].time > h.entries()[i - 1].time;
    monotone &= h.entries()[i].freeNodes >= h.entries()[i - 1].freeNodes;
  }
  std::printf("\nstaircase invariants (Fig. 1): %s\n",
              monotone && h.valid() ? "OK (monotone, single stamp per time)"
                                    : "VIOLATED");

  // ASCII rendering.
  const Time t0 = h.startTime();
  const Time t1 = h.fullyFreeFrom() + (h.fullyFreeFrom() - t0) / 10 + 1;
  const int width = 72;
  std::puts("\nfree");
  for (int row = 8; row >= 1; --row) {
    const NodeCount level =
        static_cast<NodeCount>(h.machineSize() * row / 8);
    std::string line;
    for (int c = 0; c < width; ++c) {
      const Time t = t0 + (t1 - t0) * c / width;
      line += h.freeAt(t) >= level ? '#' : ' ';
    }
    std::printf("%4d |%s\n", level, line.c_str());
  }
  std::printf("     +%s> time\n", std::string(width, '-').c_str());
  return 0;
}
