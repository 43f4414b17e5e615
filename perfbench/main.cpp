// dynbench: the dynsched benchmark harness (one process per run).
//
//   dynbench --workload ilp_study|dynp_sim|serve_mix --seed N --seconds S
//            --trace 0|1 [--workdir DIR]
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end metrics (the same names for every workload, see
// kEndToEnd), their timings converted to the host probe's reference speed
// (see HostProbe); with --trace 1 they are the per-layer metrics of the
// traced run as measured, with 0 for layers the workload does not exercise.
// Exits 1 when a correctness check failed, 2 on bad arguments.
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

namespace {

/// End-to-end metrics every workload reports (name, unit).
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"latency_ms_p50", "ms"},   {"latency_ms_p99", "ms"},
    {"throughput_per_s", "1/s"}, {"slowdown_mean", "ratio"},
    {"ok_share", "share"},      {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

}  // namespace

const std::vector<std::pair<std::string, std::string>>& perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kPerLayer = {
      // trace
      {"trace.generate_s", "s"},
      // sim
      {"sim.run_s", "s"},
      {"sim.tuning_steps", "count"},
      {"sim.replans", "count"},
      {"sim.policy_switches", "count"},
      {"sim.waiting_mean", "jobs"},
      // core
      {"core.self_tuning_us_p50", "us"},
      {"core.plan_us_p50", "us"},
      {"core.metric_eval_us_p50", "us"},
      {"core.planning_s", "s"},
      {"core.planning_share", "share"},
      // tip
      {"tip.make_instance_s", "s"},
      {"tip.build_model_s", "s"},
      {"tip.model_rows", "count"},
      {"tip.model_cols", "count"},
      {"tip.compact_s", "s"},
      {"tip.step_self_s", "s"},
      {"tip.rung_optimal", "count"},
      {"tip.rung_incumbent_gap", "count"},
      {"tip.rung_coarsened_retry", "count"},
      {"tip.rung_policy_fallback", "count"},
      {"tip.order_bnb_s", "s"},
      {"tip.order_bnb_nodes", "count"},
      {"tip.exact_proven_share", "share"},
      // mip
      {"mip.solve_s", "s"},
      {"mip.solve_self_s", "s"},
      {"mip.solve_share", "share"},
      {"mip.nodes", "count"},
      {"mip.lp_iterations", "count"},
      {"mip.iterations_per_node", "count"},
      {"mip.gap", "share"},
      {"mip.heuristic_calls", "count"},
      {"mip.heuristic_hits", "count"},
      {"mip.heuristic_s", "s"},
      // lp
      {"lp.root_solve_s", "s"},
      {"lp.root_iterations", "count"},
      {"lp.root_refactorizations", "count"},
      {"lp.us_per_iteration", "us"},
      {"lp.cold_ratio", "ratio"},
      // analysis
      {"analysis.lint_s", "s"},
      {"analysis.validate_s", "s"},
      {"analysis.models_linted", "count"},
      // serve
      {"serve.hit_ms_p50", "ms"},
      {"serve.hit_ms_p99", "ms"},
      {"serve.fail_share", "share"},
      {"serve.solve_ms_p50", "ms"},
      {"serve.solve_ms_p99", "ms"},
      {"serve.overhead_ms_p50", "ms"},
      {"serve.handle_ms_p50", "ms"},
      {"serve.transport_ms_p50", "ms"},
      {"serve.codec_us", "us"},
      {"serve.hit_ratio", "share"},
      {"serve.solves_per_unique", "ratio"},
      {"serve.shed_attempts", "count"},
      {"serve.generator_late_ms_p99", "ms"},
      // util
      {"util.journal_append_us", "us"},
      // the harness itself
      {"host.probe_ms", "ms"},
      {"trace.overhead_share", "share"},
      {"trace.spans", "count"},
  };
  return kPerLayer;
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "dynbench: %s\nusage: dynbench --workload "
               "ilp_study|dynp_sim|serve_mix --seed N --seconds S --trace "
               "0|1 [--workdir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (key == "--workdir") {
        args.workdir = value;
      } else {
        return usage(("unknown argument " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  if (args.seconds <= 0) return usage("--seconds must be positive");

  Report measured;
  try {
    if (args.workload == "ilp_study") {
      runIlpStudy(args, measured);
    } else if (args.workload == "dynp_sim") {
      runDynpSim(args, measured);
    } else if (args.workload == "serve_mix") {
      runServeMix(args, measured);
    } else {
      return usage(("unknown workload '" + args.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dynbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  // Emit exactly the metric set BENCHMARK.json declares, in a fixed order.
  HostProbe::sample();  // a probe time even for a run too short to tick
  if (args.trace) {
    measured.metric("host.probe_ms", HostProbe::medianSeconds() * 1e3, "ms");
  } else {
    measured.metric("peak_rss_mb", peakRssMb(), "MB");
  }
  measured.select(args.trace ? perLayerMetrics() : kEndToEnd,
                  /*missingIsZero=*/args.trace);
  std::cout << "\n" << args.workload << " (seed " << args.seed << ", "
            << (args.trace ? "traced" : "untraced") << ")\n";
  std::printf("host probe: median %.4f ms over %zu runs, reference %.4f ms, "
              "factor %.4f\n",
              HostProbe::medianSeconds() * 1e3, HostProbe::samples(),
              HostProbe::kReferenceSeconds * 1e3, HostProbe::factor());
  if (!args.trace) {
    std::cout << "as measured:\n" << measured.table();
    measured.normalizeTimes(HostProbe::factor());
    std::cout << "at the reference speed (reported):\n";
  }
  std::cout << measured.table() << measured.json() << std::endl;
  return measured.correct() ? 0 : 1;
}
