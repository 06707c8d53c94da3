//===-- perfbench/src/Report.h - Metric table and result line ---*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one table of metric names and units (BENCHMARK.json must list the
/// same names; test_bench.py checks it), and the result object that
/// refuses unlisted names and prints the final JSON line only when every
/// metric of the run's mode was set.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char *Name;
  const char *Unit;
  const char *Better; ///< "lower" | "higher"
  bool PerLayer;      ///< emitted by the traced run (--trace 1)
};

inline const std::vector<MetricDef> &metricTable() {
  static const std::vector<MetricDef> Table = {
      // End to end (untraced runs).
      {"step_cpu_nsps_p50", "ns", "lower", false},
      {"step_cpu_nsps_p95", "ns", "lower", false},
      {"energy_drift", "ratio", "lower", false},
      {"setup_s", "s", "lower", false},
      // Stage composition.
      {"pic.gather.ns_per_particle", "ns", "lower", true},
      {"core.push.ns_per_particle", "ns", "lower", true},
      {"pic.wrap.ns_per_particle", "ns", "lower", true},
      {"pic.deposit.ns_per_particle", "ns", "lower", true},
      {"pic.deposit.launches_per_step", "count", "lower", true},
      {"pic.deposit.scaling", "ratio", "higher", true},
      {"pic.field.ns_per_cell", "ns", "lower", true},
      {"pic.sort.ns_per_particle", "ns", "lower", true},
      {"pic.step.unattributed_ns", "ns", "lower", true},
      {"pic.step.wall_nsps_p50", "ns", "lower", true},
      // Window costs.
      {"pic.window.shift_step_ns_p50", "ns", "lower", true},
      {"pic.window.plain_step_ns_p50", "ns", "lower", true},
      {"fields.shift.ns_per_plane", "ns", "lower", true},
      {"core.retire.ns_per_particle", "ns", "lower", true},
      {"exec.graph.captures", "count", "lower", true},
      // Execution layers.
      {"exec.launch_ns.serial", "ns", "lower", true},
      {"exec.launch_ns.openmp", "ns", "lower", true},
      {"exec.launch_ns.dpcpp", "ns", "lower", true},
      {"exec.launch_ns.sharded", "ns", "lower", true},
      {"exec.launches_per_step", "count", "lower", true},
      {"exec.submit_ns_per_step", "ns", "lower", true},
      {"minisycl.push.dpcpp_over_openmp", "ratio", "lower", true},
      // Serving and checkpoints.
      {"core.checkpoint.save_ns", "ns", "lower", true},
      {"core.checkpoint.restore_ns", "ns", "lower", true},
      {"core.checkpoint.bytes", "bytes", "lower", true},
      {"serve.quanta", "count", "lower", true},
      {"serve.fused_rounds", "count", "higher", true},
      {"serve.lane_busy_fraction", "ratio", "higher", true},
      {"serve.lane_busy_imbalance", "ratio", "lower", true},
      // Tracing itself.
      {"trace.overhead_ratio", "ratio", "lower", true},
  };
  return Table;
}

inline const MetricDef *findMetric(const std::string &Name) {
  for (const MetricDef &M : metricTable())
    if (Name == M.Name)
      return &M;
  return nullptr;
}

/// The workload names, in BENCHMARK.json order.
inline const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"langmuir-dense",
                                                 "window-sparse"};
  return Names;
}

/// One run's outcome: the correctness counters plus the metrics of the
/// run's mode.
class RunResult {
public:
  explicit RunResult(bool Traced) : Traced(Traced) {}

  /// Sets metric \p Name and prints it as a human-readable line with
  /// \p Note (sample counts, definitions). An unlisted name, or one of
  /// the other mode, is a program error and aborts the run.
  void set(const std::string &Name, double Value,
           const std::string &Note = "") {
    const MetricDef *M = findMetric(Name);
    if (!M || M->PerLayer != Traced) {
      std::fprintf(stderr, "perfbench: metric '%s' is not a %s metric\n",
                   Name.c_str(), Traced ? "per-layer" : "end-to-end");
      std::exit(2);
    }
    Values[Name] = Value;
    std::printf("  %-34s %14.6g %-6s %s\n", Name.c_str(), Value, M->Unit,
                Note.c_str());
  }

  long long Attempted = 0;
  long long Failed = 0;
  bool Correct = true;

  /// Names of this mode's metrics that were not set.
  std::vector<std::string> missing() const {
    std::vector<std::string> Out;
    for (const MetricDef &M : metricTable())
      if (M.PerLayer == Traced && !Values.count(M.Name))
        Out.push_back(M.Name);
    return Out;
  }

  /// Prints the final result line. \returns false (printing nothing) if
  /// a metric of the mode is missing.
  bool printJson() const {
    const std::vector<std::string> Missing = missing();
    for (const std::string &Name : Missing)
      std::fprintf(stderr, "perfbench: metric '%s' was not measured\n",
                   Name.c_str());
    bool Finite = true;
    for (const auto &KV : Values)
      if (!std::isfinite(KV.second)) {
        std::fprintf(stderr, "perfbench: metric '%s' is not finite\n",
                     KV.first.c_str());
        Finite = false;
      }
    if (!Missing.empty() || !Finite || Attempted < 1)
      return false;
    std::string Out = "{\"correct\": ";
    Out += Correct ? "true" : "false";
    Out += ", \"attempted\": " + std::to_string(Attempted);
    Out += ", \"failed\": " + std::to_string(Failed);
    Out += ", \"metrics\": {";
    bool First = true;
    for (const MetricDef &M : metricTable()) {
      if (M.PerLayer != Traced)
        continue;
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    First ? "" : ", ", M.Name, Values.at(M.Name), M.Unit);
      Out += Buf;
      First = false;
    }
    Out += "}}";
    std::printf("%s\n", Out.c_str());
    std::fflush(stdout);
    return true;
  }

private:
  bool Traced;
  std::map<std::string, double> Values;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
