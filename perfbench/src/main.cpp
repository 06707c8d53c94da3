//===-- perfbench/src/main.cpp - The seeded end-to-end benchmark ----------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench: one command for the PIC step, and a traced run per layer.
///
/// \code
///   perfbench --workload langmuir-dense --seed 1 --seconds 20 --trace 0
///   perfbench --workload window-sparse --seed 7 --seconds 20 --trace 1
///   perfbench --list-metrics
/// \endcode
///
/// --trace 0 measures the end-to-end metrics with no tracing; --trace 1
/// is the separate traced run that gives the per-layer metrics. Either
/// way the last stdout line is one JSON object with the keys correct,
/// attempted, failed and metrics. Exit code 0 on a complete result, 1 on
/// bad arguments, 2 when a metric could not be produced.
///
/// The end-to-end times are process CPU time, not wall time: on a shared
/// host, CPU stolen by neighbouring guests moves wall time by far more
/// than any bound a regression check could use (see README.md). Wall
/// times are printed beside them.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Stats.h"
#include "Workloads.h"

#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

using namespace hichi;
using namespace perfbench;

namespace {

/// Construction + seeding + warm-up is repeated this often; setup_s is
/// the median.
constexpr int SetupRepeats = 3;

/// Warm-up steps before the first timed step. They are also the
/// verification prefix the correctness gate replays on "serial".
constexpr int PrefixSteps = 12;

/// energy_drift covers exactly this many timed steps, sampling the total
/// energy every DriftEvery steps, so it is a deterministic function of
/// the inputs.
constexpr int DriftSteps = 200;
constexpr int DriftEvery = 10;

/// Per-step samples a PIC run needs at least: ten beyond p95.
const std::size_t MinStepSamples = samplesForPercentile(0.95);

std::string percentileNote(std::size_t N, double Q) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "(n=%zu, %zu beyond; tail up to p%g)", N,
                samplesBeyond(N, Q), 100 * highestSupportedPercentile(N));
  return Buf;
}

/// CPU and wall seconds of each setup repetition, and the simulation of
/// the last.
struct PicSetup {
  std::vector<double> CpuSeconds, WallSeconds;
  std::unique_ptr<Simulation> Sim;
};

PicSetup setUpPic(const PicInputs &In) {
  PicSetup Out;
  for (int R = 0; R < SetupRepeats; ++R) {
    Out.Sim.reset(); // tear-down is not set-up
    const double Cpu0 = processCpuNs();
    Stopwatch Watch;
    Out.Sim = buildSimulation(In);
    Out.Sim->run(PrefixSteps);
    Out.WallSeconds.push_back(Watch.elapsedSeconds());
    Out.CpuSeconds.push_back((processCpuNs() - Cpu0) / 1e9);
  }
  return Out;
}

void runPicWorkload(const BenchArgs &Args, RunResult &Result) {
  const PicInputs In = Args.Workload == "langmuir-dense"
                           ? makeLangmuirDense(Args.Seed, Args.Threads)
                           : makeWindowSparse(Args.Seed, Args.Threads);
  std::printf("%s: %zu particles on %lldx%lldx%lld, stages on %s x%d%s\n",
              In.Workload.c_str(), In.Particles.size(), (long long)In.Grid.Nx,
              (long long)In.Grid.Ny, (long long)In.Grid.Nz,
              In.Backend.c_str(), In.Threads,
              In.Options.UseStepGraph ? " (step-graph replay)" : "");

  PicSetup Setup = setUpPic(In);
  Simulation &Sim = *Setup.Sim;
  const std::uint64_t PrefixHash = stateHash(Sim);
  const double E0 = totalEnergy(Sim);

  // The timed region: one sample per step() call, in process CPU time
  // and in wall time.
  std::vector<double> WallNs, CpuNsps, WallNsps;
  double Drift = 0;
  bool Finite = std::isfinite(E0);
  Stopwatch Total;
  while (WallNs.size() < MinStepSamples ||
         Total.elapsedSeconds() < Args.Seconds) {
    const double Live = double(Sim.particles().size());
    const double Cpu0 = processCpuNs();
    Stopwatch Watch;
    Sim.step();
    const double Ns = double(Watch.elapsedNanoseconds());
    CpuNsps.push_back((processCpuNs() - Cpu0) / Live);
    WallNs.push_back(Ns);
    WallNsps.push_back(Ns / Live);
    if (WallNs.size() <= std::size_t(DriftSteps) &&
        WallNs.size() % DriftEvery == 0) {
      const double E = totalEnergy(Sim); // between timed steps
      Finite = Finite && std::isfinite(E);
      Drift = std::max(Drift, std::fabs(E - E0) / std::fabs(E0));
    }
  }
  Finite = Finite && std::isfinite(totalEnergy(Sim));

  // Correctness gate, outside the timed region: the verification prefix
  // must hash like the all-serial run of the same inputs, and energies
  // must stay finite.
  std::unique_ptr<Simulation> Ref = buildSimulation(serialReference(In));
  Ref->run(PrefixSteps);
  const std::uint64_t RefHash = stateHash(*Ref);
  const bool HashOk = RefHash == PrefixHash;
  std::printf("verification: prefix hash %016llx, serial %016llx (%s); "
              "energies %s\n",
              (unsigned long long)PrefixHash, (unsigned long long)RefHash,
              HashOk ? "match" : "MISMATCH", Finite ? "finite" : "NOT FINITE");
  Result.Attempted = (long long)WallNs.size();
  Result.Correct = HashOk && Finite;
  Result.Failed = Result.Correct ? 0 : Result.Attempted;

  double SumNs = 0;
  for (double Ns : WallNs)
    SumNs += Ns;
  const std::size_t N = WallNs.size();
  std::printf("%zu timed steps, %.2f s stepping (%.2f steps/s); wall time "
              "per particle-step p50 %.1f ns, p95 %.1f ns\n",
              N, SumNs / 1e9, double(N) / (SumNs / 1e9),
              percentileOf(WallNsps, 0.50), percentileOf(WallNsps, 0.95));
  Result.set("step_cpu_nsps_p50", percentileOf(CpuNsps, 0.50),
             percentileNote(N, 0.50));
  Result.set("step_cpu_nsps_p95", percentileOf(CpuNsps, 0.95),
             percentileNote(N, 0.95));
  Result.set("energy_drift", Drift,
             "(max |E/E0 - 1| over the first " + std::to_string(DriftSteps) +
                 " timed steps)");
  Result.set("setup_s", medianOf(Setup.CpuSeconds),
             "(CPU; median of " + std::to_string(SetupRepeats) +
                 "; wall " + std::to_string(medianOf(Setup.WallSeconds)) +
                 " s)");
}

void printMetricTable() {
  std::printf("{\"workloads\": [");
  for (std::size_t I = 0; I < workloadNames().size(); ++I)
    std::printf("%s\"%s\"", I ? ", " : "", workloadNames()[I].c_str());
  std::printf("], \"metrics\": [");
  bool First = true;
  for (const MetricDef &M : metricTable()) {
    std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", "
                "\"per_layer\": %s}",
                First ? "" : ", ", M.Name, M.Unit, M.Better,
                M.PerLayer ? "true" : "false");
    First = false;
  }
  std::printf("]}\n");
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<langmuir-dense|window-sparse> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n"
               "       perfbench --list-metrics\n",
               Why);
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs Args;
  Args.Threads = int(std::max(1u, std::thread::hardware_concurrency()));
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (Flag == "--list-metrics") {
      printMetricTable();
      return 0;
    }
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    const std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      Args.Workload = Value;
    } else if (Flag == "--seed") {
      Args.Seed = std::strtoull(Value.c_str(), &End, 10);
    } else if (Flag == "--seconds") {
      Args.Seconds = std::strtod(Value.c_str(), &End);
    } else if (Flag == "--trace") {
      Args.Trace = Value == "1";
      if (Value != "0" && Value != "1")
        return usage("--trace takes 0 or 1");
    } else if (Flag == "--work-dir") {
      Args.WorkDir = Value;
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
    if (End && *End)
      return usage(("bad number for " + Flag).c_str());
  }
  if (std::find(workloadNames().begin(), workloadNames().end(),
                Args.Workload) == workloadNames().end())
    return usage("unknown or missing --workload");
  if (!(Args.Seconds > 0))
    return usage("--seconds must be positive");

  std::filesystem::create_directories(Args.WorkDir);
  std::printf("perfbench: workload %s, seed %llu, %g s, trace %d, %d "
              "threads\n",
              Args.Workload.c_str(), (unsigned long long)Args.Seed,
              Args.Seconds, Args.Trace ? 1 : 0, Args.Threads);
  RunResult Result(Args.Trace);
  if (Args.Trace)
    runTraced(Args, Result);
  else
    runPicWorkload(Args, Result);
  return Result.printJson() ? 0 : 2;
}
