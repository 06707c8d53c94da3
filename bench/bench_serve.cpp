//===-- bench/bench_serve.cpp - Serving-layer throughput/latency ---------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Throughput and latency of the multi-tenant serving layer: the
/// deterministic synthetic job mix (serve/JobSpec.h) scheduled over one
/// shared backend pool, measured end to end (queueing, lane leasing,
/// cross-job fused rounds, completion). Two record families per
/// configuration:
///
///   * stage "serve"   — whole-mix wall time per iteration; the record's
///     particles field carries the mix's TOTAL particle-steps (steps =
///     1), so the trend gate's min_ns / (particles * steps) IS the
///     serving layer's NSPS — directly comparable across runs.
///   * stage "latency" — per-job enqueue-to-completion latencies of the
///     last iteration as the iteration series (median_ns = p50); p95 is
///     printed alongside.
///
/// Configurations sweep the worker count x batching axis (1 worker
/// unbatched, 2 workers unbatched, 2 workers batch=2) over the same
/// mix; every job's final hash is checked against a standalone serial
/// run on the first iteration (the serve bit-identity gate — the bench
/// fails on any mismatch). Sizes: HICHI_BENCH_JOBS (default 24),
/// HICHI_BENCH_ITERATIONS (default 3); HICHI_BENCH_JSON writes
/// hichi-bench-v1 records for tools/bench_trend.py.
///
//===----------------------------------------------------------------------===//

#include "BenchmarkHarness.h"

#include "serve/Scheduler.h"

#include <algorithm>
#include <map>

using namespace hichi;
using namespace hichi::bench;
using namespace hichi::serve;

namespace {

struct ServeConfigPoint {
  const char *Label;
  int Workers;
  int BatchMax;
};

struct MixResult {
  MeasuredSeries Wall;          ///< whole-mix wall per iteration
  std::vector<double> Latencies;///< per-job latency ns (last iteration)
  long long FusedRounds = 0;
  bool HashesOk = true;
};

/// Runs the whole mix Iterations + 1 times (first = warmup + hash gate)
/// over a fresh pool per configuration.
MixResult measureMix(const std::vector<JobSpec> &Specs,
                     const ServeConfigPoint &Point, int Iterations,
                     const std::map<std::string, std::uint64_t> &Reference) {
  BackendPool Pool(/*TotalLanes=*/8, /*LanesPerJob=*/2);
  MixResult Out;
  for (int It = 0; It <= Iterations; ++It) {
    ServeConfig Config;
    Config.Workers = Point.Workers;
    Config.BatchMax = Point.BatchMax;
    Scheduler Sched(Pool, Config);
    for (const JobSpec &Spec : Specs)
      Sched.enqueue(Spec);
    Stopwatch Watch;
    Sched.run();
    const double WallNs = double(Watch.elapsedNanoseconds());
    Out.Latencies.clear();
    for (const JobResult &R : Sched.results()) {
      if (R.State != JobState::Completed) {
        Out.HashesOk = false; // a failed/stuck job is as bad as a bad hash
        continue;
      }
      Out.Latencies.push_back(R.LatencyNs);
      if (It == 0 && Reference.at(R.Name) != R.Hash)
        Out.HashesOk = false;
    }
    if (It == 0)
      continue; // warmup: pool lanes spun up, pages first-touched
    Out.Wall.IterationNs.push_back(WallNs);
    Out.FusedRounds = Sched.fusedRounds();
  }
  return Out;
}

} // namespace

int main() {
  const int Jobs = int(getEnvInt("HICHI_BENCH_JOBS").value_or(24));
  const int Iterations =
      int(getEnvInt("HICHI_BENCH_ITERATIONS").value_or(3));
  const std::vector<JobSpec> Specs = syntheticJobMix(Jobs, /*Tenants=*/2);

  long long ParticleSteps = 0;
  for (const JobSpec &Spec : Specs)
    ParticleSteps +=
        (long long)(Spec.Nx) * Spec.Ny * Spec.Nz * Spec.PerCell * Spec.Steps;

  std::printf("serving-layer throughput: %d synthetic jobs (2 tenants, "
              "%lld total particle-steps), %d measured iterations per "
              "configuration, pool of 8 lanes x 2 per job\n\n",
              Jobs, ParticleSteps, Iterations);

  // Standalone serial references once — the bit-identity gate every
  // configuration's first iteration is checked against.
  std::map<std::string, std::uint64_t> Reference;
  for (const JobSpec &Spec : Specs)
    Reference[Spec.Name] = runStandalone(Spec);

  const ServeConfigPoint Points[] = {
      {"1w-unbatched", 1, 1},
      {"2w-unbatched", 2, 1},
      {"2w-batch2", 2, 2},
  };

  JsonReport Report("bench_serve");
  std::printf("%-14s %10s %9s %10s %10s %7s %6s\n", "config", "wall ms",
              "jobs/s", "p50 ms", "p95 ms", "fused", "hash");
  printRule(72);

  bool AllOk = true;
  for (const ServeConfigPoint &Point : Points) {
    MixResult R = measureMix(Specs, Point, Iterations, Reference);
    AllOk = AllOk && R.HashesOk;

    const double WallNs = R.Wall.medianNs();
    const double JobsPerSec = WallNs > 0 ? double(Jobs) / (WallNs / 1e9) : 0;
    std::sort(R.Latencies.begin(), R.Latencies.end());
    const double P50 = percentile(R.Latencies, 0.50);
    const double P95 = percentile(R.Latencies, 0.95);
    std::printf("%-14s %10.2f %9.1f %10.2f %10.2f %7lld %6s\n", Point.Label,
                WallNs / 1e6, JobsPerSec, P50 / 1e6, P95 / 1e6,
                R.FusedRounds, R.HashesOk ? "OK" : "FAIL");

    // Throughput record: particles = the mix's total particle-steps and
    // steps = 1, so the gate's min_ns/(particles*steps) is serve NSPS.
    BenchRecord Serve;
    Serve.Backend = "pool";
    Serve.Stage = "serve";
    Serve.Scenario = std::string("mix-") + Point.Label;
    Serve.Layout = "aos";
    Serve.Precision = "double";
    Serve.Particles = ParticleSteps;
    Serve.Steps = 1;
    Serve.Iterations = Iterations;
    Serve.Threads = Point.Workers;
    Serve.Submit = Point.BatchMax > 1 ? "fused-rounds" : "per-job";
    MeasuredSeries WallSeries = R.Wall;
    WallSeries.Nsps =
        ParticleSteps > 0 ? WallNs / double(ParticleSteps) : 0;
    Serve.setSeries(WallSeries);
    Report.add(Serve);

    // Latency record: the per-job latency distribution is the iteration
    // series, normalized per particle-step of the average job.
    BenchRecord Latency = Serve;
    Latency.Stage = "latency";
    Latency.Particles = ParticleSteps / std::max<long long>(Jobs, 1);
    MeasuredSeries LatencySeries;
    LatencySeries.IterationNs = R.Latencies;
    LatencySeries.Nsps =
        Latency.Particles > 0 ? P50 / double(Latency.Particles) : 0;
    Latency.setSeries(LatencySeries);
    Report.add(Latency);
  }

  std::printf("\nserve bit-identity: %s (every served job's final hash vs "
              "its standalone serial run)\n",
              AllOk ? "OK" : "FAIL");
  Report.writeEnvRequested();
  return AllOk ? 0 : 1;
}
