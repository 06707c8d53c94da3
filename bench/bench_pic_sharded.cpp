//===-- bench/bench_pic_sharded.cpp - Sharded-backend PIC scaling --------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shard-count scaling of the full PIC step on the sharded execution
/// backend: all three heavy stages (push, deposit, field solve) run on
/// "sharded" with K persistent shards, against the all-serial loop as
/// baseline. The measured metric is the whole-step wall time (the shard
/// layer spans every stage, so a per-stage cut would hide the
/// cross-stage routing it exists for); per-shard occupancy/imbalance
/// come from PicSimulation::shardStats(). Every configuration's final
/// state hash is checked for bitwise equality with the serial baseline
/// (the shard determinism guarantee) — the bench fails if any deviates.
///
/// HICHI_BENCH_SHARDS=<K> restricts the sweep to one shard count;
/// HICHI_BENCH_BACKEND, when set to anything but "sharded", skips the
/// sweep entirely (the uniform sweep-restriction convention);
/// HICHI_BENCH_GRAPH=1 runs every configuration in step-graph replay
/// mode (capture once, replay the rest — the hash gate still binds).
/// Set HICHI_BENCH_JSON=<path> to write hichi-bench-v1 records (stage =
/// "step", scenario = "langmuir-sharded", threads = shard count).
///
//===----------------------------------------------------------------------===//

#include "BenchmarkHarness.h"

#include "pic/Diagnostics.h"
#include "pic/PicSimulation.h"

#include <algorithm>
#include <thread>

using namespace hichi;
using namespace hichi::bench;
using namespace hichi::pic;

namespace {

struct StepResult {
  MeasuredSeries Step;
  std::uint64_t Hash = 0;
  std::vector<exec::ShardStat> Shards;
};

/// One measured configuration: a fresh Langmuir-style plasma advanced
/// warmup + Iterations x Steps steps; whole-step wall time per
/// iteration. \p Shards == 0 means the all-serial baseline.
StepResult measureConfig(const GridSize &N, int PerCell, int Shards,
                         const BenchSizes &Sizes) {
  PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  Options.SortEveryNSteps = 20;
  // The metric here is the whole-step wall, which replay preserves —
  // so this bench honors HICHI_BENCH_GRAPH (envGraphMode), unlike the
  // per-stage benches whose stage stats do not accrue during replay.
  Options.UseStepGraph = envGraphMode();
  if (Shards > 0) {
    Options.PushBackend = "sharded";
    Options.PushThreads = Shards;
    Options.DepositBackend = "sharded";
    Options.DepositThreads = Shards;
    Options.FieldBackend = "sharded";
    Options.FieldThreads = Shards;
  }
  const Index NumParticles = N.count() * PerCell;
  PicSimulation<double> Sim(N, {0, 0, 0}, {0.5, 0.5, 0.5}, NumParticles,
                            ParticleTypeTable<double>::natural(), Options);

  const double BoxLength = double(N.Nx) * 0.5;
  const double Volume = BoxLength * double(N.Ny) * 0.5 * double(N.Nz) * 0.5;
  const double Weight = Volume / (4.0 * constants::Pi * double(NumParticles));
  for (Index C = 0; C < N.count(); ++C) {
    const Index I = C / (N.Ny * N.Nz);
    const Index J = (C / N.Nz) % N.Ny;
    const Index K = C % N.Nz;
    for (int P = 0; P < PerCell; ++P) {
      ParticleT<double> Particle;
      Particle.Position = {(double(I) + (P + 0.5) / PerCell) * 0.5,
                           (double(J) + 0.5) * 0.5, (double(K) + 0.5) * 0.5};
      const double Vx =
          0.02 * std::sin(2.0 * constants::Pi * Particle.Position.X /
                          BoxLength);
      Particle.Momentum = {Vx / std::sqrt(1 - Vx * Vx), 0, 0};
      Particle.Weight = Weight;
      Particle.Type = PS_Electron;
      Sim.addParticle(Particle);
    }
  }

  StepResult Out;
  Sim.run(Sizes.StepsPerIteration); // warmup (first-touch, lanes)
  double Total = 0;
  for (int It = 0; It < Sizes.Iterations; ++It) {
    Stopwatch Watch;
    Sim.run(Sizes.StepsPerIteration);
    Out.Step.IterationNs.push_back(double(Watch.elapsedNanoseconds()));
    Total += Out.Step.IterationNs.back();
  }
  Out.Step.Nsps = nsPerParticlePerStep(Total, Sizes.Iterations,
                                       double(NumParticles),
                                       double(Sizes.StepsPerIteration));
  Out.Hash = picStateHash(Sim.particles(), Sim.grid());
  Out.Shards = Sim.shardStats();
  return Out;
}

BenchRecord recordOf(const std::string &Backend, int Threads,
                     Index Particles, const BenchSizes &Sizes,
                     const MeasuredSeries &Series) {
  BenchRecord R;
  R.Backend = Backend;
  R.Stage = "step";
  R.Scenario = "langmuir-sharded";
  R.Layout = "aos";
  R.Precision = "double";
  R.Particles = (long long)Particles;
  R.Steps = Sizes.StepsPerIteration;
  R.Iterations = Sizes.Iterations;
  R.Threads = Threads;
  // Per-shard affinity-routed chained submits; captured once and
  // replayed when HICHI_BENCH_GRAPH is set.
  R.Submit = envGraphMode() ? "graph" : "event-chain";
  R.setSeries(Series);
  return R;
}

} // namespace

int main() {
  BenchSizes Sizes = BenchSizes::fromEnv();
  // Power-of-two extents (spectral-capable grid, matching the other PIC
  // benches) with enough x-planes for the 13-shard test axis.
  const GridSize N{32, 8, 8};
  const int PerCell = std::max(1, int(Sizes.Particles / N.count()));
  const Index NumParticles = N.count() * PerCell;

  std::printf("PIC shard-count scaling: %lld particles (%d/cell) on a "
              "%lldx%lldx%lld grid, %d steps x %d iterations, all three "
              "stages on 'sharded'\n\n",
              (long long)NumParticles, PerCell, (long long)N.Nx,
              (long long)N.Ny, (long long)N.Nz, Sizes.StepsPerIteration,
              Sizes.Iterations);

  JsonReport Report("bench_pic_sharded");
  const StepResult Serial = measureConfig(N, PerCell, 0, Sizes);
  Report.add(recordOf("serial", 1, NumParticles, Sizes, Serial.Step));
  std::printf("%-10s %12s %9s %10s %11s\n", "shards", "step ms", "speedup",
              "nsps", "imbalance");
  printRule(56);
  std::printf("%-10s %12.3f %9s %10.3f %11s\n", "serial",
              Serial.Step.medianNs() / 1e6, "1.00x", Serial.Step.Nsps, "-");

  bool AllHashesAgree = true;
  if (envBackendSelected("sharded")) {
    // The backend caps shard counts at 64; clamp the sweep points the
    // same way (and dedupe) so every record's `threads` field names the
    // shard count that actually executed — otherwise a >64-thread host
    // would emit two differently-labeled records of one configuration.
    const int MaxShards = 64;
    std::vector<int> ShardPoints;
    if (auto Restricted = envShardCount()) {
      ShardPoints.push_back(std::min(std::max(1, *Restricted), MaxShards));
    } else {
      const int HostThreads =
          int(std::max(1u, std::thread::hardware_concurrency()));
      for (int K = 1; K <= std::max(HostThreads, 4); K *= 2)
        ShardPoints.push_back(std::min(K, MaxShards));
      ShardPoints.erase(std::unique(ShardPoints.begin(), ShardPoints.end()),
                        ShardPoints.end());
    }
    for (int K : ShardPoints) {
      const StepResult R = measureConfig(N, PerCell, K, Sizes);
      Report.add(recordOf("sharded", K, NumParticles, Sizes, R.Step));
      const double Speedup = R.Step.medianNs() > 0
                                 ? Serial.Step.medianNs() / R.Step.medianNs()
                                 : 0.0;
      const bool HashOk = R.Hash == Serial.Hash;
      AllHashesAgree = AllHashesAgree && HashOk;
      std::printf("%-10d %12.3f %8.2fx %10.3f %10.2fx%s\n", K,
                  R.Step.medianNs() / 1e6, Speedup, R.Step.Nsps,
                  exec::shardImbalance(R.Shards),
                  HashOk ? "" : "  HASH MISMATCH");
      for (std::size_t S = 0; S < R.Shards.size(); ++S)
        std::printf("    shard %zu: %lld launches, %lld items, %.2f ms "
                    "busy (occupancy %.0f%%)\n",
                    S, R.Shards[S].Launches, R.Shards[S].Items,
                    R.Shards[S].BusyNs / 1e6,
                    100.0 * exec::shardOccupancy(R.Shards, S));
    }
  } else {
    std::printf("(HICHI_BENCH_BACKEND excludes 'sharded'; sweep skipped)\n");
  }

  std::printf("\n(speedup vs the all-serial loop; on a single-core host "
              "all speedups are <= 1 — shard routing overhead without the "
              "parallel payoff)\n");
  std::printf("shard equivalence: %s (all state hashes %s)\n",
              AllHashesAgree ? "OK" : "FAIL",
              AllHashesAgree ? "identical" : "DIFFER");

  Report.writeEnvRequested();
  return AllHashesAgree ? 0 : 1;
}
