//===-- bench/bench_pic_rebalance.cpp - Rebalancing under skew -----------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Steady-state NSPS of the full PIC step on the drifting-slab scenario
/// (pic/Scenarios.h) — the moving-window skew driver where all the
/// particles live in a quarter of the box and coast across it — with and
/// without the imbalance-driven rebalancer (pic/Rebalancer.h). Static
/// uniform shard/tile splits leave most shards idle while the slab's
/// planes saturate one of them; the rebalancer re-splits the item space
/// by measured per-plane occupancy, so the rebalanced configuration
/// should win at >= 4 shards. The slab is charge-neutral with bitwise
/// current cancellation, so *every* configuration — serial or sharded,
/// static or rebalanced — must end on one identical state hash; the
/// bench exits nonzero if any deviates.
///
/// HICHI_BENCH_SHARDS=<K> picks the shard count (default 4, the
/// acceptance point); HICHI_BENCH_BACKEND set to anything but "sharded"
/// skips the sharded rows; HICHI_BENCH_REBALANCE=0 drops the rebalanced
/// rows (hash gates on the static rows still bind);
/// HICHI_BENCH_GRAPH=1 runs everything in step-graph replay mode, where
/// each repartition costs one recapture. Set HICHI_BENCH_JSON=<path>
/// for hichi-bench-v1 records (stage = "step" for static rows,
/// "rebalance" for rebalanced ones, scenario = "drifting-slab").
///
//===----------------------------------------------------------------------===//

#include "BenchmarkHarness.h"

#include "pic/Diagnostics.h"
#include "pic/ParticleSorter.h"
#include "pic/PicSimulation.h"
#include "pic/Scenarios.h"

#include <algorithm>

using namespace hichi;
using namespace hichi::bench;
using namespace hichi::pic;

namespace {

constexpr double RebalanceThreshold = 1.3;
constexpr int RebalanceEvery = 5;

struct StepResult {
  MeasuredSeries Step;
  std::uint64_t Hash = 0;
  double WorkImbalance = 0; ///< max/mean particles per deposit tile
  RebalanceStats Rebalance;
  long long Captures = 0;
};

/// Deposit work imbalance of the *final* tile partition: max over mean
/// particle count across the tile plane ranges. Deterministic (pure
/// function of the end state), host-independent — the number the
/// rebalancer exists to pull down to ~1, and the parallel-speedup bound
/// of the occupancy-proportional accumulate phase on a multicore host.
template <typename Sim> double depositWorkImbalance(const Sim &S) {
  const std::vector<Index> Bounds = S.depositTileBoundaries();
  if (Bounds.size() < 2)
    return 1.0;
  const std::vector<double> Planes = xPlaneOccupancy(
      S.particles(), CellIndexer<double>(S.grid().size(), S.grid().origin(),
                                         S.grid().step()));
  double Total = 0, Max = 0;
  for (std::size_t T = 0; T + 1 < Bounds.size(); ++T) {
    double Tile = 0;
    for (Index P = Bounds[T]; P < Bounds[T + 1]; ++P)
      Tile += Planes[std::size_t(P)];
    Total += Tile;
    Max = std::max(Max, Tile);
  }
  const double Mean = Total / double(Bounds.size() - 1);
  return Mean > 0 ? Max / Mean : 1.0;
}

/// One measured configuration of the drifting slab: \p Shards == 0 is
/// the serial loop; \p Rebalance arms the occupancy-skew rebalancer.
/// Warmup runs one iteration's worth of steps first (first-touch, shard
/// lanes, the initial graph capture).
StepResult measureConfig(const GridSize &N, int PairsPerCell, int Shards,
                         bool Rebalance, const BenchSizes &Sizes) {
  const ScenarioSetup<double> S =
      makeDriftingSlabScenario<double>(N, PairsPerCell);
  PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  Options.SortEveryNSteps = 20;
  Options.UseStepGraph = envGraphMode();
  if (Rebalance) {
    Options.RebalanceThreshold = RebalanceThreshold;
    Options.RebalanceEveryNSteps = RebalanceEvery;
  }
  if (Shards > 0) {
    Options.PushBackend = "sharded";
    Options.PushThreads = Shards;
    Options.DepositBackend = "sharded";
    Options.DepositThreads = Shards;
    Options.FieldBackend = "sharded";
    Options.FieldThreads = Shards;
  }
  PicSimulation<double> Sim(S.Grid, S.Origin, S.Step,
                            Index(S.Particles.size()), S.Types, Options);
  seedScenario(Sim, S);
  const Index NumParticles = Sim.particles().size();

  StepResult Out;
  Sim.run(Sizes.StepsPerIteration); // warmup
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
  Out.WorkImbalance = depositWorkImbalance(Sim);
  Out.Rebalance = Sim.rebalanceStats();
  Out.Captures = Sim.graphCaptureCount();
  return Out;
}

BenchRecord recordOf(const std::string &Backend, int Threads, bool Rebalance,
                     Index Particles, const BenchSizes &Sizes,
                     const MeasuredSeries &Series) {
  BenchRecord R;
  R.Backend = Backend;
  R.Stage = Rebalance ? "rebalance" : "step";
  R.Scenario = "drifting-slab";
  R.Layout = "aos";
  R.Precision = "double";
  R.Particles = (long long)Particles;
  R.Steps = Sizes.StepsPerIteration;
  R.Iterations = Sizes.Iterations;
  R.Threads = Threads;
  R.Submit = envGraphMode() ? "graph" : "event-chain";
  R.setSeries(Series);
  return R;
}

void printRow(const char *Label, const StepResult &R, double BaselineNs,
              bool HashOk) {
  const double Speedup =
      R.Step.medianNs() > 0 ? BaselineNs / R.Step.medianNs() : 0.0;
  std::printf("%-18s %12.3f %8.2fx %10.3f %10.2fx %6lld%s\n", Label,
              R.Step.medianNs() / 1e6, Speedup, R.Step.Nsps, R.WorkImbalance,
              R.Rebalance.Fires, HashOk ? "" : "  HASH MISMATCH");
}

} // namespace

int main() {
  BenchSizes Sizes = BenchSizes::fromEnv();
  // Same power-of-two transverse extents as the other PIC benches; the
  // slab fills the first quarter of the 64 x-planes.
  const GridSize N{64, 8, 8};
  const Index SlabCells = (N.Nx / 4) * N.Ny * N.Nz;
  const int PairsPerCell =
      std::max(1, int(Sizes.Particles / (SlabCells * 2)));
  const Index NumParticles = SlabCells * PairsPerCell * 2;
  const int Shards = std::min(std::max(1, envShardCount().value_or(4)), 64);
  const bool WithRebalance = envRebalanceMode();

  std::printf("PIC rebalancing under skew: drifting slab, %lld particles "
              "(%d pairs/cell in the first %lld planes) on a "
              "%lldx%lldx%lld grid, %d steps x %d iterations, threshold "
              "%.2f every %d steps\n\n",
              (long long)NumParticles, PairsPerCell, (long long)(N.Nx / 4),
              (long long)N.Nx, (long long)N.Ny, (long long)N.Nz,
              Sizes.StepsPerIteration, Sizes.Iterations, RebalanceThreshold,
              RebalanceEvery);

  JsonReport Report("bench_pic_rebalance");
  const StepResult Serial = measureConfig(N, PairsPerCell, 0, false, Sizes);
  Report.add(
      recordOf("serial", 1, false, NumParticles, Sizes, Serial.Step));
  std::printf("%-18s %12s %9s %10s %10s %7s\n", "config", "step ms",
              "speedup", "nsps", "imbalance", "fires");
  printRule(72);
  printRow("serial", Serial, Serial.Step.medianNs(), true);

  bool AllHashesAgree = true;
  auto Gate = [&](const StepResult &R) {
    const bool Ok = R.Hash == Serial.Hash;
    AllHashesAgree = AllHashesAgree && Ok;
    return Ok;
  };

  if (WithRebalance) {
    const StepResult R = measureConfig(N, PairsPerCell, 0, true, Sizes);
    Report.add(recordOf("serial", 1, true, NumParticles, Sizes, R.Step));
    printRow("serial+rebal", R, Serial.Step.medianNs(), Gate(R));
  }
  if (envBackendSelected("sharded")) {
    const StepResult Static =
        measureConfig(N, PairsPerCell, Shards, false, Sizes);
    Report.add(recordOf("sharded", Shards, false, NumParticles, Sizes,
                        Static.Step));
    printRow("sharded static", Static, Serial.Step.medianNs(), Gate(Static));
    if (WithRebalance) {
      const StepResult Rebal =
          measureConfig(N, PairsPerCell, Shards, true, Sizes);
      Report.add(recordOf("sharded", Shards, true, NumParticles, Sizes,
                          Rebal.Step));
      printRow("sharded+rebal", Rebal, Serial.Step.medianNs(), Gate(Rebal));
      const double Gain = Rebal.Step.Nsps > 0
                              ? Static.Step.Nsps / Rebal.Step.Nsps
                              : 0.0;
      std::printf("\nrebalancing at %d shards: %.2fx NSPS vs static split "
                  "(%lld fires over %lld checks, deposit work imbalance "
                  "%.2fx -> %.2fx)",
                  Shards, Gain, Rebal.Rebalance.Fires, Rebal.Rebalance.Checks,
                  Static.WorkImbalance, Rebal.WorkImbalance);
      if (envGraphMode())
        std::printf("; %lld graph captures = 1 + fires-after-warmup",
                    Rebal.Captures);
      std::printf("\n(the NSPS gain needs >= %d physical cores — on fewer, "
                  "balance does not change the serialized total and the "
                  "repartition cost shows as overhead)\n",
                  Shards);
    }
  } else {
    std::printf("(HICHI_BENCH_BACKEND excludes 'sharded'; sharded rows "
                "skipped)\n");
  }

  std::printf("rebalance equivalence: %s (all state hashes %s)\n",
              AllHashesAgree ? "OK" : "FAIL",
              AllHashesAgree ? "identical" : "DIFFER");
  Report.writeEnvRequested();
  return AllHashesAgree ? 0 : 1;
}
