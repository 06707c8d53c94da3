//===-- bench/bench_pic_window.cpp - Moving-window shift cost ------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Steady-state NSPS of the full PIC step on the pulse-tracking
/// moving-window scenario (pic/Scenarios.h): a laser pulse rides
/// through a neutral pair plasma while the window follows it — every
/// step pays the normal stage chain, and roughly every dx/(c dt) steps
/// a window shift retires the trailing plane, injects a fresh one, and
/// (in graph mode) forces one recapture. The shift itself must be
/// O(shifted planes), not O(Nx): the ring storage re-labels planes in
/// place, so the bench asserts — structurally, via the grid's touched
/// element tally — that a whole run's shifts wrote exactly
/// 9 lattices x Ny x Nz elements per shifted plane, with no term that
/// grows with Nx (the per-plane cost is checked equal across two Nx).
/// The window trigger is a pure function of simulation time, so every
/// configuration must end on one identical state hash; the bench exits
/// nonzero if any deviates or the shift-cost invariant breaks.
///
/// HICHI_BENCH_SHARDS=<K> picks the shard count (default 4);
/// HICHI_BENCH_BACKEND set to anything but "sharded" skips the sharded
/// rows; HICHI_BENCH_GRAPH=1 runs in step-graph replay mode. Set
/// HICHI_BENCH_JSON=<path> for hichi-bench-v1 records (stage =
/// "window-shift", scenario = "moving-window").
///
//===----------------------------------------------------------------------===//

#include "BenchmarkHarness.h"

#include "pic/Diagnostics.h"
#include "pic/PicSimulation.h"
#include "pic/Scenarios.h"

#include <algorithm>

using namespace hichi;
using namespace hichi::bench;
using namespace hichi::pic;

namespace {

struct WindowResult {
  MeasuredSeries Step;
  std::uint64_t Hash = 0;
  long long Shifts = 0;
  long long ShiftedPlanes = 0;
  long long Retired = 0;
  long long Injected = 0;
  long long Captures = 0;
  std::size_t TouchedElems = 0;
  GridSize Grid{0, 0, 0};
};

/// One measured configuration of the moving-window scenario: \p Shards
/// == 0 is the serial loop. Warmup runs one iteration's worth of steps
/// first (first-touch, shard lanes, the initial graph capture).
WindowResult measureConfig(const GridSize &N, int PairsPerCell, int Shards,
                           const BenchSizes &Sizes) {
  const ScenarioSetup<double> S =
      makeMovingWindowScenario<double>(N, PairsPerCell);
  PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  Options.SortEveryNSteps = 20;
  Options.MovingWindow = S.MovingWindow;
  Options.UseStepGraph = envGraphMode();
  if (Shards > 0) {
    Options.PushBackend = "sharded";
    Options.PushThreads = Shards;
    Options.DepositBackend = "sharded";
    Options.DepositThreads = Shards;
    Options.FieldBackend = "sharded";
    Options.FieldThreads = Shards;
  }
  PicSimulation<double> Sim(S.Grid, S.Origin, S.Step,
                            Index(S.Particles.size()) + S.ExtraCapacity,
                            S.Types, Options);
  seedScenario(Sim, S);
  const Index NumParticles = Sim.particles().size();

  WindowResult Out;
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
  Out.Shifts = Sim.windowShiftCount();
  Out.ShiftedPlanes = (long long)Sim.windowOriginPlanes();
  Out.Retired = Sim.windowRetiredCount();
  Out.Injected = Sim.windowInjectedCount();
  Out.Captures = Sim.graphCaptureCount();
  Out.TouchedElems = Sim.grid().shiftTouchedElems();
  Out.Grid = Sim.grid().size();
  return Out;
}

BenchRecord recordOf(const std::string &Backend, int Threads, Index Particles,
                     const BenchSizes &Sizes, const MeasuredSeries &Series) {
  BenchRecord R;
  R.Backend = Backend;
  R.Stage = "window-shift";
  R.Scenario = "moving-window";
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

/// The structural O(shifted planes) invariant: a run's shifts touch
/// exactly 9 lattices x Ny x Nz elements per shifted plane — the
/// retired plane is zeroed for reuse at the leading edge and nothing
/// else is written (no O(Nx) memmove of the untouched interior).
bool shiftCostIsPerPlane(const WindowResult &R) {
  const std::size_t PlaneElems = std::size_t(R.Grid.Ny) * std::size_t(R.Grid.Nz);
  return R.TouchedElems == std::size_t(9) * PlaneElems *
                               std::size_t(R.ShiftedPlanes);
}

void printRow(const char *Label, const WindowResult &R, double BaselineNs,
              bool Ok) {
  const double Speedup =
      R.Step.medianNs() > 0 ? BaselineNs / R.Step.medianNs() : 0.0;
  std::printf("%-18s %12.3f %8.2fx %10.3f %7lld %8lld%s\n", Label,
              R.Step.medianNs() / 1e6, Speedup, R.Step.Nsps, R.Shifts,
              R.Injected, Ok ? "" : "  GATE FAIL");
}

} // namespace

int main() {
  BenchSizes Sizes = BenchSizes::fromEnv();
  const GridSize N{64, 8, 8};
  const int PairsPerCell =
      std::max(1, int(Sizes.Particles / (N.count() * 2)));
  const int Shards = std::min(std::max(1, envShardCount().value_or(4)), 64);

  std::printf("PIC moving window: pulse-tracking pair plasma, %d pairs/cell "
              "on a %lldx%lldx%lld ring-window grid, %d steps x %d "
              "iterations\n\n",
              PairsPerCell, (long long)N.Nx, (long long)N.Ny, (long long)N.Nz,
              Sizes.StepsPerIteration, Sizes.Iterations);

  JsonReport Report("bench_pic_window");
  const WindowResult Serial = measureConfig(N, PairsPerCell, 0, Sizes);
  const Index NumParticles = Index(N.count()) * Index(2 * PairsPerCell);
  Report.add(recordOf("serial", 1, NumParticles, Sizes, Serial.Step));
  std::printf("%-18s %12s %9s %10s %7s %8s\n", "config", "step ms", "speedup",
              "nsps", "shifts", "injected");
  printRule(72);

  bool AllGatesHold = true;
  auto Gate = [&](const WindowResult &R) {
    const bool Ok = R.Hash == Serial.Hash && shiftCostIsPerPlane(R) &&
                    R.Retired == R.Injected;
    AllGatesHold = AllGatesHold && Ok;
    return Ok;
  };
  const bool SerialOk = Serial.Shifts > 0 && Gate(Serial);
  AllGatesHold = AllGatesHold && SerialOk;
  printRow("serial", Serial, Serial.Step.medianNs(), SerialOk);

  if (envBackendSelected("sharded")) {
    const WindowResult Sharded = measureConfig(N, PairsPerCell, Shards, Sizes);
    Report.add(recordOf("sharded", Shards, NumParticles, Sizes,
                        Sharded.Step));
    printRow("sharded", Sharded, Serial.Step.medianNs(), Gate(Sharded));
  } else {
    std::printf("(HICHI_BENCH_BACKEND excludes 'sharded'; sharded rows "
                "skipped)\n");
  }

  // O(shifted planes), not O(Nx): the per-plane touched-element cost of
  // a half-size window must be exactly the full-size one's (both are
  // 9 x Ny x Nz). A storage scheme that memmoves the lattice would
  // scale this with Nx and fail here.
  const GridSize NHalf{N.Nx / 2, N.Ny, N.Nz};
  const WindowResult Half = measureConfig(NHalf, PairsPerCell, 0, Sizes);
  const bool HalfOk = shiftCostIsPerPlane(Half) && Half.ShiftedPlanes > 0;
  AllGatesHold = AllGatesHold && HalfOk;
  const auto PerPlane = [](const WindowResult &R) {
    return R.ShiftedPlanes > 0
               ? double(R.TouchedElems) / double(R.ShiftedPlanes)
               : 0.0;
  };
  const bool PerPlaneEqual = PerPlane(Half) == PerPlane(Serial);
  AllGatesHold = AllGatesHold && PerPlaneEqual;
  std::printf("\nshift cost: %.0f lattice elements per shifted plane at "
              "Nx=%lld, %.0f at Nx=%lld (expected %lld = 9 x Ny x Nz; "
              "independent of Nx: %s)\n",
              PerPlane(Serial), (long long)N.Nx, PerPlane(Half),
              (long long)NHalf.Nx, (long long)(9 * N.Ny * N.Nz),
              PerPlaneEqual ? "OK" : "FAIL");
  if (envGraphMode())
    std::printf("graph mode: %lld captures for %lld shifts (one recapture "
                "per shift)\n",
                Serial.Captures, Serial.Shifts);

  std::printf("window equivalence: %s (state hashes %s, shift cost "
              "per-plane %s)\n",
              AllGatesHold ? "OK" : "FAIL",
              AllGatesHold ? "identical" : "DIFFER or gate failed",
              AllGatesHold ? "exact" : "violated");
  Report.writeEnvRequested();
  return AllGatesHold ? 0 : 1;
}
