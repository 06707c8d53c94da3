//===-- tests/pic/GraphEquivalenceTest.cpp - Graph-replay equivalence ----===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The step-graph determinism guarantee, gated in CI as the
/// `pic_graph_equivalence` ctest target: a PIC simulation that captures
/// its whole-step launch DAG on the first step and *replays* it on
/// every later one (PicOptions::UseStepGraph, exec/StepGraph.h) is
/// *bit-identical* over 100 steps to the same simulation resubmitting
/// every launch — for every registered backend x Maxwell solver x
/// particle layout, including the sharded backend across shard counts
/// and explicit deposit/field tile counts. Replay must also be cheaper
/// to issue: the launch ledger of a graph run stays at the capture
/// step's counts while the resubmitting run pays them every step — and
/// those counts are the same, because a classic step submits the very
/// DAG a capture step records.
///
//===----------------------------------------------------------------------===//

#include "exec/BackendRegistry.h"
#include "pic/Diagnostics.h"
#include "pic/PicSimulation.h"
#include "pic/Scenarios.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

using namespace hichi;
using namespace hichi::pic;

namespace {

/// One 100-step Langmuir-style run on a power-of-two grid (so both
/// solvers accept the setup) with every stage on \p Backend, returning
/// the final bit-state hash. With \p UseGraph the run must capture
/// exactly once and replay the other 99 steps; its submit ledger must
/// stay strictly below the resubmitting run's.
template <typename Array>
std::uint64_t graphSimulationHash(FieldSolverKind Solver,
                                  const std::string &Backend, int Threads,
                                  int Tiles, bool UseGraph) {
  const GridSize N{16, 4, 4};
  PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  Options.SortEveryNSteps = 7; // exercise re-sorting between replays
  Options.Solver = Solver;
  Options.PushBackend = Backend;
  Options.DepositBackend = Backend;
  Options.FieldBackend = Backend;
  Options.PushThreads = Threads;
  Options.DepositThreads = Threads;
  Options.FieldThreads = Threads;
  Options.DepositTiles = Tiles;
  Options.FieldTiles = Tiles;
  Options.UseStepGraph = UseGraph;
  const int PerCell = 2;
  PicSimulation<double, Array> Sim(N, {0, 0, 0}, {0.5, 0.5, 0.5},
                                   N.count() * PerCell,
                                   ParticleTypeTable<double>::natural(),
                                   Options);
  for (Index C = 0; C < N.count(); ++C) {
    const Index I = C / (N.Ny * N.Nz);
    const Index J = (C / N.Nz) % N.Ny;
    const Index K = C % N.Nz;
    for (int P = 0; P < PerCell; ++P) {
      ParticleT<double> Particle;
      Particle.Position = {(double(I) + 0.25 + 0.5 * P) * 0.5,
                           (double(J) + 0.5) * 0.5, (double(K) + 0.5) * 0.5};
      const double Vx =
          0.02 * std::sin(2.0 * constants::Pi * Particle.Position.X / 8.0);
      Particle.Momentum = {Vx / std::sqrt(1 - Vx * Vx), 0, 0};
      Particle.Weight = 0.05;
      Particle.Type = PS_Electron;
      Sim.addParticle(Particle);
    }
  }
  Sim.run(100);
  if (UseGraph) {
    EXPECT_EQ(Sim.graphCaptureCount(), 1) << Backend;
    EXPECT_EQ(Sim.graphReplayCount(), 99) << Backend;
  }
  return picStateHash(Sim.particles(), Sim.grid());
}

/// Replay-vs-resubmit bit-equivalence for one backend across both
/// solvers.
template <typename Array>
void checkGraphMatchesResubmit(const std::string &Backend, int Threads = 3,
                               int Tiles = 0) {
  for (FieldSolverKind Solver :
       {FieldSolverKind::Fdtd, FieldSolverKind::Spectral})
    EXPECT_EQ(graphSimulationHash<Array>(Solver, Backend, Threads, Tiles,
                                         /*UseGraph=*/true),
              graphSimulationHash<Array>(Solver, Backend, Threads, Tiles,
                                         /*UseGraph=*/false))
        << Backend << " threads=" << Threads << " tiles=" << Tiles
        << " solver=" << (Solver == FieldSolverKind::Fdtd ? "fdtd" : "spectral");
}

TEST(GraphEquivalenceTest, SerialAoS) {
  checkGraphMatchesResubmit<ParticleArrayAoS<double>>("serial");
}

TEST(GraphEquivalenceTest, SerialSoA) {
  checkGraphMatchesResubmit<ParticleArraySoA<double>>("serial");
}

TEST(GraphEquivalenceTest, OpenmpAoS) {
  checkGraphMatchesResubmit<ParticleArrayAoS<double>>("openmp");
}

TEST(GraphEquivalenceTest, OpenmpSoA) {
  checkGraphMatchesResubmit<ParticleArraySoA<double>>("openmp");
}

TEST(GraphEquivalenceTest, DpcppAoS) {
  checkGraphMatchesResubmit<ParticleArrayAoS<double>>("dpcpp");
}

TEST(GraphEquivalenceTest, DpcppNumaSoA) {
  checkGraphMatchesResubmit<ParticleArraySoA<double>>("dpcpp-numa");
}

TEST(GraphEquivalenceTest, AsyncPipelineAoS) {
  checkGraphMatchesResubmit<ParticleArrayAoS<double>>("async-pipeline");
}

TEST(GraphEquivalenceTest, AsyncPipelineSoA) {
  checkGraphMatchesResubmit<ParticleArraySoA<double>>("async-pipeline");
}

TEST(GraphEquivalenceTest, ShardedAcrossShardCountsAoS) {
  for (int Shards : {1, 2, 5, 13})
    checkGraphMatchesResubmit<ParticleArrayAoS<double>>("sharded", Shards);
}

TEST(GraphEquivalenceTest, ShardedSpectralSoA) {
  checkGraphMatchesResubmit<ParticleArraySoA<double>>("sharded", 5);
}

TEST(GraphEquivalenceTest, ExplicitTileCountsAoS) {
  for (int Tiles : {1, 3, 7})
    checkGraphMatchesResubmit<ParticleArrayAoS<double>>("openmp", 3, Tiles);
}

/// The submit-overhead claim behind the whole feature: over the same
/// run, graph mode submits (counts) launches only on the capture step,
/// so its ledger is strictly below the resubmitting run's.
TEST(GraphEquivalenceTest, ReplayLedgerStaysAtCaptureCounts) {
  auto Run = [](bool UseGraph) {
    const GridSize N{8, 4, 4};
    PicOptions<double> Options;
    Options.LightVelocity = 1.0;
    Options.PushBackend = "openmp";
    Options.DepositBackend = "openmp";
    Options.FieldBackend = "openmp";
    Options.PushThreads = 2;
    Options.DepositThreads = 2;
    Options.FieldThreads = 2;
    Options.UseStepGraph = UseGraph;
    PicSimulation<double> Sim(N, {0, 0, 0}, {0.5, 0.5, 0.5}, 64,
                              ParticleTypeTable<double>::natural(), Options);
    for (int P = 0; P < 64; ++P) {
      ParticleT<double> Particle;
      Particle.Position = {0.1 + 0.05 * P, 0.3, 0.7};
      Particle.Momentum = {0.01, 0, 0};
      Particle.Weight = 0.05;
      Particle.Type = PS_Electron;
      Sim.addParticle(Particle);
    }
    Sim.run(20);
    return Sim.submitOverhead();
  };
  const RunStats Graph = Run(true);
  const RunStats Resubmit = Run(false);
  EXPECT_GT(Graph.Launches, 0);
  EXPECT_LT(Graph.Launches, Resubmit.Launches);
  EXPECT_LT(Graph.SpecsBuilt, Resubmit.SpecsBuilt);
}

/// Launch-ledger parity: a classic step submits the very DAG a capture
/// step records, so one classic step's Launches/SpecsBuilt delta must
/// equal the capture step's delta of an otherwise identical graph run,
/// and the capture must record one graph node per classic launch — on
/// every backend. And stage 1 is one launch everywhere: a sharded push
/// backend splits it per shard inside that launch.
TEST(GraphEquivalenceTest, ClassicStepLedgerMatchesCaptureStep) {
  // The submitOverhead() and pushStats() launch deltas of step
  // \p StepToMeasure, with every stage on \p Backend, or only the push
  // stage when \p PushOnly, plus the captured graph's node count.
  struct Ledger {
    long long Launches = 0, SpecsBuilt = 0, PushLaunches = 0;
    std::size_t Nodes = 0;
  };
  auto StepLedger = [](const std::string &Backend, int Threads,
                       bool UseGraph, int StepToMeasure,
                       bool PushOnly = false) {
    const GridSize N{8, 4, 4};
    PicOptions<double> Options;
    Options.LightVelocity = 1.0;
    Options.PushBackend = Backend;
    Options.DepositBackend = PushOnly ? "serial" : Backend;
    Options.FieldBackend = PushOnly ? "serial" : Backend;
    Options.PushThreads = Threads;
    Options.DepositThreads = Threads;
    Options.FieldThreads = Threads;
    Options.UseStepGraph = UseGraph;
    PicSimulation<double> Sim(N, {0, 0, 0}, {0.5, 0.5, 0.5}, 64,
                              ParticleTypeTable<double>::natural(), Options);
    for (int P = 0; P < 64; ++P) {
      ParticleT<double> Particle;
      Particle.Position = {0.1 + 0.05 * P, 0.3, 0.7};
      Particle.Momentum = {0.01, 0, 0};
      Particle.Weight = 0.05;
      Particle.Type = PS_Electron;
      Sim.addParticle(Particle);
    }
    Sim.run(StepToMeasure);
    const RunStats Before = Sim.submitOverhead();
    const long long PushBefore = Sim.pushStats().Launches;
    Sim.step();
    const RunStats After = Sim.submitOverhead();
    Ledger L;
    L.Launches = After.Launches - Before.Launches;
    L.SpecsBuilt = After.SpecsBuilt - Before.SpecsBuilt;
    L.PushLaunches = Sim.pushStats().Launches - PushBefore;
    L.Nodes = Sim.stepGraph() ? Sim.stepGraph()->nodeCount() : 0;
    return L;
  };
  const std::pair<const char *, int> Configs[] = {
      {"serial", 1}, {"openmp", 2}, {"dpcpp", 2}, {"async-pipeline", 2},
      {"sharded", 3}};
  for (const auto &[Backend, Threads] : Configs) {
    const Ledger Capture = StepLedger(Backend, Threads, /*UseGraph=*/true, 0);
    const Ledger Classic = StepLedger(Backend, Threads, /*UseGraph=*/false, 2);
    EXPECT_GT(Capture.Launches, 0) << Backend;
    EXPECT_EQ(Classic.Launches, Capture.Launches) << Backend << " launches";
    EXPECT_EQ(Classic.SpecsBuilt, Capture.SpecsBuilt)
        << Backend << " specs built";
    EXPECT_EQ(Capture.Nodes, std::size_t(Classic.Launches))
        << Backend << " graph nodes";
    // Stage 1 (interpolate + push + wrap) is one launch.
    EXPECT_EQ(Classic.PushLaunches, 1) << Backend << " stage-1 launches";
  }
  // Push = sharded x K against all-serial, other stages alike: the same
  // launch count.
  const long long Serial = StepLedger("serial", 1, false, 2).Launches;
  for (int Shards : {1, 3, 4}) {
    const long long Sharded =
        StepLedger("sharded", Shards, false, 2, /*PushOnly=*/true).Launches;
    EXPECT_EQ(Sharded, Serial) << "shards=" << Shards;
  }
}

/// Invalidation: growing the ensemble mid-run must discard the captured
/// graph (its pointers and item counts are stale), recapture, and stay
/// bit-identical to the resubmitting run doing the same thing.
TEST(GraphEquivalenceTest, RecapturesAfterEnsembleGrowth) {
  auto Run = [](bool UseGraph, long long *Captures) {
    const GridSize N{8, 4, 4};
    PicOptions<double> Options;
    Options.LightVelocity = 1.0;
    Options.SortEveryNSteps = 7;
    Options.PushBackend = "sharded";
    Options.DepositBackend = "sharded";
    Options.FieldBackend = "sharded";
    Options.PushThreads = 3;
    Options.DepositThreads = 3;
    Options.FieldThreads = 3;
    Options.UseStepGraph = UseGraph;
    PicSimulation<double> Sim(N, {0, 0, 0}, {0.5, 0.5, 0.5}, 96,
                              ParticleTypeTable<double>::natural(), Options);
    auto Seed = [&Sim](int Count, double Shift) {
      for (int P = 0; P < Count; ++P) {
        ParticleT<double> Particle;
        Particle.Position = {0.1 + 0.04 * P + Shift, 0.6, 1.1};
        Particle.Momentum = {0.01, 0.002 * P, 0};
        Particle.Weight = 0.05;
        Particle.Type = PS_Electron;
        Sim.addParticle(Particle);
      }
    };
    Seed(48, 0.0);
    Sim.run(50);
    Seed(32, 0.02); // reallocation + size change invalidates the graph
    Sim.run(50);
    if (Captures)
      *Captures = Sim.graphCaptureCount();
    return picStateHash(Sim.particles(), Sim.grid());
  };
  long long Captures = 0;
  const std::uint64_t GraphHash = Run(true, &Captures);
  const std::uint64_t ClassicHash = Run(false, nullptr);
  EXPECT_EQ(GraphHash, ClassicHash);
  EXPECT_EQ(Captures, 2); // one per ensemble shape
}

/// Rebalance x graph interplay: a fired repartition bumps the partition
/// epoch, so the captured graph (whose launch ranges bake in the old
/// split) must be invalidated — exactly one recapture per fire, every
/// other step replays, and the replayed run stays bit-identical to the
/// same rebalanced run resubmitting every launch.
TEST(GraphEquivalenceTest, RecapturesAfterRebalanceFires) {
  auto Run = [](bool UseGraph, long long *Captures, long long *Replays,
                long long *Fires) {
    const ScenarioSetup<double> S = makeDriftingSlabScenario<double>();
    PicOptions<double> Options;
    Options.LightVelocity = 1.0;
    Options.SortEveryNSteps = 20;
    Options.PushBackend = "sharded";
    Options.DepositBackend = "sharded";
    Options.FieldBackend = "sharded";
    Options.PushThreads = 4;
    Options.DepositThreads = 4;
    Options.FieldThreads = 4;
    Options.UseStepGraph = UseGraph;
    Options.RebalanceThreshold = 1.3; // the slab trips this repeatedly
    PicSimulation<double> Sim(S.Grid, S.Origin, S.Step,
                              Index(S.Particles.size()), S.Types, Options);
    seedScenario(Sim, S);
    Sim.run(100);
    if (Captures)
      *Captures = Sim.graphCaptureCount();
    if (Replays)
      *Replays = Sim.graphReplayCount();
    if (Fires)
      *Fires = Sim.rebalanceStats().Fires;
    return picStateHash(Sim.particles(), Sim.grid());
  };
  long long Captures = 0, Replays = 0, Fires = 0;
  const std::uint64_t GraphHash = Run(true, &Captures, &Replays, &Fires);
  const std::uint64_t ClassicHash = Run(false, nullptr, nullptr, nullptr);
  EXPECT_EQ(GraphHash, ClassicHash);
  EXPECT_GE(Fires, 1);
  EXPECT_EQ(Captures, 1 + Fires); // the initial capture + one per fire
  EXPECT_EQ(Replays, 100 - Captures);
}

} // namespace
