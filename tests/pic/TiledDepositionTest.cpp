//===-- tests/pic/TiledDepositionTest.cpp - Parallel deposition ----------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel-deposition guarantees. The decisive one: the tiled,
/// backend-parallel current scatter (TiledCurrentAccumulator) is
/// *bit-identical* to the serial particle-order scatter — for every
/// registered backend, both particle layouts, both deposition schemes and
/// any tile count — because every J node is owned by exactly one tile and
/// folded in global particle order (the determinism argument in
/// docs/ARCHITECTURE.md). On top sit the PIC-level checks: cross-backend
/// state-hash equivalence of whole simulations and the discrete
/// continuity equation d(rho)/dt + div J = 0 under a parallel deposit.
///
//===----------------------------------------------------------------------===//

#include "exec/BackendRegistry.h"
#include "minisycl/minisycl.h"
#include "pic/Diagnostics.h"
#include "pic/PicSimulation.h"
#include "pic/TiledCurrentAccumulator.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

using namespace hichi;
using namespace hichi::pic;

namespace {

//===----------------------------------------------------------------------===//
// Accumulator-level bitwise equivalence against the serial scatter
//===----------------------------------------------------------------------===//

/// A random ensemble of sub-cell moves spanning the whole periodic box
/// (including edge positions whose stencils wrap).
template <typename Array>
void fillMoves(Array &Particles, std::vector<Vector3<double>> &OldPos,
               std::vector<Vector3<double>> &NewPos, const YeeGrid<double> &G,
               Index N, unsigned Seed) {
  RandomStream<double> Rng(Seed);
  const Vector3<double> O = G.origin(), D = G.step();
  const GridSize Size = G.size();
  for (Index I = 0; I < N; ++I) {
    const Vector3<double> From(
        O.X + Rng.uniform(0.0, double(Size.Nx)) * D.X,
        O.Y + Rng.uniform(0.0, double(Size.Ny)) * D.Y,
        O.Z + Rng.uniform(0.0, double(Size.Nz)) * D.Z);
    const Vector3<double> To(From.X + Rng.uniform(-0.45, 0.45) * D.X,
                             From.Y + Rng.uniform(-0.45, 0.45) * D.Y,
                             From.Z + Rng.uniform(-0.45, 0.45) * D.Z);
    ParticleT<double> P;
    P.Position = To;
    P.Weight = Rng.uniform(0.5, 2.0);
    P.Type = PS_Electron;
    Particles.pushBack(P);
    OldPos.push_back(From);
    NewPos.push_back(To);
  }
}

/// Bitwise lattice comparison (memcmp, stricter than operator==).
void expectBitwiseEqual(const ScalarLattice<double> &A,
                        const ScalarLattice<double> &B, const char *What) {
  ASSERT_EQ(A.raw().size(), B.raw().size());
  EXPECT_EQ(std::memcmp(A.raw().data(), B.raw().data(),
                        A.raw().size() * sizeof(double)),
            0)
      << What;
}

/// The geometry every accumulator-level check scatters into.
const GridSize DepositSize{8, 5, 6};
const Vector3<double> DepositOrigin(-2.0, 1.0, 0.0);
const Vector3<double> DepositStep(0.5, 1.0, 0.8);

/// Scatters the moves OldPos[i] -> NewPos[i] of \p Particles with the
/// serial particle-order scatter and with the tiled accumulator on every
/// registered backend x tile count, and expects bitwise-equal J.
template <typename Array>
void expectTiledMatchesSerial(const Array &Particles,
                              const std::vector<Vector3<double>> &OldPos,
                              const std::vector<Vector3<double>> &NewPos,
                              bool ChargeConserving) {
  const GridSize Size = DepositSize;
  const Vector3<double> Origin = DepositOrigin, Step = DepositStep;
  const Index N = Particles.size();
  const double Dt = 0.31;
  auto Types = ParticleTypeTable<double>::natural();
  auto View = Particles.view();

  // Serial reference: the classic particle-order scatter.
  YeeGrid<double> Ref(Size, Origin, Step);
  for (Index I = 0; I < N; ++I) {
    const double Q = Types[View[I].type()].Charge * View[I].weight();
    if (ChargeConserving) {
      depositCurrentEsirkepov(Ref, OldPos[I], NewPos[I], Q, Dt);
    } else {
      depositCurrentDirect(Ref, (OldPos[I] + NewPos[I]) * 0.5,
                           (NewPos[I] - OldPos[I]) / Dt, Q);
    }
  }

  minisycl::queue Queue{minisycl::cpu_device()};
  for (const std::string &Name : exec::BackendRegistry::instance().names()) {
    auto Backend = exec::createBackend(Name);
    ASSERT_NE(Backend, nullptr) << Name;
    exec::ExecutionContext Ctx;
    Ctx.Queue = &Queue;
    for (int Tiles : {1, 2, 3, 5, 8, 64}) {
      TiledCurrentAccumulator<double> Accumulator(Size, Origin, Step, Tiles);
      YeeGrid<double> G(Size, Origin, Step);
      RunStats Stats;
      Accumulator.deposit(G, View, OldPos.data(), NewPos.data(), Types.data(),
                          Dt, ChargeConserving, *Backend, Ctx, Stats);
      SCOPED_TRACE("backend=" + Name + " tiles=" +
                   std::to_string(Accumulator.tileCount()));
      expectBitwiseEqual(G.Jx, Ref.Jx, "Jx");
      expectBitwiseEqual(G.Jy, Ref.Jy, "Jy");
      expectBitwiseEqual(G.Jz, Ref.Jz, "Jz");
    }
  }
}

template <typename Array>
void checkAccumulatorAgainstSerial(bool ChargeConserving) {
  const Index N = 400;
  Array Particles(N);
  std::vector<Vector3<double>> OldPos, NewPos;
  // Geometry donor for fillMoves.
  YeeGrid<double> Probe(DepositSize, DepositOrigin, DepositStep);
  fillMoves(Particles, OldPos, NewPos, Probe, N, 17);
  expectTiledMatchesSerial(Particles, OldPos, NewPos, ChargeConserving);
}

TEST(TiledDepositionTest, EsirkepovBitwiseMatchesSerialAoS) {
  checkAccumulatorAgainstSerial<ParticleArrayAoS<double>>(true);
}

TEST(TiledDepositionTest, EsirkepovBitwiseMatchesSerialSoA) {
  checkAccumulatorAgainstSerial<ParticleArraySoA<double>>(true);
}

TEST(TiledDepositionTest, DirectSchemeBitwiseMatchesSerialAoS) {
  checkAccumulatorAgainstSerial<ParticleArrayAoS<double>>(false);
}

TEST(TiledDepositionTest, DirectSchemeBitwiseMatchesSerialSoA) {
  checkAccumulatorAgainstSerial<ParticleArraySoA<double>>(false);
}

/// A corrupt particle about 1e12 cells off the box (+x, -z) still
/// deposits in O(1) and lands exactly where the serial scatter's
/// %-based periodic wrap puts it — the tile sink's near-wrap falls back
/// to the same wrap far from the box.
TEST(TiledDepositionTest, FarDisplacedParticleMatchesSerial) {
  ParticleArrayAoS<double> Particles(3);
  std::vector<Vector3<double>> OldPos, NewPos;
  YeeGrid<double> Probe(DepositSize, DepositOrigin, DepositStep);
  fillMoves(Particles, OldPos, NewPos, Probe, 2, 5);
  const Vector3<double> O = DepositOrigin, D = DepositStep;
  const Vector3<double> From(O.X + (1e12 + 0.3) * D.X, O.Y + 2.6 * D.Y,
                             O.Z - (1e12 + 0.7) * D.Z);
  const Vector3<double> To(From.X + 0.2 * D.X, From.Y - 0.1 * D.Y,
                           From.Z + 0.4 * D.Z);
  ParticleT<double> P;
  P.Position = To;
  P.Weight = 1.5;
  P.Type = PS_Electron;
  Particles.pushBack(P);
  OldPos.push_back(From);
  NewPos.push_back(To);
  for (bool ChargeConserving : {true, false}) {
    SCOPED_TRACE(ChargeConserving ? "esirkepov" : "direct");
    expectTiledMatchesSerial(Particles, OldPos, NewPos, ChargeConserving);
  }
}

TEST(TiledDepositionTest, TileCountClampsToPlaneCount) {
  TiledCurrentAccumulator<double> A({8, 4, 4}, {0, 0, 0}, {1, 1, 1}, 100);
  EXPECT_EQ(A.tileCount(), 8);
  TiledCurrentAccumulator<double> B({8, 4, 4}, {0, 0, 0}, {1, 1, 1}, 0);
  EXPECT_EQ(B.tileCount(), 1);
}

//===----------------------------------------------------------------------===//
// Simulation-level cross-backend state-hash equivalence
//===----------------------------------------------------------------------===//

/// A small Langmuir-style simulation advanced \p Steps steps, with the
/// deposit (and optionally the push) stage configured as requested;
/// \returns the full state hash.
template <typename Array>
std::uint64_t simulationHash(const std::string &DepositBackend, int Tiles,
                             int Threads, bool ChargeConserving, int Steps,
                             const std::string &PushBackend = "serial",
                             int PushThreads = 0) {
  const GridSize N{12, 4, 4};
  PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  Options.SortEveryNSteps = 7; // exercise re-sorting mid-run
  Options.ChargeConserving = ChargeConserving;
  Options.PushBackend = PushBackend;
  Options.PushThreads = PushThreads;
  Options.DepositBackend = DepositBackend;
  Options.DepositTiles = Tiles;
  Options.DepositThreads = Threads;
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
          0.02 * std::sin(2.0 * constants::Pi * Particle.Position.X / 6.0);
      Particle.Momentum = {Vx / std::sqrt(1 - Vx * Vx), 0, 0};
      Particle.Weight = 0.05;
      Particle.Type = PS_Electron;
      Sim.addParticle(Particle);
    }
  }
  Sim.run(Steps);
  return picStateHash(Sim.particles(), Sim.grid());
}

TEST(TiledDepositionTest, SimulationHashInvariantAcrossBackendsAndTiles) {
  const std::uint64_t Reference =
      simulationHash<ParticleArrayAoS<double>>("serial", 1, 0, true, 30);
  for (const std::string &Name : exec::BackendRegistry::instance().names())
    for (int Tiles : {1, 3, 5, 12})
      EXPECT_EQ(simulationHash<ParticleArrayAoS<double>>(Name, Tiles, 0, true,
                                                         30),
                Reference)
          << "backend=" << Name << " tiles=" << Tiles;
  // Pinned worker counts must not change the result either.
  EXPECT_EQ(simulationHash<ParticleArrayAoS<double>>("openmp", 5, 2, true, 30),
            Reference);
  EXPECT_EQ(simulationHash<ParticleArrayAoS<double>>("dpcpp", 5, 3, true, 30),
            Reference);
  // Shard axis: the sharded backend splits the deposit into per-shard
  // accumulate→reduce chains (threads = shard count); every shard count
  // must reproduce the same bits — including 13 shards over 5 tiles.
  for (int Shards : {1, 2, 5, 13})
    EXPECT_EQ(simulationHash<ParticleArrayAoS<double>>("sharded", 5, Shards,
                                                       true, 30),
              Reference)
        << "shards=" << Shards;
}

TEST(TiledDepositionTest, SimulationHashInvariantForSoALayout) {
  const std::uint64_t Reference =
      simulationHash<ParticleArraySoA<double>>("serial", 1, 0, true, 25);
  for (const std::string &Name : exec::BackendRegistry::instance().names())
    EXPECT_EQ(simulationHash<ParticleArraySoA<double>>(Name, 4, 0, true, 25),
              Reference)
        << "backend=" << Name;
}

TEST(TiledDepositionTest, SimulationHashInvariantForDirectScheme) {
  const std::uint64_t Reference =
      simulationHash<ParticleArrayAoS<double>>("serial", 1, 0, false, 20);
  for (const std::string &Name : exec::BackendRegistry::instance().names())
    EXPECT_EQ(simulationHash<ParticleArrayAoS<double>>(Name, 5, 0, false, 20),
              Reference)
        << "backend=" << Name;
}

/// An asynchronous push backend runs stage 1 as the same fused launch,
/// event-chained into the wrap, so it must reproduce the all-serial loop
/// bit-for-bit for every lane count and deposit configuration.
TEST(TiledDepositionTest, SimulationHashInvariantForAsyncPushBackend) {
  const std::uint64_t Reference =
      simulationHash<ParticleArrayAoS<double>>("serial", 1, 0, true, 30);
  for (int Lanes : {1, 2, 4})
    EXPECT_EQ(simulationHash<ParticleArrayAoS<double>>(
                  "serial", 1, 0, true, 30, "async-pipeline", Lanes),
              Reference)
        << "lanes=" << Lanes;
  // Async push combined with parallel tiled deposition.
  EXPECT_EQ(simulationHash<ParticleArrayAoS<double>>(
                "openmp", 5, 0, true, 30, "async-pipeline", 2),
            Reference);
  EXPECT_EQ(simulationHash<ParticleArrayAoS<double>>(
                "async-pipeline", 3, 0, true, 30, "async-pipeline", 2),
            Reference);
}

TEST(TiledDepositionTest, SimulationHashInvariantForAsyncPushBackendSoA) {
  EXPECT_EQ(simulationHash<ParticleArraySoA<double>>(
                "dpcpp", 4, 0, true, 25, "async-pipeline", 2),
            simulationHash<ParticleArraySoA<double>>("serial", 1, 0, true,
                                                     25));
}

//===----------------------------------------------------------------------===//
// Simulation-level state-hash equivalence across *field* backends
//===----------------------------------------------------------------------===//

/// Like simulationHash, but configures the Maxwell field-solve stage
/// (and optionally the other two) on a power-of-two grid so both the
/// FDTD and the spectral solver run the same setup. The x-slab-tiled,
/// halo-exchanged FDTD launches and the k-space-parallel spectral
/// launches must reproduce the all-serial loop bit-for-bit for every
/// backend x tile count — including asynchronous field backends, where
/// the solve event-chains against the deposit reduction.
template <typename Array>
std::uint64_t fieldSimulationHash(FieldSolverKind Solver,
                                  const std::string &FieldBackend,
                                  int FieldTiles, int FieldThreads, int Steps,
                                  const std::string &PushBackend = "serial",
                                  const std::string &DepositBackend = "serial",
                                  int DepositTiles = 1) {
  const GridSize N{16, 4, 4};
  PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  Options.SortEveryNSteps = 7;
  Options.Solver = Solver;
  Options.PushBackend = PushBackend;
  Options.DepositBackend = DepositBackend;
  Options.DepositTiles = DepositTiles;
  Options.FieldBackend = FieldBackend;
  Options.FieldTiles = FieldTiles;
  Options.FieldThreads = FieldThreads;
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
  Sim.run(Steps);
  return picStateHash(Sim.particles(), Sim.grid());
}

TEST(TiledDepositionTest, SimulationHashInvariantAcrossFieldBackendsFdtd) {
  const std::uint64_t Reference = fieldSimulationHash<ParticleArrayAoS<double>>(
      FieldSolverKind::Fdtd, "serial", 1, 0, 100);
  for (const std::string &Name : exec::BackendRegistry::instance().names())
    for (int Tiles : {1, 4, 7})
      EXPECT_EQ(fieldSimulationHash<ParticleArrayAoS<double>>(
                    FieldSolverKind::Fdtd, Name, Tiles, 0, 100),
                Reference)
          << "field backend=" << Name << " tiles=" << Tiles;
  // Pinned worker counts must not change the result either.
  EXPECT_EQ(fieldSimulationHash<ParticleArrayAoS<double>>(
                FieldSolverKind::Fdtd, "openmp", 7, 2, 100),
            Reference);
}

TEST(TiledDepositionTest, SimulationHashInvariantAcrossFieldBackendsSpectral) {
  const std::uint64_t Reference = fieldSimulationHash<ParticleArrayAoS<double>>(
      FieldSolverKind::Spectral, "serial", 1, 0, 100);
  for (const std::string &Name : exec::BackendRegistry::instance().names())
    for (int Tiles : {1, 4, 7})
      EXPECT_EQ(fieldSimulationHash<ParticleArrayAoS<double>>(
                    FieldSolverKind::Spectral, Name, Tiles, 0, 100),
                Reference)
          << "field backend=" << Name << " tiles=" << Tiles;
}

TEST(TiledDepositionTest, SimulationHashInvariantAcrossFieldBackendsSoA) {
  const std::uint64_t Reference = fieldSimulationHash<ParticleArraySoA<double>>(
      FieldSolverKind::Fdtd, "serial", 1, 0, 100);
  for (const std::string &Name : exec::BackendRegistry::instance().names())
    EXPECT_EQ(fieldSimulationHash<ParticleArraySoA<double>>(
                  FieldSolverKind::Fdtd, Name, 4, 0, 100),
              Reference)
        << "field backend=" << Name;
}

TEST(TiledDepositionTest, SimulationHashInvariantForAsyncFieldChain) {
  // The asynchronous field path: the solve's launches event-chain
  // against the deposit reduction (the first FDTD half-step may overlap
  // it) — and the bits still cannot move, for any lane count x tile
  // count x solver, including the fully asynchronous loop where all
  // three stages run on async-pipeline backends.
  for (FieldSolverKind Solver :
       {FieldSolverKind::Fdtd, FieldSolverKind::Spectral}) {
    const std::uint64_t Reference =
        fieldSimulationHash<ParticleArrayAoS<double>>(Solver, "serial", 1, 0,
                                                      100);
    for (int Lanes : {1, 2})
      for (int Tiles : {1, 4, 7})
        EXPECT_EQ(fieldSimulationHash<ParticleArrayAoS<double>>(
                      Solver, "async-pipeline", Tiles, Lanes, 100),
                  Reference)
            << "lanes=" << Lanes << " tiles=" << Tiles;
    // Async field + parallel tiled deposit on another backend.
    EXPECT_EQ(fieldSimulationHash<ParticleArrayAoS<double>>(
                  Solver, "async-pipeline", 4, 2, 100, "serial", "openmp", 5),
              Reference);
    // The fully asynchronous PIC loop vs the all-serial one.
    EXPECT_EQ(fieldSimulationHash<ParticleArrayAoS<double>>(
                  Solver, "async-pipeline", 4, 2, 100, "async-pipeline",
                  "async-pipeline", 3),
              Reference);
  }
}

//===----------------------------------------------------------------------===//
// Discrete continuity under a parallel tiled deposit
//===----------------------------------------------------------------------===//

TEST(TiledDepositionTest, ContinuityHoldsUnderParallelDeposit) {
  // The Esirkepov property test extended to the full PIC step with a
  // multi-tile, multi-threaded deposit: (rho^{n+1} - rho^n)/dt + div J
  // must still vanish at every node, which it can only do if the tiles
  // jointly reproduce the exact serial scatter.
  const GridSize N{8, 6, 4};
  PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  Options.SortEveryNSteps = 0;
  Options.DepositBackend = "openmp";
  Options.DepositTiles = 5;
  PicSimulation<double> Sim(N, {0, 0, 0}, {0.5, 0.5, 0.5}, 256,
                            ParticleTypeTable<double>::natural(), Options);
  RandomStream<double> Rng(23);
  for (int P = 0; P < 128; ++P) {
    ParticleT<double> Particle;
    Particle.Position = {Rng.uniform(0.0, 4.0), Rng.uniform(0.0, 3.0),
                         Rng.uniform(0.0, 2.0)};
    Particle.Momentum = {Rng.uniform(-0.4, 0.4), Rng.uniform(-0.4, 0.4),
                         Rng.uniform(-0.4, 0.4)};
    Particle.Weight = Rng.uniform(0.5, 1.5);
    Particle.Type = P % 2 == 0 ? PS_Electron : PS_Positron;
    Sim.addParticle(Particle);
  }

  const double Dt = Sim.timeStep();
  ScalarLattice<double> RhoOld(N), RhoNew(N);
  for (int Step = 0; Step < 5; ++Step) {
    Sim.depositCharge(RhoOld);
    Sim.step();
    Sim.depositCharge(RhoNew);
    const YeeGrid<double> &G = Sim.grid();
    for (Index I = 0; I < N.Nx; ++I)
      for (Index J = 0; J < N.Ny; ++J)
        for (Index K = 0; K < N.Nz; ++K) {
          const double DivJ =
              (G.Jx(I, J, K) - G.Jx(I - 1, J, K)) / G.step().X +
              (G.Jy(I, J, K) - G.Jy(I, J - 1, K)) / G.step().Y +
              (G.Jz(I, J, K) - G.Jz(I, J, K - 1)) / G.step().Z;
          const double DRhoDt = (RhoNew(I, J, K) - RhoOld(I, J, K)) / Dt;
          ASSERT_NEAR(DRhoDt + DivJ, 0.0, 1e-10)
              << "step " << Step << " node " << I << "," << J << "," << K;
        }
  }
}

} // namespace
