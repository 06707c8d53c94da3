//===-- perfbench/src/Workloads.cpp - Seeded workload inputs --------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "pic/Diagnostics.h"
#include "pic/Scenarios.h"

#include <cmath>
#include <cstdio>
#include <filesystem>

using namespace hichi;
using namespace perfbench;

PicInputs perfbench::makeLangmuirDense(std::uint64_t Seed, int Threads) {
  PicInputs In;
  In.Workload = "langmuir-dense";
  In.Grid = {32, 8, 8};
  const int PerCell = 97;
  const GridSize N = In.Grid;
  const Index Count = N.count() * PerCell;
  const double BoxLength = double(N.Nx) * In.Step.X;
  const double Volume =
      BoxLength * double(N.Ny) * In.Step.Y * double(N.Nz) * In.Step.Z;
  // omega_p = 1 (the ROADMAP baseline plasma's weight choice).
  const double Weight = Volume / (4.0 * constants::Pi * double(Count));
  SeededRng Rng(Seed);
  const double Phase = 2.0 * constants::Pi * Rng.uniform();
  In.Particles.reserve(std::size_t(Count));
  for (Index C = 0; C < N.count(); ++C) {
    const Index I = C / (N.Ny * N.Nz);
    const Index J = (C / N.Nz) % N.Ny;
    const Index K = C % N.Nz;
    for (int P = 0; P < PerCell; ++P) {
      ParticleT<Real> Part;
      // Stratified along x (one sub-slot per particle), uniform in y/z.
      Part.Position = {(double(I) + (P + Rng.uniform()) / PerCell) * In.Step.X,
                       (double(J) + Rng.uniform()) * In.Step.Y,
                       (double(K) + Rng.uniform()) * In.Step.Z};
      const double Vx =
          0.02 * std::sin(2.0 * constants::Pi * Part.Position.X / BoxLength +
                          Phase);
      Part.Momentum = {Vx / std::sqrt(1 - Vx * Vx), 0, 0};
      Part.Weight = Weight;
      Part.Type = PS_Electron;
      In.Particles.push_back(Part);
    }
  }
  In.Capacity = Count;
  In.Options.LightVelocity = 1.0;
  In.Options.SortEveryNSteps = 10;
  In.Backend = "openmp";
  In.Threads = Threads;
  return In;
}

PicInputs perfbench::makeWindowSparse(std::uint64_t Seed, int Threads) {
  const GridSize N{256, 16, 16};
  const Real Amplitude = 0.05;
  pic::ScenarioSetup<Real> S =
      pic::makeMovingWindowScenario<Real>(N, /*PairsPerCell=*/1, Amplitude,
                                          /*WindowSpeed=*/1);
  PicInputs In;
  In.Workload = "window-sparse";
  In.Grid = S.Grid;
  In.Origin = S.Origin;
  In.Step = S.Step;
  In.Types = S.Types;
  SeededRng Rng(Seed);
  // The pair lattice keeps the scenario's quiet start (every pair at the
  // same point of its cell, members co-located so their currents cancel
  // bitwise) but at a seeded sub-cell offset instead of the cell centre.
  const Vector3<Real> Offset{Rng.uniform(), Rng.uniform(), Rng.uniform()};
  auto Place = [](Real X, Real O, Real D, Real Off) {
    return O + (std::floor((X - O) / D) + Off) * D;
  };
  In.Particles = S.Particles;
  for (ParticleT<Real> &P : In.Particles)
    P.Position = {Place(P.Position.X, S.Origin.X, S.Step.X, Offset.X),
                  Place(P.Position.Y, S.Origin.Y, S.Step.Y, Offset.Y),
                  Place(P.Position.Z, S.Origin.Z, S.Step.Z, Offset.Z)};
  // The scenario's transverse Gaussian pulse (Ey = Bz), centred at a
  // seeded fraction of the window instead of the scenario's fixed 0.65.
  const Real X0 =
      S.Origin.X + (0.55 + 0.2 * Rng.uniform()) * Real(N.Nx) * S.Step.X;
  const Real Sigma = 3 * S.Step.X;
  In.SeedFields = [X0, Sigma, Amplitude](pic::YeeGrid<Real> &G) {
    const GridSize Sz = G.size();
    const Vector3<Real> O = G.origin(), D = G.step();
    for (Index I = 0; I < Sz.Nx; ++I) {
      // Yee staggering: Ey at (i, j+1/2, k), Bz at (i+1/2, j+1/2, k).
      const Real XE = (O.X + Real(I) * D.X - X0) / Sigma;
      const Real XB = (O.X + (Real(I) + 0.5) * D.X - X0) / Sigma;
      const Real Ey = Amplitude * std::exp(-XE * XE);
      const Real Bz = Amplitude * std::exp(-XB * XB);
      for (Index J = 0; J < Sz.Ny; ++J)
        for (Index K = 0; K < Sz.Nz; ++K) {
          G.Ey(I, J, K) = Ey;
          G.Bz(I, J, K) = Bz;
        }
    }
  };
  In.Capacity = Index(In.Particles.size()) + S.ExtraCapacity;
  In.Options.LightVelocity = 1.0;
  In.Options.MovingWindow = S.MovingWindow;
  In.Options.UseStepGraph = true;
  In.Backend = "dpcpp";
  In.Threads = Threads;
  return In;
}

PicInputs perfbench::serialReference(PicInputs In) {
  In.Backend = "serial";
  In.Threads = 1;
  In.Options.UseStepGraph = false;
  return In;
}

std::unique_ptr<Simulation> perfbench::buildSimulation(const PicInputs &In) {
  pic::PicOptions<Real> Options = In.Options;
  Options.PushBackend = Options.DepositBackend = Options.FieldBackend =
      In.Backend;
  Options.PushThreads = Options.DepositThreads = Options.FieldThreads =
      In.Threads;
  auto Sim = std::make_unique<Simulation>(In.Grid, In.Origin, In.Step,
                                          In.Capacity, In.Types, Options);
  for (const ParticleT<Real> &P : In.Particles)
    Sim->addParticle(P);
  if (In.SeedFields)
    In.SeedFields(Sim->grid());
  return Sim;
}

std::vector<serve::JobSpec>
perfbench::makeServeJobs(std::uint64_t Seed, int Count,
                         const std::string &Prefix) {
  static const int NxChoices[3] = {16, 24, 32};
  // Stratified draws: each attribute cycles through its range in equal
  // shares and the seed shuffles every attribute on its own, so any two
  // seeds' batches hold the same mix of sizes in a different pairing and
  // order (a batch's total work barely moves with the seed).
  SeededRng Rng(Seed);
  auto Shuffled = [&](auto Value) {
    std::vector<int> Out;
    for (int I = 0; I < Count; ++I)
      Out.push_back(Value(I));
    for (int I = Count - 1; I > 0; --I)
      std::swap(Out[std::size_t(I)], Out[std::size_t(Rng.between(0, I))]);
    return Out;
  };
  const std::vector<int> Nx = Shuffled([](int I) { return NxChoices[I % 3]; });
  const std::vector<int> PerCell = Shuffled([](int I) { return 2 + I % 3; });
  const std::vector<int> Steps =
      Shuffled([Count](int I) { return 24 + (I * 25) / Count; });
  const std::vector<int> Tenant = Shuffled([](int I) { return I % 4; });
  std::vector<serve::JobSpec> Jobs;
  Jobs.reserve(std::size_t(Count));
  for (std::size_t I = 0; I < std::size_t(Count); ++I) {
    serve::JobSpec Spec;
    char Name[64];
    std::snprintf(Name, sizeof(Name), "%s-%04zu", Prefix.c_str(), I);
    Spec.Name = Name;
    Spec.Nx = Nx[I];
    Spec.PerCell = PerCell[I];
    Spec.Steps = Steps[I];
    Spec.Tenant = "tenant-" + std::to_string(Tenant[I]);
    Jobs.push_back(std::move(Spec));
  }
  return Jobs;
}

std::uint64_t perfbench::serveBatchSeed(std::uint64_t Seed, int Batch) {
  return SeededRng(Seed * 1000003ULL + std::uint64_t(std::int64_t(Batch)))
      .next();
}

ServeBatch perfbench::runServeBatch(serve::BackendPool &Pool,
                                    std::vector<serve::JobSpec> Jobs,
                                    const std::string &StateDir) {
  std::filesystem::create_directories(StateDir);
  serve::ServeConfig Config;
  Config.Workers = ServeWorkers;
  Config.BatchMax = ServeBatchMax;
  Config.QuantumSteps = ServeQuantumSteps;
  Config.StateDir = StateDir;
  serve::Scheduler Sched(Pool, Config);
  ServeBatch Out;
  Out.Jobs = std::move(Jobs);
  Stopwatch Wall;
  for (const serve::JobSpec &Spec : Out.Jobs)
    Sched.enqueue(Spec);
  Sched.run();
  Out.WallNs = double(Wall.elapsedNanoseconds());
  Out.Results = Sched.results();
  Out.Quanta = Sched.quantaExecuted();
  Out.FusedRounds = Sched.fusedRounds();
  return Out;
}

double perfbench::totalEnergy(const Simulation &Sim) {
  return Sim.kineticEnergy() + Sim.fieldEnergy();
}

std::uint64_t perfbench::stateHash(const Simulation &Sim) {
  return pic::picStateHash(Sim.particles(), Sim.grid());
}
