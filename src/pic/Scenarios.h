//===-- pic/Scenarios.h - Skew-driving PIC scenarios ------------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canned PIC scenarios: the uniform Langmuir ensemble, and the
/// workloads that create the occupancy skew the rebalancer
/// (pic/Rebalancer.h) exists for and that carry closed-form physics the
/// validation suite (tests/pic/ScenarioPhysicsTest.cpp) checks:
///
///  - langmuir: the cold plasma oscillation of examples/pic_langmuir.cpp,
///    the serving layer's job spec and bench/bench_pic.cpp — uniform
///    electrons with a standing sinusoidal x-velocity perturbation,
///    weighted so omega_p = 1.
///  - drifting-slab: a charge-neutral electron–positron pair slab
///    confined to a fraction of the box, drifting along x. Pairs are
///    co-located and array-adjacent, so their current contributions
///    cancel *bitwise* (a + (-a) == +0.0 before the next pair deposits)
///    — the fields stay exactly zero and the slab coasts ballistically
///    across the periodic box, acting as its own moving window: the
///    occupancy peak sweeps through any static partition, forcing the
///    rebalancer to refire periodically. Being field-free it doubles as
///    an exact-conservation testbed (per-particle momentum bitwise
///    constant; a rebalanced run is a pure permutation of a
///    non-rebalanced one).
///  - two-stream: cold symmetric counter-streaming electron beams over
///    a neutralizing proton background, seeded at the fastest-growing
///    mode. Closed-form dispersion (cold symmetric beams, per-beam
///    plasma frequency w_b, u = k v0): the unstable root is purely
///    growing with gamma^2 = sqrt(w_b^4 + 4 w_b^2 u^2) - u^2 - w_b^2,
///    maximized at u = sqrt(3)/2 w_b where gamma = w_b / 2 — the flat
///    maximum makes the measured rate insensitive to grid-k error.
///  - two-species: electrons over a mobile ion species of mass M (the
///    mass-ratio knob). Both species participate in the oscillation:
///    w^2 = w_pe^2 (1 + 1/M), i.e. the frequency shift scales as the
///    inverse mass ratio — measurable for small M, and the ratio
///    w(M1)/w(M2) = sqrt((1+1/M1)/(1+1/M2)) for any pair.
///  - density-gradient: an electron density ramp along x drifting into
///    an absorbing/open x boundary over a matching neutralizing proton
///    background — skewed occupancy AND a shrinking ensemble
///    (AbsorbingBoundary.h exercised end-to-end: bounded field energy,
///    monotone live count).
///
/// Builders return a ScenarioSetup (geometry + species + particles +
/// analytic expectations); examples, benches and tests all construct
/// their PicSimulation from the same setup so "the scenario" means one
/// thing everywhere.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_PIC_SCENARIOS_H
#define HICHI_PIC_SCENARIOS_H

#include "core/EnsembleInit.h"
#include "core/ParticleTypes.h"
#include "pic/PicSimulation.h"
#include "pic/YeeGrid.h"

#include <cmath>
#include <functional>
#include <string>
#include <vector>

namespace hichi {
namespace pic {

/// A ready-to-run scenario: grid geometry, species table, seeded
/// particle records, the option fragments the scenario requires, and
/// the closed-form expectations the physics tests gate on.
template <typename Real> struct ScenarioSetup {
  std::string Name;
  GridSize Grid{32, 4, 4};
  Vector3<Real> Origin{Real(0), Real(0), Real(0)};
  Vector3<Real> Step{Real(0.5), Real(0.5), Real(0.5)};
  ParticleTypeTable<Real> Types = ParticleTypeTable<Real>::natural();
  std::vector<ParticleT<Real>> Particles;
  Index AbsorbingCells = 0; ///< forward to PicOptions::AbsorbingCells
  Real ExpectedOmega = Real(0);      ///< analytic frequency (0 = n/a)
  Real ExpectedGrowthRate = Real(0); ///< analytic growth rate (0 = n/a)

  /// Forward to PicOptions::MovingWindow (Enabled = false for the
  /// fixed-window scenarios).
  MovingWindowOptions<Real> MovingWindow;

  /// Ensemble slots beyond Particles.size() the runner must allocate —
  /// moving-window injection headroom (pushBack's capacity guard is
  /// debug-only, so the runner sizes the array up front).
  Index ExtraCapacity = 0;

  /// Initial field configuration applied to the simulation's grid after
  /// seeding (null = start from zero fields): the laser-pulse seeder of
  /// the moving-window scenario.
  std::function<void(YeeGrid<Real> &)> SeedFields;
};

/// Seeds \p Sim with the scenario's particles (addParticle wraps
/// positions and recomputes gammas consistently with the simulation's
/// own light speed).
template <typename Real, typename Sim>
void seedScenario(Sim &Simulation, const ScenarioSetup<Real> &S) {
  for (const ParticleT<Real> &P : S.Particles)
    Simulation.addParticle(P);
  if (S.SeedFields)
    S.SeedFields(Simulation.grid());
}

/// The cold Langmuir oscillation (see file header): \p PerCell
/// electrons per cell, spread evenly along x within the cell, with
/// Vx = \p Amplitude * sin(K x), K = 2 pi / L, and the weight that makes
/// omega_p = 1 (4 pi n w = 1 over the whole box).
template <typename Real>
ScenarioSetup<Real> makeLangmuirScenario(GridSize N = {32, 4, 4},
                                         int PerCell = 4,
                                         Real Amplitude = Real(0.02)) {
  ScenarioSetup<Real> S;
  S.Name = "langmuir";
  S.Grid = N;
  const Real BoxLength = Real(N.Nx) * S.Step.X;
  const Real Volume =
      BoxLength * (Real(N.Ny) * S.Step.Y) * (Real(N.Nz) * S.Step.Z);
  const Index NumParticles = N.count() * PerCell;
  const Real Weight =
      Volume / (Real(4) * Real(constants::Pi) * Real(NumParticles));
  const Real K = Real(2) * Real(constants::Pi) / BoxLength;
  S.Particles.reserve(std::size_t(NumParticles));
  for (Index C = 0; C < N.count(); ++C) {
    const Index I = C / (N.Ny * N.Nz);
    const Index J = (C / N.Nz) % N.Ny;
    const Index K3 = C % N.Nz;
    for (int P = 0; P < PerCell; ++P) {
      ParticleT<Real> Part;
      Part.Position = {(Real(I) + Real(P + 0.5) / Real(PerCell)) * S.Step.X,
                       (Real(J) + Real(0.5)) * S.Step.Y,
                       (Real(K3) + Real(0.5)) * S.Step.Z};
      const Real Vx = Amplitude * std::sin(K * Part.Position.X);
      Part.Momentum = {Vx / std::sqrt(Real(1) - Vx * Vx), Real(0), Real(0)};
      Part.Weight = Weight;
      Part.Type = PS_Electron;
      S.Particles.push_back(Part);
    }
  }
  S.ExpectedOmega = Real(1);
  return S;
}

/// The drifting neutral pair slab (see file header): \p PairsPerCell
/// electron–positron pairs per cell in the x-slab
/// [0, SlabFraction * Nx), all drifting at \p Drift (units of c = 1).
/// Pairs are emitted member-adjacent and the cell sort is stable, so
/// the bitwise current cancellation survives every re-sort.
template <typename Real>
ScenarioSetup<Real> makeDriftingSlabScenario(GridSize N = {64, 4, 4},
                                             int PairsPerCell = 4,
                                             Real Drift = Real(0.2),
                                             Real SlabFraction = Real(0.25)) {
  ScenarioSetup<Real> S;
  S.Name = "drifting-slab";
  S.Grid = N;
  const Index SlabPlanes = Index(double(N.Nx) * double(SlabFraction));
  const Real Gamma =
      Real(1) / std::sqrt(Real(1) - Drift * Drift); // c = 1 (natural units)
  for (Index I = 0; I < SlabPlanes; ++I)
    for (Index J = 0; J < N.Ny; ++J)
      for (Index K = 0; K < N.Nz; ++K)
        for (int P = 0; P < PairsPerCell; ++P) {
          ParticleT<Real> Part;
          Part.Position = {(Real(I) + Real(P + 0.5) / Real(PairsPerCell)) *
                               S.Step.X,
                           (Real(J) + Real(0.5)) * S.Step.Y,
                           (Real(K) + Real(0.5)) * S.Step.Z};
          Part.Momentum = {Gamma * Drift, Real(0), Real(0)}; // m = 1
          Part.Weight = Real(0.01);
          Part.Gamma = Gamma;
          Part.Type = PS_Electron;
          S.Particles.push_back(Part);
          Part.Type = PS_Positron; // co-located, identical trajectory
          S.Particles.push_back(Part);
        }
  return S;
}

/// Cold symmetric two-stream instability at the fastest-growing mode.
/// Per-beam plasma frequency is normalized to w_b = 1 via the particle
/// weight; the beam speed is chosen so u = k v0 = sqrt(3)/2 exactly,
/// hence ExpectedGrowthRate = 0.5. \p Mode picks the excited harmonic
/// (k = 2 pi Mode / L); each cell holds \p PerBeamPerCell electrons per
/// beam plus a neutralizing proton background at rest.
template <typename Real>
ScenarioSetup<Real> makeTwoStreamScenario(GridSize N = {64, 4, 4},
                                          int PerBeamPerCell = 1,
                                          int Mode = 15) {
  ScenarioSetup<Real> S;
  S.Name = "two-stream";
  S.Grid = N;
  const Real BoxLength = Real(N.Nx) * S.Step.X;
  const Real K = Real(2) * Real(constants::Pi) * Real(Mode) / BoxLength;
  const Real V0 = Real(std::sqrt(3.0) / 2.0) / K; // u = k v0 = sqrt(3)/2
  const Real CellVolume = S.Step.X * S.Step.Y * S.Step.Z;
  // 4 pi n_b w = w_b^2 = 1 per beam, n_b = PerBeamPerCell / cell volume.
  const Real Weight =
      CellVolume / (Real(4) * Real(constants::Pi) * Real(PerBeamPerCell));
  const Real Perturb = Real(1e-3) * V0; // seeds the mode above noise
  appendColdBeam(S.Particles, N, S.Origin, S.Step, PerBeamPerCell,
                 short(PS_Electron), Real(1), Weight, V0, Real(1), Index(0),
                 N.Nx, Perturb, K);
  appendColdBeam(S.Particles, N, S.Origin, S.Step, PerBeamPerCell,
                 short(PS_Electron), Real(1), Weight, -V0, Real(1), Index(0),
                 N.Nx, Perturb, K);
  appendColdBeam(S.Particles, N, S.Origin, S.Step, 2 * PerBeamPerCell,
                 short(PS_Proton), S.Types[PS_Proton].Mass, Weight, Real(0),
                 Real(1), Index(0), N.Nx);
  S.ExpectedGrowthRate = Real(0.5); // w_b / 2 at u = sqrt(3)/2 w_b
  return S;
}

/// Electron–ion plasma oscillation with a *mobile* ion species of mass
/// \p IonMass (the mass-ratio knob): both species oscillate, so
/// w^2 = w_pe^2 (1 + 1/M) with w_pe = 1 set by the electron weight.
/// Electrons get the standing velocity perturbation (fundamental mode),
/// ions start at rest.
template <typename Real>
ScenarioSetup<Real> makeTwoSpeciesScenario(Real IonMass,
                                           GridSize N = {32, 4, 4},
                                           int PerCell = 4) {
  ScenarioSetup<Real> S;
  S.Name = "two-species";
  S.Grid = N;
  const short IonType = S.Types.addSpecies(IonMass, Real(1));
  const Real BoxLength = Real(N.Nx) * S.Step.X;
  const Real K = Real(2) * Real(constants::Pi) / BoxLength;
  const Real CellVolume = S.Step.X * S.Step.Y * S.Step.Z;
  const Real Weight =
      CellVolume / (Real(4) * Real(constants::Pi) * Real(PerCell));
  appendColdBeam(S.Particles, N, S.Origin, S.Step, PerCell,
                 short(PS_Electron), Real(1), Weight, Real(0), Real(1),
                 Index(0), N.Nx, Real(0.02), K);
  appendColdBeam(S.Particles, N, S.Origin, S.Step, PerCell, IonType, IonMass,
                 Weight, Real(0), Real(1), Index(0), N.Nx);
  S.ExpectedOmega = std::sqrt(Real(1) + Real(1) / IonMass);
  return S;
}

/// Electron density ramp (MinFactor..MaxFactor x PerCell across the
/// interior) drifting at \p Drift into an absorbing x boundary, over a
/// count-matched proton background at rest (initially neutral). The
/// interior excludes the sponge so no particle starts inside it; the
/// drift then feeds the right layer and the live count must fall
/// monotonically while the sponge keeps the field energy bounded.
template <typename Real>
ScenarioSetup<Real> makeDensityGradientScenario(GridSize N = {64, 4, 4},
                                                int PerCell = 4,
                                                Real Drift = Real(0.15),
                                                Index LayerCells = 6) {
  ScenarioSetup<Real> S;
  S.Name = "density-gradient";
  S.Grid = N;
  S.AbsorbingCells = LayerCells;
  const Real CellVolume = S.Step.X * S.Step.Y * S.Step.Z;
  // Mean plasma frequency 0.5 (slow dynamics relative to the drift).
  const Real Weight = Real(0.25) * CellVolume /
                      (Real(4) * Real(constants::Pi) * Real(PerCell));
  const Index Begin = LayerCells, End = N.Nx - LayerCells;
  appendDensityRampX(S.Particles, N, S.Origin, S.Step, PerCell,
                     short(PS_Electron), Real(1), Weight, Drift, Real(1),
                     Begin, End, Real(0.2), Real(1.8));
  appendDensityRampX(S.Particles, N, S.Origin, S.Step, PerCell,
                     short(PS_Proton), S.Types[PS_Proton].Mass, Weight,
                     Real(0), Real(1), Begin, End, Real(0.2), Real(1.8));
  return S;
}

/// Pulse-tracking laser–plasma moving window (the paper's production
/// use case): a transverse Gaussian pulse (Ey = Bz, the +x-propagating
/// combination) rides through a neutral pair plasma at rest while the
/// window follows it at \p WindowSpeed (units of c). The trailing edge
/// retires plasma the pulse has left behind; the leading edge injects
/// fresh pairs with the same deterministic placement the seeding used,
/// so the pulse always sees undisturbed plasma ahead — the skew
/// workload the rebalancer exists for, now with the domain itself
/// moving. Pairs are emitted record-adjacent (the drifting-slab idiom):
/// until the pulse separates them their currents cancel bitwise.
template <typename Real>
ScenarioSetup<Real> makeMovingWindowScenario(GridSize N = {64, 4, 4},
                                             int PairsPerCell = 2,
                                             Real PulseAmplitude = Real(0.05),
                                             Real WindowSpeed = Real(1)) {
  ScenarioSetup<Real> S;
  S.Name = "moving-window";
  S.Grid = N;
  const Real Weight = Real(0.01);
  for (Index I = 0; I < N.Nx; ++I)
    for (Index J = 0; J < N.Ny; ++J)
      for (Index K = 0; K < N.Nz; ++K)
        for (int P = 0; P < PairsPerCell; ++P) {
          ParticleT<Real> Part;
          Part.Position = {S.Origin.X + (Real(I) + Real(P + 0.5) /
                                                       Real(PairsPerCell)) *
                                            S.Step.X,
                           S.Origin.Y + (Real(J) + Real(0.5)) * S.Step.Y,
                           S.Origin.Z + (Real(K) + Real(0.5)) * S.Step.Z};
          Part.Momentum = Vector3<Real>::zero();
          Part.Weight = Weight;
          Part.Gamma = Real(1);
          Part.Type = PS_Electron;
          S.Particles.push_back(Part);
          Part.Type = PS_Positron; // co-located: currents cancel bitwise
          S.Particles.push_back(Part);
        }
  const Real X0 = S.Origin.X + Real(0.65) * Real(N.Nx) * S.Step.X;
  const Real Sigma = Real(3) * S.Step.X;
  S.SeedFields = [X0, Sigma, PulseAmplitude](YeeGrid<Real> &G) {
    const GridSize Sz = G.size();
    const Vector3<Real> O = G.origin();
    const Vector3<Real> D = G.step();
    for (Index I = 0; I < Sz.Nx; ++I) {
      // Yee staggering: Ey lives at (i, j+1/2, k), Bz at (i+1/2, ...).
      const Real XE = (O.X + Real(I) * D.X - X0) / Sigma;
      const Real XB = (O.X + (Real(I) + Real(0.5)) * D.X - X0) / Sigma;
      const Real Ey = PulseAmplitude * std::exp(-XE * XE);
      const Real Bz = PulseAmplitude * std::exp(-XB * XB);
      for (Index J = 0; J < Sz.Ny; ++J)
        for (Index K = 0; K < Sz.Nz; ++K) {
          G.Ey(I, J, K) = Ey;
          G.Bz(I, J, K) = Bz;
        }
    }
  };
  S.MovingWindow.Enabled = true;
  S.MovingWindow.Speed = WindowSpeed;
  S.MovingWindow.InjectPerCell = PairsPerCell;
  S.MovingWindow.InjectType = short(PS_Electron);
  S.MovingWindow.InjectPairType = short(PS_Positron);
  S.MovingWindow.InjectWeight = Weight;
  // Injection lands after retirement within one shift, so the live
  // count is steady; a few planes of slack absorbs profile rounding.
  S.ExtraCapacity = Index(4) * N.Ny * N.Nz * Index(2 * PairsPerCell);
  return S;
}

} // namespace pic
} // namespace hichi

#endif // HICHI_PIC_SCENARIOS_H
