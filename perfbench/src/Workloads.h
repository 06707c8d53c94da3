//===-- perfbench/src/Workloads.h - Seeded workload inputs ------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inputs of the two workloads and of the traced run's serve batch,
/// generated from the command-line seed:
///
///  - langmuir-dense: a 32x8x8 cold Langmuir plasma, 97 electrons per
///    cell; the seed sets each particle's sub-cell placement and the
///    phase of the velocity perturbation.
///  - window-sparse: the moving-window pulse tracker on 256x16x16 cells
///    with one electron-positron pair per cell; the seed sets the pulse
///    centre and the pair lattice's sub-cell placement.
///  - the serve batch (traced run only): a closed batch of Langmuir
///    jobs; the seed draws each job's grid length, density, step count
///    and tenant.
///
/// The program receives only these inputs: particle records, the field
/// seeder, option values, and job specs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "pic/PicSimulation.h"
#include "serve/Scheduler.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Real = double;
using Simulation = hichi::pic::PicSimulation<Real>;

/// Deterministic 64-bit generator (SplitMix64): the same seed gives the
/// same stream on every platform.
class SeededRng {
public:
  explicit SeededRng(std::uint64_t Seed) : State(Seed) {}
  std::uint64_t next() {
    std::uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return double(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [Lo, Hi].
  int between(int Lo, int Hi) {
    return Lo + int(next() % std::uint64_t(Hi - Lo + 1));
  }

private:
  std::uint64_t State;
};

/// A PIC workload's complete input: geometry, species, particle records,
/// initial fields and the stage configuration it runs under.
struct PicInputs {
  std::string Workload;
  hichi::GridSize Grid{1, 1, 1};
  hichi::Vector3<Real> Origin{0, 0, 0};
  hichi::Vector3<Real> Step{0.5, 0.5, 0.5};
  hichi::ParticleTypeTable<Real> Types =
      hichi::ParticleTypeTable<Real>::natural();
  std::vector<hichi::ParticleT<Real>> Particles;
  hichi::Index Capacity = 0;
  std::function<void(hichi::pic::YeeGrid<Real> &)> SeedFields;
  hichi::pic::PicOptions<Real> Options;
  /// Stage backend name and width (all three stages share them).
  std::string Backend;
  int Threads = 1;
};

/// langmuir-dense inputs; all stages on "openmp" at \p Threads, classic
/// step, cell sort every 10 steps.
PicInputs makeLangmuirDense(std::uint64_t Seed, int Threads);

/// window-sparse inputs; all stages on "dpcpp" at \p Threads with
/// step-graph replay, window moving at c.
PicInputs makeWindowSparse(std::uint64_t Seed, int Threads);

/// The same inputs with every stage on "serial", classic step: the
/// bitwise reference the correctness gate compares against.
PicInputs serialReference(PicInputs In);

/// Constructs the simulation \p In describes and seeds it.
std::unique_ptr<Simulation> buildSimulation(const PicInputs &In);

/// Seeded serve-batch job specs: \p Count jobs named "<Prefix>-<i>".
std::vector<hichi::serve::JobSpec> makeServeJobs(std::uint64_t Seed, int Count,
                                                 const std::string &Prefix);

/// The job seed of serve batch \p Batch.
std::uint64_t serveBatchSeed(std::uint64_t Seed, int Batch);

/// The serve batch's configuration: scheduler workers plus pool lanes
/// stay within a 4-core host.
constexpr int ServeWorkers = 2;
constexpr int ServeLanes = 2;
constexpr int ServeLanesPerJob = 1;
constexpr int ServeBatchMax = 2;
constexpr int ServeQuantumSteps = 12;
/// Jobs per closed batch (all queued at t = 0).
constexpr int ServeBatchJobs = 100;

/// One closed batch through a fresh serve::Scheduler over \p Pool.
struct ServeBatch {
  std::vector<hichi::serve::JobSpec> Jobs;
  std::vector<hichi::serve::JobResult> Results;
  double WallNs = 0;
  long long Quanta = 0;
  long long FusedRounds = 0;
};

/// Queues every job of \p Jobs at once and runs them to a terminal state,
/// with quantum checkpoints under \p StateDir (created if missing).
ServeBatch runServeBatch(hichi::serve::BackendPool &Pool,
                         std::vector<hichi::serve::JobSpec> Jobs,
                         const std::string &StateDir);

/// Total (kinetic + field) energy.
double totalEnergy(const Simulation &Sim);

/// The final state hash of the library's diagnostics.
std::uint64_t stateHash(const Simulation &Sim);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
