//===-- bench/bench_pic.cpp - PIC stage x backend x scenario bench --------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PIC benchmark: one measure loop over rows of (scenario,
/// PicOptions, recorded figure), grouped into six families by the serial
/// reference whose final state hash every row of the family must match.
/// A row records one figure per iteration: a stage's HostNs delta
/// (stage "push", "deposit", "field-solve"), the whole-step wall
/// ("step", "rebalance", "window-shift") or the submitOverhead()
/// SubmitNs delta ("submit").
///
///  - deposit: the tiled Esirkepov scatter per backend (every registered
///    one but "serial" and "auto") x worker count against the serial
///    particle-order scatter (push on "openmp").
///  - fields: the FDTD and the spectral solve per backend x worker
///    count, one serial reference per solver (push and deposit serial).
///  - sharded: the whole step with every stage on K persistent shards,
///    resubmitted and graph-replayed, against the all-serial loop.
///  - rebalance: the drifting-slab skew scenario, serial and 4 shards,
///    static and rebalanced; all four land on one hash.
///  - window: the pulse-tracking moving window, serial and 4 shards. A
///    run's shifts touch exactly 9 x Ny x Nz lattice elements per
///    shifted plane (equal at two Nx: O(shifted planes), not O(Nx)) and
///    retire as many particles as they inject.
///  - async: step-graph replay vs per-step resubmission with every stage
///    on "async-pipeline". At 8x4x4 graph mode must be strictly lower in
///    launches/step and in the median submit-us/step of five interleaved
///    pairs, with matching hashes.
///
/// Every family prints its own verdict line, and the bench exits nonzero
/// naming each family whose gate broke. HICHI_BENCH_BACKEND restricts
/// the sweeps to one backend (the serial references always run); sizes
/// come from HICHI_BENCH_PARTICLES / _STEPS / _ITERATIONS, and
/// HICHI_BENCH_JSON=<path> writes the hichi-bench-v1 records.
///
//===----------------------------------------------------------------------===//

#include "BenchmarkHarness.h"

#include "pic/Diagnostics.h"
#include "pic/ParticleSorter.h"
#include "pic/PicSimulation.h"
#include "pic/Scenarios.h"

#include <algorithm>
#include <thread>

using namespace hichi;
using namespace hichi::bench;
using namespace hichi::pic;

namespace {

using Options = PicOptions<double>;
using Scenario = ScenarioSetup<double>;

/// Fixed shard count of the rebalance and window families.
constexpr int FamilyShards = 4;
constexpr double RebalanceThreshold = 1.3;
constexpr int RebalanceEvery = 5;

/// One measured configuration: every figure per iteration, the submit
/// ledger of the measured window, and the end state the gates read.
struct Run {
  MeasuredSeries Push, Deposit, Field, Wall, Submit;
  Index Particles = 0;
  std::uint64_t Hash = 0;
  double LaunchesPerStep = 0, SpecsPerStep = 0, SubmitUsPerStep = 0;
  int DepositTiles = 0, FieldTiles = 0;
  std::vector<exec::ShardStat> Shards;
  RebalanceStats Rebalance;
  double WorkImbalance = 1; ///< max/mean particles per deposit tile
  long long Shifts = 0, ShiftedPlanes = 0;
  long long Retired = 0, Injected = 0;
  std::size_t TouchedElems = 0;
  GridSize Grid{0, 0, 0};

  /// The series a record of \p Stage carries.
  const MeasuredSeries &figure(const std::string &Stage) const {
    if (Stage == "push")
      return Push;
    if (Stage == "deposit")
      return Deposit;
    if (Stage == "field-solve")
      return Field;
    if (Stage == "submit")
      return Submit;
    return Wall; // "step", "rebalance", "window-shift"
  }
};

/// Deposit work imbalance of the final tile partition: max over mean
/// particle count across the tile plane ranges — the number the
/// rebalancer exists to pull down to ~1.
double depositWorkImbalance(const PicSimulation<double> &Sim) {
  const std::vector<Index> Bounds = Sim.depositTileBoundaries();
  if (Bounds.size() < 2)
    return 1.0;
  const std::vector<double> Planes = xPlaneOccupancy(
      Sim.particles(), CellIndexer<double>(Sim.grid().size(),
                                           Sim.grid().origin(),
                                           Sim.grid().step()));
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

/// The one measure loop: a fresh simulation of \p S under \p O, one
/// warmup iteration (first touch, shard lanes, the initial graph
/// capture), then Iterations x Steps measured steps.
Run measure(const Scenario &S, const Options &O, const BenchSizes &Sizes) {
  PicSimulation<double> Sim(S.Grid, S.Origin, S.Step,
                            Index(S.Particles.size()) + S.ExtraCapacity,
                            S.Types, O);
  seedScenario(Sim, S);
  Run Out;
  Out.Particles = Sim.particles().size();
  Sim.run(Sizes.StepsPerIteration);
  const RunStats Before = Sim.submitOverhead();
  for (int It = 0; It < Sizes.Iterations; ++It) {
    const double Push0 = Sim.pushStats().HostNs;
    const double Deposit0 = Sim.depositStats().HostNs;
    const double Field0 = Sim.fieldStats().HostNs;
    const double Submit0 = Sim.submitOverhead().SubmitNs;
    Stopwatch Watch;
    Sim.run(Sizes.StepsPerIteration);
    Out.Wall.IterationNs.push_back(double(Watch.elapsedNanoseconds()));
    Out.Push.IterationNs.push_back(Sim.pushStats().HostNs - Push0);
    Out.Deposit.IterationNs.push_back(Sim.depositStats().HostNs - Deposit0);
    Out.Field.IterationNs.push_back(Sim.fieldStats().HostNs - Field0);
    Out.Submit.IterationNs.push_back(Sim.submitOverhead().SubmitNs - Submit0);
  }
  for (MeasuredSeries *M :
       {&Out.Push, &Out.Deposit, &Out.Field, &Out.Wall, &Out.Submit}) {
    double Total = 0;
    for (double Ns : M->IterationNs)
      Total += Ns;
    M->Nsps = nsPerParticlePerStep(Total, Sizes.Iterations,
                                   double(Out.Particles),
                                   double(Sizes.StepsPerIteration));
  }
  const RunStats After = Sim.submitOverhead();
  const double Steps =
      double(Sizes.Iterations) * double(Sizes.StepsPerIteration);
  Out.LaunchesPerStep = double(After.Launches - Before.Launches) / Steps;
  Out.SpecsPerStep = double(After.SpecsBuilt - Before.SpecsBuilt) / Steps;
  Out.SubmitUsPerStep = (After.SubmitNs - Before.SubmitNs) / Steps / 1e3;
  Out.Hash = picStateHash(Sim.particles(), Sim.grid());
  Out.DepositTiles = Sim.depositTileCount();
  Out.FieldTiles = Sim.fieldTileCount();
  Out.Shards = Sim.shardStats();
  Out.Rebalance = Sim.rebalanceStats();
  Out.WorkImbalance = depositWorkImbalance(Sim);
  Out.Shifts = Sim.windowShiftCount();
  Out.ShiftedPlanes = (long long)Sim.windowOriginPlanes();
  Out.Retired = Sim.windowRetiredCount();
  Out.Injected = Sim.windowInjectedCount();
  Out.TouchedElems = Sim.grid().shiftTouchedElems();
  Out.Grid = Sim.grid().size();
  return Out;
}

/// One row of a family: a configuration and the record it writes.
struct Row {
  std::string Label;   ///< printed configuration name
  std::string Stage;   ///< record stage; picks the figure (Run::figure)
  std::string Backend; ///< record backend
  int Threads = 0;     ///< record threads
  std::string Submit = "mega-kernel";
  Options Opts;
};

BenchRecord recordOf(const Row &R, const std::string &ScenarioName,
                     const Run &Out, const BenchSizes &Sizes) {
  BenchRecord Rec;
  Rec.Backend = R.Backend;
  Rec.Stage = R.Stage;
  Rec.Scenario = ScenarioName;
  Rec.Layout = "aos";
  Rec.Precision = "double";
  Rec.Particles = (long long)Out.Particles;
  Rec.Steps = Sizes.StepsPerIteration;
  Rec.Iterations = Sizes.Iterations;
  Rec.Threads = R.Threads;
  Rec.Submit = R.Submit;
  Rec.setSeries(Out.figure(R.Stage));
  return Rec;
}

/// The options every family starts from.
Options baseOptions() {
  Options O;
  O.LightVelocity = 1.0;
  O.SortEveryNSteps = 20;
  return O;
}

/// \p O with all three stages on \p Backend at \p Threads.
Options onAllStages(Options O, const std::string &Backend, int Threads) {
  O.PushBackend = O.DepositBackend = O.FieldBackend = Backend;
  O.PushThreads = O.DepositThreads = O.FieldThreads = Threads;
  return O;
}

int hostThreads() {
  return int(std::max(1u, std::thread::hardware_concurrency()));
}

/// 1, 2, 4, ... up to and including the host's hardware threads.
std::vector<int> threadPoints() {
  const int Host = hostThreads();
  std::vector<int> Points;
  for (int T = 1; T <= Host; T *= 2)
    Points.push_back(T);
  if (Points.back() != Host)
    Points.push_back(Host);
  return Points;
}

/// Registered backends a stage sweep visits: all but the serial
/// reference and "auto" (whose factory returns one of the others),
/// restricted by HICHI_BENCH_BACKEND.
std::vector<std::string> sweepBackends() {
  std::vector<std::string> Names;
  for (const std::string &Name : exec::BackendRegistry::instance().names())
    if (Name != "serial" && Name != "auto" && envBackendSelected(Name))
      Names.push_back(Name);
  return Names;
}

/// Measures \p Rows on \p S (Rows[0] is the serial reference), adds one
/// record per row, prints one table line per row — \p Note adds a
/// family-specific column — and \returns the runs in row order.
/// \p HashesAgree turns false on any row whose hash differs from the
/// reference's.
template <typename NoteFn>
std::vector<Run> runRows(const Scenario &S, const std::string &ScenarioName,
                         const std::vector<Row> &Rows, const BenchSizes &Sizes,
                         JsonReport &Report, bool &HashesAgree, NoteFn Note) {
  std::printf("%-24s %12s %9s %10s  %s\n", "config", "ms", "speedup", "nsps",
              "notes");
  printRule(76);
  std::vector<Run> Runs;
  for (const Row &R : Rows) {
    Runs.push_back(measure(S, R.Opts, Sizes));
    const Run &Out = Runs.back();
    Report.add(recordOf(R, ScenarioName, Out, Sizes));
    const MeasuredSeries &Fig = Out.figure(R.Stage);
    const double RefNs = Runs.front().figure(R.Stage).medianNs();
    const bool HashOk = Out.Hash == Runs.front().Hash;
    HashesAgree = HashesAgree && HashOk;
    std::printf("%-24s %12.3f %8.2fx %10.3f  %s%s\n", R.Label.c_str(),
                Fig.medianNs() / 1e6,
                Fig.medianNs() > 0 ? RefNs / Fig.medianNs() : 0.0, Fig.Nsps,
                Note(Out).c_str(), HashOk ? "" : "  HASH MISMATCH");
  }
  return Runs;
}

/// The 32x8x8 Langmuir plasma of the deposit, fields and sharded
/// families, at about HICHI_BENCH_PARTICLES particles.
Scenario benchLangmuir(const BenchSizes &Sizes) {
  const GridSize N{32, 8, 8};
  return makeLangmuirScenario<double>(
      N, std::max(1, int(Sizes.Particles / N.count())));
}

/// printf-style note text with up to two numeric arguments.
std::string formatted(const char *Format, double A, double B = 0) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), Format, A, B);
  return Buf;
}

/// Prints one family's verdict line and \returns \p Ok.
bool verdict(const char *Family, bool Ok, const char *Claim) {
  std::printf("%s gate: %s (%s)\n\n", Family, Ok ? "OK" : "FAIL", Claim);
  return Ok;
}

bool depositFamily(const BenchSizes &Sizes, JsonReport &Report) {
  const Scenario S = benchLangmuir(Sizes);
  std::printf("deposit: tiled scatter per backend x threads, %zu particles "
              "on 32x8x8, push on 'openmp'\n",
              S.Particles.size());
  Options O = baseOptions();
  O.PushBackend = "openmp";
  O.DepositTiles = 1;
  std::vector<Row> Rows = {{"serial", "deposit", "serial", 1, "mega-kernel",
                            O}};
  const int Host = hostThreads();
  for (const std::string &Name : sweepBackends())
    for (int T : threadPoints()) {
      Options Sweep = O;
      Sweep.DepositBackend = Name;
      Sweep.DepositThreads = T;
      Sweep.DepositTiles = 2 * Host; // fixed, so only the workers vary
      Rows.push_back({Name + " x" + std::to_string(T), "deposit", Name, T,
                      "mega-kernel", Sweep});
    }
  bool Ok = true;
  const std::vector<Run> Runs =
      runRows(S, "langmuir", Rows, Sizes, Report, Ok, [](const Run &R) {
        return formatted("%.0f tiles", R.DepositTiles);
      });
  // The reference run also records the push stage it ran on "openmp".
  Report.add(recordOf({"", "push", "openmp", 0, "mega-kernel", O}, "langmuir",
                      Runs.front(), Sizes));
  return verdict("deposit", Ok,
                 "every backend x thread count matches the serial hash");
}

bool fieldsFamily(const BenchSizes &Sizes, JsonReport &Report) {
  const Scenario S = benchLangmuir(Sizes);
  const int Host = hostThreads();
  bool Ok = true;
  for (const FieldSolverKind Solver :
       {FieldSolverKind::Fdtd, FieldSolverKind::Spectral}) {
    const bool Fdtd = Solver == FieldSolverKind::Fdtd;
    std::printf("fields: %s solve per backend x threads, %zu particles on "
                "32x8x8, push and deposit on 'serial'\n",
                Fdtd ? "FDTD" : "spectral", S.Particles.size());
    Options O = baseOptions();
    O.Solver = Solver;
    O.FieldTiles = 1;
    std::vector<Row> Rows = {{"serial", "field-solve", "serial", 1,
                              "mega-kernel", O}};
    for (const std::string &Name : sweepBackends())
      for (int T : threadPoints()) {
        Options Sweep = O;
        Sweep.FieldBackend = Name;
        Sweep.FieldThreads = T;
        Sweep.FieldTiles = 2 * Host;
        Rows.push_back({Name + " x" + std::to_string(T), "field-solve", Name,
                        T, "mega-kernel", Sweep});
      }
    runRows(S, Fdtd ? "langmuir-fdtd" : "langmuir-spectral", Rows, Sizes,
            Report, Ok, [](const Run &R) {
              return formatted("%.0f tiles", R.FieldTiles);
            });
  }
  return verdict("fields", Ok,
                 "every backend x thread count matches the serial hash, "
                 "per solver");
}

bool shardedFamily(const BenchSizes &Sizes, JsonReport &Report) {
  const Scenario S = benchLangmuir(Sizes);
  std::printf("sharded: whole step on K shards, resubmitted and graph-"
              "replayed, %zu particles on 32x8x8\n",
              S.Particles.size());
  Options Graph = baseOptions();
  Graph.UseStepGraph = true;
  std::vector<Row> Rows = {
      {"serial", "step", "serial", 1, "event-chain", baseOptions()},
      {"serial graph", "step", "serial", 1, "graph", Graph}};
  if (envBackendSelected("sharded")) {
    // The backend caps shard counts at 64; clamp and dedupe the points
    // so every record's `threads` names the shard count that executed.
    const int Host = hostThreads();
    std::vector<int> Points;
    for (int K = 1; K <= std::max(Host, 4); K *= 2)
      Points.push_back(std::min(K, 64));
    Points.erase(std::unique(Points.begin(), Points.end()), Points.end());
    for (int K : Points) {
      Rows.push_back({"sharded x" + std::to_string(K), "step", "sharded", K,
                      "event-chain", onAllStages(baseOptions(), "sharded", K)});
      Rows.push_back({"sharded x" + std::to_string(K) + " graph", "step",
                      "sharded", K, "graph",
                      onAllStages(Graph, "sharded", K)});
    }
  }
  bool Ok = true;
  runRows(S, "langmuir-sharded", Rows, Sizes, Report, Ok, [](const Run &R) {
    return R.Shards.empty()
               ? std::string()
               : formatted("imbalance %.2fx", exec::shardImbalance(R.Shards));
  });
  return verdict("sharded", Ok,
                 "every shard count matches the serial hash, resubmitted "
                 "and graph-replayed");
}

bool rebalanceFamily(const BenchSizes &Sizes, JsonReport &Report) {
  const GridSize N{64, 8, 8};
  const Index SlabCells = (N.Nx / 4) * N.Ny * N.Nz;
  const Scenario S = makeDriftingSlabScenario<double>(
      N, std::max(1, int(Sizes.Particles / (SlabCells * 2))));
  std::printf("rebalance: drifting slab, %zu particles in the first 16 of "
              "64x8x8 planes, threshold %.2f every %d steps\n",
              S.Particles.size(), RebalanceThreshold, RebalanceEvery);
  Options Rebal = baseOptions();
  Rebal.RebalanceThreshold = RebalanceThreshold;
  Rebal.RebalanceEveryNSteps = RebalanceEvery;
  std::vector<Row> Rows = {
      {"serial", "step", "serial", 1, "event-chain", baseOptions()},
      {"serial+rebal", "rebalance", "serial", 1, "event-chain", Rebal}};
  if (envBackendSelected("sharded")) {
    Rows.push_back({"sharded static", "step", "sharded", FamilyShards,
                    "event-chain",
                    onAllStages(baseOptions(), "sharded", FamilyShards)});
    Rows.push_back({"sharded+rebal", "rebalance", "sharded", FamilyShards,
                    "event-chain",
                    onAllStages(Rebal, "sharded", FamilyShards)});
  }
  bool Ok = true;
  const std::vector<Run> Runs =
      runRows(S, "drifting-slab", Rows, Sizes, Report, Ok, [](const Run &R) {
        return formatted("imbalance %.2fx, %.0f fires", R.WorkImbalance,
                         double(R.Rebalance.Fires));
      });
  if (Runs.size() == 4 && Runs[3].Wall.Nsps > 0)
    std::printf("rebalancing at %d shards: %.2fx NSPS vs the static split "
                "(the gain needs >= %d physical cores)\n",
                FamilyShards, Runs[2].Wall.Nsps / Runs[3].Wall.Nsps,
                FamilyShards);
  return verdict("rebalance", Ok,
                 "serial and sharded, static and rebalanced, land on one "
                 "hash");
}

/// The O(shifted planes) invariant: a run's shifts touch exactly
/// 9 lattices x Ny x Nz elements per shifted plane — the retired plane
/// is zeroed for reuse and nothing else is written.
bool shiftCostIsPerPlane(const Run &R) {
  return R.TouchedElems == std::size_t(9) * std::size_t(R.Grid.Ny) *
                               std::size_t(R.Grid.Nz) *
                               std::size_t(R.ShiftedPlanes);
}

double touchedPerPlane(const Run &R) {
  return R.ShiftedPlanes > 0 ? double(R.TouchedElems) / double(R.ShiftedPlanes)
                             : 0.0;
}

bool windowFamily(const BenchSizes &Sizes, JsonReport &Report) {
  const GridSize N{64, 8, 8};
  const int PairsPerCell =
      std::max(1, int(Sizes.Particles / (N.count() * 2)));
  const Scenario S = makeMovingWindowScenario<double>(N, PairsPerCell);
  std::printf("window: pulse-tracking pair plasma, %d pairs/cell on a "
              "64x8x8 ring-window grid\n",
              PairsPerCell);
  Options O = baseOptions();
  O.MovingWindow = S.MovingWindow;
  std::vector<Row> Rows = {
      {"serial", "window-shift", "serial", 1, "event-chain", O}};
  if (envBackendSelected("sharded"))
    Rows.push_back({"sharded", "window-shift", "sharded", FamilyShards,
                    "event-chain", onAllStages(O, "sharded", FamilyShards)});
  bool Ok = true;
  const std::vector<Run> Runs =
      runRows(S, "moving-window", Rows, Sizes, Report, Ok, [](const Run &R) {
        return formatted("%.0f shifts, %.0f injected", double(R.Shifts),
                         double(R.Injected));
      });
  Ok = Ok && Runs.front().Shifts > 0;
  for (const Run &R : Runs)
    Ok = Ok && shiftCostIsPerPlane(R) && R.Retired == R.Injected;
  // A half-size window must pay exactly the full-size per-plane cost: a
  // storage scheme that memmoves the lattice would scale it with Nx.
  const GridSize NHalf{N.Nx / 2, N.Ny, N.Nz};
  const Scenario Half = makeMovingWindowScenario<double>(NHalf, PairsPerCell);
  Options HalfO = baseOptions();
  HalfO.MovingWindow = Half.MovingWindow;
  const Run HalfRun = measure(Half, HalfO, Sizes);
  const bool PerPlaneEqual =
      HalfRun.ShiftedPlanes > 0 && shiftCostIsPerPlane(HalfRun) &&
      touchedPerPlane(HalfRun) == touchedPerPlane(Runs.front());
  std::printf("shift cost: %.0f lattice elements per shifted plane at "
              "Nx=64, %.0f at Nx=32 (expected %lld = 9 x Ny x Nz)\n",
              touchedPerPlane(Runs.front()), touchedPerPlane(HalfRun),
              (long long)(9 * N.Ny * N.Nz));
  return verdict("window", Ok && PerPlaneEqual,
                 "one hash, retired == injected, 9 x Ny x Nz touched "
                 "elements per shifted plane at both Nx");
}

/// The run with the median submit-us/step of \p Runs (odd count).
Run medianRun(std::vector<Run> Runs) {
  const auto Mid = Runs.begin() + std::ptrdiff_t(Runs.size() / 2);
  std::nth_element(Runs.begin(), Mid, Runs.end(),
                   [](const Run &A, const Run &B) {
                     return A.SubmitUsPerStep < B.SubmitUsPerStep;
                   });
  return *Mid;
}

bool asyncFamily(const BenchSizes &Sizes, JsonReport &Report) {
  if (!envBackendSelected("async-pipeline"))
    return true;
  const int PerCell = 2; // small ensembles: submit overhead dominates
  std::printf("async: step-graph replay vs per-step resubmission, every "
              "stage on 'async-pipeline' x2, %d particles/cell; 8x4x4 is "
              "the median of 5 interleaved pairs\n",
              PerCell);
  std::printf("%-12s %10s %14s %12s %15s\n", "grid", "mode", "launches/step",
              "specs/step", "submit us/step");
  printRule(68);
  bool GraphWins = false, HashesAgree = true;
  const std::vector<GridSize> Grids = {{8, 4, 4}, {16, 8, 8}, {32, 8, 8}};
  for (std::size_t G = 0; G < Grids.size(); ++G) {
    const GridSize &N = Grids[G];
    const Scenario S = makeLangmuirScenario<double>(N, PerCell);
    const std::string Name = std::to_string(N.Nx) + "x" +
                             std::to_string(N.Ny) + "x" +
                             std::to_string(N.Nz);
    Row Modes[2] = {{"resubmit", "submit", "async-pipeline", 2, "resubmit",
                     baseOptions()},
                    {"graph", "submit", "async-pipeline", 2, "graph",
                     baseOptions()}};
    for (Row &R : Modes) {
      if (envTuneMode())
        exec::applyTunePlan(R.Opts, exec::Autotuner::hostPlan());
      R.Opts = onAllStages(R.Opts, "async-pipeline", 2);
      R.Opts.UseStepGraph = R.Submit == "graph";
    }
    std::vector<Run> Resubmits, Graphs;
    bool HashOk = true;
    for (int P = 0; P < (G == 0 ? 5 : 1); ++P) {
      Resubmits.push_back(measure(S, Modes[0].Opts, Sizes));
      Graphs.push_back(measure(S, Modes[1].Opts, Sizes));
      HashOk = HashOk && Graphs.back().Hash == Resubmits.back().Hash;
    }
    const Run Medians[2] = {medianRun(Resubmits), medianRun(Graphs)};
    HashesAgree = HashesAgree && HashOk;
    if (G == 0)
      GraphWins = Medians[1].LaunchesPerStep < Medians[0].LaunchesPerStep &&
                  Medians[1].SubmitUsPerStep < Medians[0].SubmitUsPerStep;
    for (int M = 0; M < 2; ++M) {
      Report.add(recordOf(Modes[M], "langmuir-" + Name, Medians[M], Sizes));
      std::printf("%-12s %10s %14.2f %12.2f %15.3f%s\n", Name.c_str(),
                  Modes[M].Label.c_str(), Medians[M].LaunchesPerStep,
                  Medians[M].SpecsPerStep, Medians[M].SubmitUsPerStep,
                  M == 1 && !HashOk ? "  HASH MISMATCH" : "");
    }
  }
  return verdict("async", GraphWins && HashesAgree,
                 "at 8x4x4 graph is strictly lower in launches/step and "
                 "median submit-us/step, and hashes match");
}

} // namespace

int main() {
  const BenchSizes Sizes = BenchSizes::fromEnv();
  std::printf("bench_pic: %d steps x %d iterations per configuration\n\n",
              Sizes.StepsPerIteration, Sizes.Iterations);
  JsonReport Report("bench_pic");
  // Under HICHI_BENCH_TUNE the archived records say which knob
  // assignment the autotuner would pick on this host.
  if (envTuneMode())
    Report.setTune(exec::Autotuner::hostPlan().reportLine());

  // The async family runs first, in a fresh process like the rest of
  // its submit-overhead history: its gate compares microseconds.
  const std::pair<const char *, bool (*)(const BenchSizes &, JsonReport &)>
      Families[] = {{"async", asyncFamily},         {"deposit", depositFamily},
                    {"fields", fieldsFamily},       {"sharded", shardedFamily},
                    {"rebalance", rebalanceFamily}, {"window", windowFamily}};
  std::string Failed;
  for (const auto &[Name, Family] : Families)
    if (!Family(Sizes, Report))
      Failed += (Failed.empty() ? "" : ", ") + std::string(Name);

  Report.writeEnvRequested();
  if (!Failed.empty()) {
    std::printf("bench_pic: FAIL (%s)\n", Failed.c_str());
    return 1;
  }
  std::printf("bench_pic: all six gate families OK\n");
  return 0;
}
