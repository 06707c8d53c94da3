//===-- perfbench/src/Layers.cpp - The traced run -------------------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run (--trace 1). Spans are recorded here, around the calls
/// the benchmark makes into each library layer; nothing inside src/ is
/// instrumented. Four parts, each on the inputs its layers serve:
///
///  1. Stage composition on the workload's PIC inputs (window-sparse's
///     with the window at rest): the
///     classic step re-spelled stage by stage from public calls — gather,
///     Boris push, wrap, tiled deposit, FDTD solve, cell sort — next to
///     PicSimulation::step() on the same inputs. The two must reach the
///     same picStateHash, so the spans describe the program the
///     end-to-end run timed.
///  2. Window costs on window-sparse's inputs, window moving.
///  3. Execution layers: empty launches per backend, and the gather+push
///     pass on dpcpp against openmp.
///  4. Checkpoints and one batch of 100 jobs through serve::Scheduler.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Stats.h"
#include "Trace.h"
#include "Workloads.h"

#include "core/EnsembleOps.h"
#include "exec/BackendRegistry.h"
#include "pic/FdtdSolver.h"
#include "pic/FieldInterpolator.h"
#include "pic/ParticleSorter.h"
#include "pic/TiledCurrentAccumulator.h"
#include "serve/Scheduler.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>

using namespace hichi;
using namespace perfbench;

namespace {

using Ensemble = ParticleArrayAoS<Real>;
using EnsembleView = decltype(std::declval<Ensemble &>().view());

/// Untimed steps before part 1 and part 2 measure.
constexpr int WarmupSteps = 2;
/// Part 1 measures at least this many composed steps (50 with the
/// warm-up: a multiple of both workloads' sort periods) and keeps
/// stepping until half of --seconds has passed.
constexpr int ComposedSteps = 48;
/// Moving-window steps timed in part 2.
constexpr int WindowSteps = 60;
/// Empty launches timed per backend in part 3.
constexpr int LaunchProbes = 400;
/// Seeded draws of serve-batch jobs to check against
/// serve::runStandalone in part 4 (a job drawn twice is checked once).
constexpr int VerifiedJobs = 4;

/// Stage 1a: sample the fields at every particle, keeping the unwrapped
/// old position (PicSimulation's precalc kernel, as a named body).
struct GatherBody {
  EnsembleView View;
  pic::YeeInterpolator<Real> Interp;
  Vector3<Real> *OldPos;
  FieldSample<Real> *Samples;
  void operator()(Index Begin, Index End, int, int) const {
    for (Index I = Begin; I < End; ++I) {
      const Vector3<Real> Pos = View[I].position();
      OldPos[I] = Pos;
      Samples[I] = Interp(Pos, Real(0), I);
    }
  }
};

/// Stage 1b: the Boris push over the gathered samples.
struct PushBody {
  EnsembleView View;
  const FieldSample<Real> *Samples;
  const ParticleTypeInfo<Real> *Types;
  Real Dt, C;
  void operator()(Index Begin, Index End, int, int) const {
    for (Index I = Begin; I < End; ++I)
      BorisPusher::push<Real>(View[I], Samples[I], Types, Dt, C);
  }
};

struct EmptyBody {
  void operator()(Index, Index, int, int) const {}
};

template <typename Body>
void launch(exec::ExecutionBackend &Exec, const exec::ExecutionContext &Ctx,
            RunStats &Stats, Index Items, const Body &B) {
  exec::LaunchSpec Spec;
  Spec.Items = Items;
  Spec.StepEnd = 1;
  Exec.submit(Spec, exec::StepKernel(B, exec::kernelIdentity<Body>()), Ctx,
              Stats)
      .wait();
}

/// A backend plus the queue the minisycl-backed kinds need.
struct Backend {
  Backend(const std::string &Name, int Threads)
      : Exec(exec::createBackend(Name, {Threads, /*Grain=*/0})) {
    if (Exec->needsQueue())
      Queue = std::make_unique<minisycl::queue>(minisycl::cpu_device());
    Ctx.Queue = Queue.get();
  }
  std::unique_ptr<exec::ExecutionBackend> Exec;
  std::unique_ptr<minisycl::queue> Queue;
  exec::ExecutionContext Ctx;
};

/// PicSimulation's stage tile count: 1 on serial, else two per worker.
int stageTiles(const std::string &Name, int Threads) {
  return Name == "serial" ? 1 : 2 * Threads;
}

/// The gather + push pass of \p Particles through \p B.
void gatherPush(Backend &B, Ensemble &Particles, const pic::YeeGrid<Real> &Grid,
                const ParticleTypeInfo<Real> *Types, Real Dt, Real C,
                std::vector<Vector3<Real>> &OldPos,
                std::vector<FieldSample<Real>> &Samples, RunStats &Stats,
                Tracer *T) {
  const Index N = Particles.size();
  OldPos.resize(std::size_t(N));
  Samples.resize(std::size_t(N));
  const EnsembleView View = Particles.view();
  {
    const int Id = T ? T->begin("pic.gather") : -1;
    launch(*B.Exec, B.Ctx, Stats, N,
           GatherBody{View, pic::YeeInterpolator<Real>(Grid), OldPos.data(),
                      Samples.data()});
    if (T)
      T->end(Id);
  }
  const int Id = T ? T->begin("core.push") : -1;
  launch(*B.Exec, B.Ctx, Stats, N,
         PushBody{View, Samples.data(), Types, Dt, C});
  if (T)
    T->end(Id);
}

/// The classic step, stage by stage, over \p Sim's own grid and particles
/// (Sim.step() is never called on it).
class ComposedStep {
public:
  ComposedStep(Simulation &Sim, const PicInputs &In, Tracer &T)
      : Sim(Sim), T(T), C(In.Options.LightVelocity),
        SortEvery(In.Options.SortEveryNSteps),
        Stage(In.Backend, In.Threads), OneThread(In.Backend, 1),
        Acc(In.Grid, In.Origin, In.Step, stageTiles(In.Backend, In.Threads)),
        OneThreadAcc(In.Grid, In.Origin, In.Step, stageTiles(In.Backend, 1)),
        Solver(In.Options.LightVelocity),
        Partition(In.Grid, stageTiles(In.Backend, In.Threads)),
        Indexer(Sim.grid()), Scratch(Sim.grid()) {}

  RunStats DepositStats;

  void step() {
    pic::YeeGrid<Real> &Grid = Sim.grid();
    Ensemble &Particles = Sim.particles();
    const Real Dt = Sim.timeStep();
    const ParticleTypeInfo<Real> *Types = Sim.types().data();
    const Index N = Particles.size();
    bool Sorted = false;
    {
      ScopedSpan StepSpan(T, "pic.step");
      Grid.clearCurrent();
      gatherPush(Stage, Particles, Grid, Types, Dt, C, OldPos, Samples,
                 PushStats, &T);
      {
        ScopedSpan S(T, "pic.wrap");
        NewPos.resize(std::size_t(N));
        const EnsembleView View = Particles.view();
        for (Index I = 0; I < N; ++I) {
          const Vector3<Real> Pos = View[I].position();
          NewPos[std::size_t(I)] = Pos;
          View[I].setPosition(Grid.wrapPosition(Pos));
        }
      }
      {
        ScopedSpan S(T, "pic.deposit");
        Acc.deposit(Grid, Particles.view(), OldPos.data(), NewPos.data(),
                    Types, Dt, /*ChargeConserving=*/true, *Stage.Exec,
                    Stage.Ctx, DepositStats);
      }
      {
        ScopedSpan S(T, "pic.field");
        Solver.step(Grid, Dt, Partition, *Stage.Exec, Stage.Ctx, FieldStats);
      }
      ++Steps;
      if (SortEvery > 0 && Steps % SortEvery == 0) {
        ScopedSpan S(T, "pic.sort");
        pic::sortByCell(Particles, Indexer);
        Sorted = true;
      }
    }
    // The one-thread deposit of the same move, into a scratch grid and
    // outside the step span (a sort just permuted the particles the
    // endpoints were recorded for, so sort steps skip it).
    if (!Sorted) {
      ScopedSpan S(T, "pic.deposit.one_thread");
      Scratch.clearCurrent();
      OneThreadAcc.deposit(Scratch, Particles.view(), OldPos.data(),
                           NewPos.data(), Types, Dt, true, *OneThread.Exec,
                           OneThread.Ctx, OneThreadStats);
    }
  }

private:
  Simulation &Sim;
  Tracer &T;
  Real C;
  int SortEvery;
  int Steps = 0;
  Backend Stage, OneThread;
  pic::TiledCurrentAccumulator<Real> Acc, OneThreadAcc;
  pic::FdtdSolver<Real> Solver;
  pic::FdtdSlabPartition<Real> Partition;
  pic::CellIndexer<Real> Indexer;
  pic::YeeGrid<Real> Scratch;
  std::vector<Vector3<Real>> OldPos, NewPos;
  std::vector<FieldSample<Real>> Samples;
  RunStats PushStats, FieldStats, OneThreadStats;
};

/// A copy of \p Src (ensembles own USM storage and are move-only).
Ensemble copyEnsemble(const Ensemble &Src) {
  Ensemble Out(Src.capacity());
  const auto View = Src.view();
  for (Index I = 0; I < View.size(); ++I)
    Out.pushBack(View[I].load());
  return Out;
}

double medianSpan(const Tracer &T, const std::string &Name, int FromId = 0) {
  return medianOf(T.durations(Name, FromId));
}

/// Part 1: stage composition next to PicSimulation::step().
void traceStages(const BenchArgs &Args, Tracer &T, RunResult &Result) {
  PicInputs In = Args.Workload == "window-sparse"
                     ? makeWindowSparse(Args.Seed, Args.Threads)
                     : makeLangmuirDense(Args.Seed, Args.Threads);
  In.Options.MovingWindow.Enabled = false; // the window at rest
  std::printf("part 1: stage composition on %s inputs (%zu particles, %s "
              "x%d)\n",
              In.Workload.c_str(), In.Particles.size(), In.Backend.c_str(),
              In.Threads);
  std::unique_ptr<Simulation> Whole = buildSimulation(In);
  std::unique_ptr<Simulation> Parts = buildSimulation(In);
  ComposedStep Composed(*Parts, In, T);
  for (int S = 0; S < WarmupSteps; ++S) {
    Whole->step();
    Composed.step();
  }

  // Untraced PicSimulation::step(), timed per call, interleaved with the
  // traced stage-by-stage step so both see the same host conditions.
  const RunStats Before = Whole->submitOverhead();
  const int From = int(T.spans().size());
  const long long Launches0 = Composed.DepositStats.Launches;
  std::vector<double> StepNs;
  Stopwatch Total;
  while (StepNs.size() < std::size_t(ComposedSteps) ||
         Total.elapsedSeconds() < Args.Seconds / 2) {
    Stopwatch Watch;
    Whole->step();
    StepNs.push_back(double(Watch.elapsedNanoseconds()));
    Composed.step();
  }
  const RunStats After = Whole->submitOverhead();
  const int Steps = int(StepNs.size());

  const std::uint64_t WholeHash = stateHash(*Whole);
  const std::uint64_t PartsHash = stateHash(*Parts);
  const bool Match = WholeHash == PartsHash;
  std::printf("composed step hash %016llx, PicSimulation::step() %016llx "
              "(%s) after %d steps\n",
              (unsigned long long)PartsHash, (unsigned long long)WholeHash,
              Match ? "match" : "MISMATCH", WarmupSteps + Steps);
  Result.Attempted += Steps;
  if (!Match) {
    Result.Failed += Steps;
    Result.Correct = false;
  }

  const double N = double(Parts->particles().size());
  const double Cells = double(In.Grid.count());
  const double Deposit = medianSpan(T, "pic.deposit", From);
  Result.set("pic.gather.ns_per_particle",
             medianSpan(T, "pic.gather", From) / N);
  Result.set("core.push.ns_per_particle", medianSpan(T, "core.push", From) / N);
  Result.set("pic.wrap.ns_per_particle", medianSpan(T, "pic.wrap", From) / N);
  Result.set("pic.deposit.ns_per_particle", Deposit / N);
  Result.set("pic.deposit.launches_per_step",
             double(Composed.DepositStats.Launches - Launches0) /
                 Steps);
  Result.set("pic.deposit.scaling",
             medianSpan(T, "pic.deposit.one_thread", From) / Deposit,
             "(1 thread / " + std::to_string(In.Threads) + " threads)");
  Result.set("pic.field.ns_per_cell", medianSpan(T, "pic.field", From) / Cells);
  Result.set("pic.sort.ns_per_particle", medianSpan(T, "pic.sort", From) / N,
             "(n=" + std::to_string(T.durations("pic.sort", From).size()) +
                 " sorts)");
  Result.set("pic.step.unattributed_ns",
             medianOf(T.selfTimes("pic.step", From)));
  Result.set("exec.launches_per_step",
             double(After.Launches - Before.Launches) / Steps);
  Result.set("exec.submit_ns_per_step",
             (After.SubmitNs - Before.SubmitNs) / Steps);
  Result.set("pic.step.wall_nsps_p50", medianOf(StepNs) / N,
             "(untraced step(), n=" + std::to_string(Steps) + ")");
  Result.set("trace.overhead_ratio",
             medianSpan(T, "pic.step", From) / medianOf(StepNs),
             "(composed traced step / untraced step() median " +
                 std::to_string(medianOf(StepNs) / 1e6) + " ms)");

  // The paper's DPC++-vs-C++ ratio: the gather+push pass on fresh copies
  // of the same ensemble, backends alternating, equal thread counts.
  Backend OpenMp("openmp", Args.Threads), Dpcpp("dpcpp", Args.Threads);
  std::vector<Vector3<Real>> OldPos;
  std::vector<FieldSample<Real>> Samples;
  RunStats Stats;
  for (int Rep = 0; Rep < 10; ++Rep)
    for (int K = 0; K < 2; ++K) {
      const bool UseDpcpp = (Rep + K) % 2 == 1;
      Ensemble Copy = copyEnsemble(Parts->particles());
      ScopedSpan S(T, UseDpcpp ? "minisycl.push.dpcpp"
                               : "minisycl.push.openmp");
      gatherPush(UseDpcpp ? Dpcpp : OpenMp, Copy, Parts->grid(),
                 Parts->types().data(), Parts->timeStep(),
                 In.Options.LightVelocity, OldPos, Samples, Stats, nullptr);
    }
  Result.set("minisycl.push.dpcpp_over_openmp",
             medianSpan(T, "minisycl.push.dpcpp") /
                 medianSpan(T, "minisycl.push.openmp"),
             "(gather+push, " + std::to_string(Args.Threads) +
                 " threads each)");
}

/// Part 2: window costs on window-sparse's inputs, window moving.
void traceWindow(const BenchArgs &Args, Tracer &T, RunResult &Result) {
  const PicInputs In = makeWindowSparse(Args.Seed, Args.Threads);
  std::printf("part 2: window costs on %s inputs\n", In.Workload.c_str());
  std::unique_ptr<Simulation> Sim = buildSimulation(In);
  Sim->run(WarmupSteps);
  const long long Captures0 = Sim->graphCaptureCount();
  std::vector<double> ShiftNs, PlainNs;
  for (int S = 0; S < WindowSteps; ++S) {
    const long long Shifts = Sim->windowShiftCount();
    const std::int64_t Start = T.nowNs();
    Sim->step();
    const std::int64_t End = T.nowNs();
    const bool Shifted = Sim->windowShiftCount() != Shifts;
    T.record(Shifted ? "pic.window.shift_step" : "pic.window.plain_step", -1,
             Start, End);
    (Shifted ? ShiftNs : PlainNs).push_back(double(End - Start));
  }
  Result.Attempted += WindowSteps;
  if (!std::isfinite(totalEnergy(*Sim))) {
    Result.Failed += WindowSteps;
    Result.Correct = false;
  }
  Result.set("pic.window.shift_step_ns_p50", medianOf(ShiftNs),
             "(n=" + std::to_string(ShiftNs.size()) + ")");
  Result.set("pic.window.plain_step_ns_p50", medianOf(PlainNs),
             "(n=" + std::to_string(PlainNs.size()) + ")");
  Result.set("exec.graph.captures",
             double(Sim->graphCaptureCount() - Captures0),
             "(over " + std::to_string(WindowSteps) + " steps)");

  pic::YeeGrid<Real> Grid = Sim->grid();
  for (int S = 0; S < 32; ++S) {
    ScopedSpan Span(T, "fields.shift");
    Grid.shiftWindow(1);
  }
  Result.set("fields.shift.ns_per_plane", medianSpan(T, "fields.shift"));

  const Real MinX = Sim->grid().origin().X + Sim->grid().step().X;
  const double N = double(Sim->particles().size());
  for (int Rep = 0; Rep < 5; ++Rep) {
    Ensemble Copy = copyEnsemble(Sim->particles());
    ScopedSpan Span(T, "core.retire");
    retireParticlesBelowX(Copy, MinX);
  }
  Result.set("core.retire.ns_per_particle", medianSpan(T, "core.retire") / N);
}

/// Part 3: one empty one-item launch + wait per backend.
void traceLaunches(const BenchArgs &Args, Tracer &T, RunResult &Result) {
  std::printf("part 3: launch overhead per backend\n");
  for (const char *Name : {"serial", "openmp", "dpcpp", "sharded"}) {
    Backend B(Name, Args.Threads);
    RunStats Stats;
    std::vector<double> Ns;
    ScopedSpan Span(T, std::string("exec.launch.") + Name);
    for (int I = 0; I < LaunchProbes + 50; ++I) {
      Stopwatch Watch;
      launch(*B.Exec, B.Ctx, Stats, 1, EmptyBody{});
      if (I >= 50) // the first launches pay lazy set-up
        Ns.push_back(double(Watch.elapsedNanoseconds()));
    }
    Result.set(std::string("exec.launch_ns.") + Name, medianOf(Ns),
               "(n=" + std::to_string(Ns.size()) + ")");
  }
}

/// Part 4: checkpoints of a median-sized job, and one closed batch of
/// jobs through serve::Scheduler.
void traceServe(const BenchArgs &Args, Tracer &T, RunResult &Result) {
  std::printf("part 4: checkpoints and one serve batch\n");
  serve::JobSpec Median;
  Median.Name = "checkpoint-probe";
  Median.Nx = 24;
  Median.PerCell = 3;
  Median.Steps = 36;
  std::unique_ptr<serve::Simulation> Sim =
      serve::makeSimulation(Median, "serial");
  Sim->run(ServeQuantumSteps);
  const std::uint64_t Hash = stateHash(*Sim);
  const std::string Path = Args.WorkDir + "/checkpoint-probe.bin";
  bool Ok = true;
  for (int Rep = 0; Rep < 9; ++Rep) {
    ScopedSpan Span(T, "core.checkpoint.save");
    Ok = Sim->saveState(Path) && Ok;
  }
  std::error_code Missing;
  const double Bytes = double(std::filesystem::file_size(Path, Missing));
  Ok = Ok && !Missing;
  for (int Rep = 0; Rep < 9; ++Rep) {
    ScopedSpan Span(T, "core.checkpoint.restore");
    Ok = Sim->restoreState(Path) && Ok;
  }
  std::filesystem::remove(Path);
  Ok = Ok && stateHash(*Sim) == Hash;
  ++Result.Attempted;
  if (!Ok) {
    ++Result.Failed;
    Result.Correct = false;
  }
  Result.set("core.checkpoint.save_ns", medianSpan(T, "core.checkpoint.save"));
  Result.set("core.checkpoint.restore_ns",
             medianSpan(T, "core.checkpoint.restore"),
             Ok ? "(restored hash matches)" : "(RESTORED HASH MISMATCH)");
  Result.set("core.checkpoint.bytes", Bytes);

  serve::BackendPool Pool(ServeLanes, ServeLanesPerJob);
  const std::string StateDir = Args.WorkDir + "/serve-state-traced";
  const int BatchSpan = T.begin("serve.batch");
  const std::int64_t Start = T.nowNs();
  const ServeBatch Batch =
      runServeBatch(Pool, makeServeJobs(serveBatchSeed(Args.Seed, 0),
                                        ServeBatchJobs, "b0"),
                    StateDir);
  T.end(BatchSpan);
  std::filesystem::remove_all(StateDir);
  // Every job must complete, and a seeded sample must match its
  // standalone serial run bit for bit.
  std::map<std::string, const serve::JobResult *> ByName;
  for (const serve::JobResult &R : Batch.Results) {
    T.record("serve.job", BatchSpan, Start, Start + std::int64_t(R.LatencyNs));
    ByName[R.Name] = &R;
  }
  std::vector<bool> Sampled(Batch.Jobs.size(), false);
  SeededRng Pick(Args.Seed ^ 0x5eedULL);
  for (int K = 0; K < VerifiedJobs; ++K)
    Sampled[std::size_t(Pick.between(0, int(Batch.Jobs.size()) - 1))] = true;
  long long Failed = 0;
  for (std::size_t J = 0; J < Batch.Jobs.size(); ++J) {
    auto It = ByName.find(Batch.Jobs[J].Name);
    const bool Ok = It != ByName.end() &&
                    It->second->State == serve::JobState::Completed &&
                    (!Sampled[J] ||
                     serve::runStandalone(Batch.Jobs[J]) == It->second->Hash);
    Failed += !Ok;
  }
  std::printf("serve batch: %zu jobs, %lld failed or mismatched "
              "(%zu sampled against runStandalone)\n",
              Batch.Jobs.size(), Failed,
              std::size_t(std::count(Sampled.begin(), Sampled.end(), true)));
  Result.Attempted += (long long)Batch.Jobs.size();
  if (Failed) {
    Result.Failed += Failed;
    Result.Correct = false;
  }
  const std::vector<exec::ShardStat> Lanes = Pool.backend().shardStats();
  double BusyNs = 0;
  for (const exec::ShardStat &L : Lanes)
    BusyNs += L.BusyNs;
  Result.set("serve.quanta", double(Batch.Quanta));
  Result.set("serve.fused_rounds", double(Batch.FusedRounds));
  Result.set("serve.lane_busy_fraction",
             BusyNs / (double(Lanes.size()) * Batch.WallNs),
             "(" + std::to_string(Lanes.size()) + " lanes)");
  Result.set("serve.lane_busy_imbalance", exec::shardImbalance(Lanes));
}

/// Per span name: count, median duration and median self time.
void printSelfTimes(const Tracer &T) {
  std::printf("\n%-28s %7s %14s %14s\n", "span", "count", "median ns",
              "median self ns");
  for (const std::string &Name : T.names()) {
    const std::vector<double> D = T.durations(Name);
    std::printf("%-28s %7zu %14.0f %14.0f\n", Name.c_str(), D.size(),
                medianOf(D), medianOf(T.selfTimes(Name)));
  }
  std::printf("\n");
}

} // namespace

void perfbench::runTraced(const BenchArgs &Args, RunResult &Result) {
  Tracer T;
  traceStages(Args, T, Result);
  traceWindow(Args, T, Result);
  traceLaunches(Args, T, Result);
  traceServe(Args, T, Result);
  printSelfTimes(T);
  const std::string Path = Args.WorkDir + "/trace-" + Args.Workload + "-seed" +
                           std::to_string(Args.Seed) + ".json";
  if (T.writeChromeTrace(Path))
    std::printf("trace: %zu spans written to %s\n", T.spans().size(),
                Path.c_str());
  else
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
}
