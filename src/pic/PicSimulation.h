//===-- pic/PicSimulation.h - The full PIC loop -----------------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The self-consistent Particle-in-Cell loop (paper Section 2): per step,
/// interpolate grid fields to particles (form factor), push particles
/// (Boris method — the paper's kernel), deposit particle currents to the
/// grid (Esirkepov, charge-conserving), and advance Maxwell's equations
/// (FDTD on the Yee grid, or the spectral solver), with periodic
/// boundaries for particles and fields.
///
/// Stage 1 interpolates, pushes and wraps each particle back into the
/// box as one independent-particle kernel, stage 2 deposits as a tiled
/// read-modify-write kernel, and stage 3 solves Maxwell's equations as
/// x-slab halo-exchange tiles (FDTD) or k-space line/row launches
/// (spectral) — each stage on its own configurable execution backend
/// (PicOptions::PushBackend / DepositBackend / FieldBackend) — see
/// docs/ARCHITECTURE.md for the full stage-to-backend map. This is the
/// substrate the standalone pusher benchmarks carve their kernel out of.
///
/// Stages 2 and 3 are submitted as one event chain: the deposit's
/// accumulate → reduce launches, then the field solve's launches with
/// the reduction's event as the dependency of the first launch that
/// reads J (the FDTD E advance / the spectral gather). On asynchronous
/// backends the first FDTD half-step therefore overlaps the deposit
/// reduction — it touches no J lattice — while the chain keeps the
/// per-node operation order, and hence the state hash, bit-identical to
/// the all-serial loop.
///
/// The whole step is one launch DAG — J clear, stage 1, deposit, field
/// solve — built by one function. A classic step submits it through the
/// stage backends; a graph step captures it once and replays it
/// thereafter (PicOptions::UseStepGraph). See the stage table in
/// docs/ARCHITECTURE.md.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_PIC_PICSIMULATION_H
#define HICHI_PIC_PICSIMULATION_H

#include "core/Checkpoint.h"
#include "core/Core.h"
#include "core/EnsembleOps.h"
#include "exec/Autotuner.h"
#include "exec/BackendRegistry.h"
#include "exec/SlabPartition.h"
#include "exec/StepGraph.h"
#include "pic/AbsorbingBoundary.h"
#include "pic/CurrentDeposition.h"
#include "pic/FdtdSolver.h"
#include "pic/FieldInterpolator.h"
#include "pic/ParticleSorter.h"
#include "pic/Rebalancer.h"
#include "pic/SpectralSolver.h"
#include "pic/TiledCurrentAccumulator.h"
#include "pic/YeeGrid.h"
#include "support/Timer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace hichi {
namespace pic {

/// Which Maxwell solver advances the grid fields (paper Section 2:
/// "These equations can be solved using FDTD or FFT-based techniques").
enum class FieldSolverKind {
  Fdtd,     ///< staggered Yee leapfrog; Courant-limited dt
  Spectral, ///< FFT/PSATD; exact per mode, needs power-of-two extents
};

/// Moving-window configuration (the paper's laser–plasma pulse-tracking
/// use case): the window slides along +x at Speed * c, retiring
/// particles the trailing edge passes and injecting fresh plasma into
/// the planes the leading edge uncovers. The shift trigger is a pure
/// function of the accumulated simulation time — floor(Speed * c * t /
/// dx) planes are due after time t — so every backend shifts on the
/// same steps by the same plane counts and moving-window runs stay
/// bit-comparable across backends, layouts and shard counts. Injected
/// particles replicate appendColdBeam's deterministic placement in
/// *global* plane coordinates, so a window run's fresh plasma is
/// record-identical to what a big fixed domain would have seeded there.
/// FDTD only: the spectral solver's global FFTs cannot address a ring
/// window and the constructor rejects the combination.
template <typename Real> struct MovingWindowOptions {
  bool Enabled = false;
  Real Speed = Real(1);   ///< window speed in units of the light velocity
  int InjectPerCell = 0;  ///< leading-edge particles per cell (0 = vacuum)
  short InjectType = 0;   ///< species of the injected plasma
  Real InjectWeight = Real(0); ///< statistical weight per injected particle
  Real InjectVx = Real(0);     ///< injection drift velocity along x

  /// Second co-located species emitted record-adjacent to every
  /// injected particle (-1 = none): the drifting-slab pair idiom, so a
  /// neutral plasma injects as electron–positron pairs whose current
  /// contributions cancel bitwise until a field separates them.
  short InjectPairType = -1;

  /// Density profile n(x)/n0 sampled at each uncovered plane's center
  /// (global x): the per-plane count is lround(InjectPerCell * profile),
  /// matching appendDensityRampX's rounding. Null = uniform (factor 1).
  std::function<Real(Real)> DensityProfile;
};

/// Configuration of a PIC run.
template <typename Real> struct PicOptions {
  Real TimeStep = Real(0);       ///< 0 = half the Courant limit
  Real LightVelocity = Real(constants::LightVelocity);
  int SortEveryNSteps = 50;      ///< 0 disables the locality sort
  bool ChargeConserving = true;  ///< Esirkepov vs direct deposition
  FieldSolverKind Solver = FieldSolverKind::Fdtd;

  /// Execution backend (exec registry name) for the interpolate+push
  /// stage. Particles are independent during the push, so any registered
  /// backend gives bit-identical results.
  std::string PushBackend = "serial";

  /// Worker threads for the push stage; 0 means all (for
  /// "async-pipeline": the lane count, default 2).
  int PushThreads = 0;

  /// Execution backend for the current-deposition stage. The scatter
  /// couples particles through the grid, so it runs as per-tile
  /// read-modify-write blocks with a fixed-order reduction
  /// (TiledCurrentAccumulator); results are bit-identical to the serial
  /// scatter for every backend, thread count and tile count.
  std::string DepositBackend = "serial";

  /// Worker threads for the deposit stage; 0 means all.
  int DepositThreads = 0;

  /// Current tiles (x-slabs) for the deposit stage; 0 = auto (1 for the
  /// serial backend, else two tiles per worker, capped at the grid's Nx).
  int DepositTiles = 0;

  /// Execution backend for the Maxwell field-solve stage. The FDTD
  /// advance runs as x-slab tiles with a one-plane halo exchange per
  /// face, the spectral solver as k-space line/row launches; both are
  /// bit-identical to the serial solver for every backend, thread count
  /// and tile count. Asynchronous backends event-chain the solve against
  /// the deposit reduction.
  std::string FieldBackend = "serial";

  /// Worker threads for the field-solve stage; 0 means all.
  int FieldThreads = 0;

  /// Tiles of the field-solve stage — x-slabs for FDTD (capped at Nx),
  /// schedulable k-space chunks per launch for the spectral solver;
  /// 0 = auto (1 for the serial backend, else two per worker).
  int FieldTiles = 0;

  /// Capture the step's launch DAG on the first step and
  /// *replay* it on every later one (exec/StepGraph.h): specs, kernel
  /// bodies and dependency edges are resolved once, and each replayed
  /// step only rebinds the step index and simulation time through the
  /// ParamBlock. Bit-identical to the per-step resubmission path for
  /// every backend, solver, layout and tile/shard count; the graph is
  /// invalidated (and recaptured) when the ensemble size changes.
  bool UseStepGraph = false;

  /// Occupancy-skew threshold that arms the between-steps rebalancer
  /// (pic/Rebalancer.h): every RebalanceEveryNSteps steps the per-x-plane
  /// particle occupancy is measured, and when its skew (max block weight
  /// over mean across RebalanceBlocks x-blocks) exceeds this threshold
  /// the ensemble is cell-sorted and the deposit tiles + sharded push
  /// blocks are re-split weighted by the measured occupancy. <= 0
  /// disables rebalancing entirely. The trigger reads particle positions
  /// only (never timing), so it fires on the same steps on every backend
  /// — rebalanced runs stay bit-identical across backends. A fired
  /// repartition re-sorts, which permutes the order-sensitive state hash
  /// relative to a non-rebalanced run (conservation-gated, not
  /// bit-gated); the re-split itself never changes bits.
  double RebalanceThreshold = 0;

  /// Steps between skew checks (rebalancing must be cheap relative to
  /// the work it balances; the check is one O(N) histogram pass).
  int RebalanceEveryNSteps = 10;

  /// Evaluation blocks of the skew metric (clamped to the grid's Nx).
  /// Deliberately independent of the backend's shard/tile counts so the
  /// metric — and hence the firing steps — are backend-invariant.
  int RebalanceBlocks = 8;

  /// Absorbing/open boundary along x: > 0 damps E and B inside a sponge
  /// frame this many cells deep on the two x faces after every step and
  /// removes particles that entered it (open particle boundary; y/z stay
  /// periodic). The boundary is host-side and runs in every step mode —
  /// classic, capture and replay — after the captured DAG completes, so
  /// all backends apply the identical damping arithmetic.
  Index AbsorbingCells = 0;

  /// Damping exponent at the outermost sponge cell per application
  /// (AbsorbingLayer's quadratic-ramp profile).
  Real AbsorbingStrength = Real(0.5);

  /// Moving-window configuration; Enabled = false leaves every logical↔
  /// physical mapping the identity, so fixed-window runs are untouched
  /// bit-for-bit.
  MovingWindowOptions<Real> MovingWindow;

  /// Let the autotuner (exec/Autotuner.h) fill every stage knob still at
  /// its built-in default — backends left at "serial", thread/tile
  /// counts left at 0, step graph left off — from the host's measured
  /// machine profile. Knobs set explicitly (above) always win. All tuned
  /// knobs are hash-invariant, so a tuned run's state hash still equals
  /// the serial reference.
  bool Tune = false;
};

/// A complete electromagnetic PIC simulation over one periodic box.
template <typename Real, typename Array = ParticleArrayAoS<Real>>
class PicSimulation {
public:
  PicSimulation(GridSize Size, Vector3<Real> Origin, Vector3<Real> Step,
                Index ParticleCapacity, ParticleTypeTable<Real> Types,
                PicOptions<Real> Options = {})
      : Grid(Size, Origin, Step), Particles(ParticleCapacity),
        Types(std::move(Types)), Solver(Options.LightVelocity),
        Indexer(Grid), Options(Options) {
    if (this->Options.Tune)
      exec::applyTunePlan(this->Options, exec::Autotuner::hostPlan());
    if (this->Options.MovingWindow.Enabled &&
        this->Options.Solver == FieldSolverKind::Spectral)
      fatalError("moving window requires the FDTD solver (global FFTs "
                 "cannot address a ring window)");
    Backend = exec::createBackend(this->Options.PushBackend,
                                  {this->Options.PushThreads, /*Grain=*/0});
    if (!Backend)
      fatalError("PicOptions::PushBackend names no registered backend");
    DepositExec =
        exec::createBackend(this->Options.DepositBackend,
                            {this->Options.DepositThreads, /*Grain=*/0});
    if (!DepositExec)
      fatalError("PicOptions::DepositBackend names no registered backend");
    FieldExec = exec::createBackend(this->Options.FieldBackend,
                                    {this->Options.FieldThreads, /*Grain=*/0});
    if (!FieldExec)
      fatalError("PicOptions::FieldBackend names no registered backend");
    if (Backend->needsQueue() || DepositExec->needsQueue() ||
        FieldExec->needsQueue())
      Queue = std::make_unique<minisycl::queue>(minisycl::cpu_device());
    Accumulator = std::make_unique<TiledCurrentAccumulator<Real>>(
        Size, Origin, Step,
        resolveStageTiles(this->Options.DepositTiles, *DepositExec,
                          this->Options.DepositThreads));
    FieldTileCount = resolveStageTiles(this->Options.FieldTiles, *FieldExec,
                                       this->Options.FieldThreads);
    if (this->Options.RebalanceThreshold > 0)
      Rebal = std::make_unique<Rebalancer<Real>>(
          Size, Origin, Step, this->Options.RebalanceThreshold,
          Index(this->Options.RebalanceBlocks));
    if (this->Options.AbsorbingCells > 0)
      Absorber = std::make_unique<AbsorbingLayer<Real>>(
          Size, this->Options.AbsorbingCells, this->Options.AbsorbingStrength,
          AbsorbingLayer<Real>::Faces::XOnly);
    if (this->Options.TimeStep <= Real(0))
      this->Options.TimeStep = Solver.courantLimit(Grid) / Real(2);
    if (this->Options.Solver == FieldSolverKind::Spectral) {
      Spectral = std::make_unique<SpectralSolver<Real>>(
          Size, Step, Options.LightVelocity);
    } else {
      FieldPartition =
          std::make_unique<FdtdSlabPartition<Real>>(Size, FieldTileCount);
      FieldTileCount = FieldPartition->tileCount(); // clamped to Nx
      assert(this->Options.TimeStep <= Solver.courantLimit(Grid) &&
             "time step violates the Courant condition");
    }
  }

  YeeGrid<Real> &grid() { return Grid; }
  const YeeGrid<Real> &grid() const { return Grid; }
  Array &particles() { return Particles; }
  const Array &particles() const { return Particles; }
  const ParticleTypeTable<Real> &types() const { return Types; }
  Real timeStep() const { return Options.TimeStep; }
  Real time() const { return CurrentTime; }
  int stepCount() const { return Steps; }

  /// Adds a particle (positions are wrapped into the box).
  void addParticle(ParticleT<Real> P) {
    P.Position = Grid.wrapPosition(P.Position);
    P.Gamma = lorentzGamma(P.Momentum, Types[P.Type].Mass,
                           Options.LightVelocity);
    Particles.pushBack(P);
  }

  /// Advances the simulation by one step. The classic step submits the
  /// step's launch DAG (submitStep) through the stage backends. With
  /// PicOptions::UseStepGraph the first step submits the same DAG through
  /// graph-capturing wrappers, and every later step replays the captured
  /// DAG with only the step index and simulation time rebound (both
  /// bit-identical, tests/pic/GraphEquivalenceTest.cpp).
  void step() {
    if (!Options.UseStepGraph) {
      // The reusable kernel-body caches are rewound, not reallocated, so
      // the steady state allocates nothing.
      StageCache.rewind();
      ChainCache.rewind();
      submitStep(*Backend, *DepositExec, *FieldExec);
    } else if (canSubmitStepAsync()) {
      replayStep();
      return;
    } else {
      // Capture. The graph is keyed on the ensemble size AND the
      // partition epoch: a fired rebalance re-splits the push blocks whose
      // ranges the captured DAG baked in, so a repartition recaptures
      // through the same seam a size change does. A fresh graph owns
      // nothing: kernel bodies live in the member caches (cleared, then
      // rebuilt by this capture so replays keep pointing at stable
      // storage) and stats in member RunStats.
      Stopwatch Wall;
      Graph = std::make_unique<exec::StepGraph>(&StepParams);
      exec::GraphCapture PushCap(*Backend, *Graph);
      exec::GraphCapture DepositCap(*DepositExec, *Graph);
      exec::GraphCapture FieldCap(*FieldExec, *Graph);
      StageCache.clear();
      ChainCache.clear();
      submitStep(PushCap, DepositCap, FieldCap);
      if (!Graph->instantiate())
        Graph.reset(); // empty capture (defensive); next step recaptures
      GraphN = Particles.size();
      GraphEpoch = PartitionEpoch;
      ++GraphCaptures;
      addWall(GraphTiming, Wall);
    }
    finishStep();
  }

  /// True when the next step can run as the split submit/finish pair
  /// below: graph mode is on and the captured DAG is valid for the
  /// current ensemble size and partition epoch. False on the capture
  /// step and after any invalidation — the driver falls back to step()
  /// for those (which captures/recaptures), then splits again.
  bool canSubmitStepAsync() const {
    return Options.UseStepGraph && Graph && Graph->instantiated() &&
           GraphN == Particles.size() && GraphEpoch == PartitionEpoch;
  }

  /// The issue half of a replayed step: rebinds the step index and
  /// simulation time and issues the captured DAG without waiting — on
  /// asynchronous backends the whole step is in flight when this
  /// returns. The serve layer's batcher submits several jobs'
  /// simulations back to back (each on its own disjoint pool lanes)
  /// before finishing any, so their steps overlap as one fused launch
  /// round. Must be paired with finishStepAsync() before any other
  /// member call. Only legal when canSubmitStepAsync().
  void submitStepAsync() {
    StepParams.StepIndex = Steps;
    StepParams.Scalars[0] = double(CurrentTime);
    exec::ExecutionContext Ctx;
    Ctx.Queue = Queue.get();
    AsyncStepWatch.reset();
    Graph->replayNoWait(Ctx);
  }

  /// The wait half: blocks until the issued step completes, then runs
  /// the shared host epilogue (counters, periodic sort, open boundary,
  /// rebalance check). submitStepAsync() + finishStepAsync() is
  /// bit-identical to step() on the replay path.
  void finishStepAsync() {
    Graph->waitReplay();
    addWall(GraphTiming, AsyncStepWatch);
    ++GraphReplays;
    finishStep();
  }

private:
  /// Submits the whole step as one launch DAG through \p Push,
  /// \p Deposit and \p Field — the stage backends on a classic step, or
  /// their graph-capturing wrappers on a capture step — and waits for it.
  /// The explicit edges carry every ordering the stages need, so the
  /// same DAG replays with no host code between its launches:
  ///
  ///   clear J ─────────┐
  ///   stage 1 ──────→ bin ──→ accumulate ──→ reduce
  ///     │                                      │ JReady
  ///     └─────────→ field solve ←──────────────┘
  void submitStep(exec::ExecutionBackend &Push,
                  exec::ExecutionBackend &Deposit,
                  exec::ExecutionBackend &Field) {
    const Real Dt = Options.TimeStep;
    const Real C = Options.LightVelocity;
    auto View = Particles.view();
    const Index N = View.size();
    const ParticleTypeInfo<Real> *TypesPtr = Types.data();
    YeeInterpolator<Real> Interp(Grid);

    // Per-step rebinding surface (kernel bodies read the simulation time
    // through it, so a replay only rewrites these two fields).
    StepParams.StepIndex = Steps;
    StepParams.Scalars[0] = double(CurrentTime);
    OldPositions.resize(std::size_t(N));
    NewPositions.resize(std::size_t(N));
    Vector3<Real> *OldPos = OldPositions.data();
    Vector3<Real> *NewPos = NewPositions.data();
    exec::ExecutionContext Ctx;
    Ctx.Queue = Queue.get();

    // The J clear: the deposit's bin and reduce launches depend on it.
    const exec::ExecEvent Cleared = exec::submitCachedLaunch(
        Deposit, Ctx, DepositLaunchStats, 1, /*GrainHint=*/0,
        ClearCurrentBody{&Grid}, {}, StageCache);

    // Stage 1 — interpolate, push and wrap (particles are independent
    // here, so any backend is bit-identical). Both unwrapped ends of the
    // move are kept aside: the deposition needs the physical
    // displacement. One step per launch: the deposition couples
    // particles, so multi-step fusion is not legal for the PIC loop.
    const FusedPushBody Body{View, Interp, OldPos, NewPos, &Grid,
                             TypesPtr, Dt, C, &StepParams, /*Offset=*/0};
    std::vector<exec::ExecEvent> PushDone;
    if (Push.shardCount() > 0 && N > 0)
      PushDone = shardedInterpPush(Push, Body, N, Ctx);
    else
      PushDone.push_back(exec::submitCachedLaunch(
          Push, Ctx, PushTiming, N, /*GrainHint=*/0, Body, {}, StageCache));

    // Stages 2 + 3 — one event chain. Stage 2: current deposition, a
    // binning launch gated on stage 1 and the J clear, then per-tile
    // private accumulation plus fixed-order reduction, bit-identical to the
    // serial particle-order scatter (TiledCurrentAccumulator.h). Stage 3:
    // the Maxwell solve, chained on the reduction's event at the first
    // launch that reads J, so on an asynchronous field backend the
    // reduction's tail overlaps the first FDTD half-step. That half-step
    // also waits stage 1, because advanceB writes the B lattice stage 1
    // reads (the spectral gather is ordered through JReady already).
    exec::ExecEvent JReady;
    {
      Stopwatch Watch;
      std::vector<exec::ExecEvent> BinAfter = PushDone;
      BinAfter.push_back(Cleared);
      JReady = Accumulator->submitDeposit(
          Grid, View, OldPos, NewPos, TypesPtr, Dt, Options.ChargeConserving,
          Deposit, Ctx, DepositLaunchStats, ChainCache, BinAfter);
      if (!Field.isAsynchronous())
        JReady.wait(); // keep the serial stage-wall attribution exact
      addWall(DepositTiming, Watch);
    }
    {
      // On an asynchronous field backend this wall includes the deposit
      // tail the chain hides — the stage boundary blurs by design.
      Stopwatch Watch;
      const exec::ExecEvent FieldsDone =
          Spectral ? Spectral->submitStep(Grid, Dt, Field, Ctx,
                                          FieldTileCount, FieldLaunchStats,
                                          JReady, ChainCache)
                   : Solver.submitStep(Grid, Dt, *FieldPartition, Field, Ctx,
                                       FieldLaunchStats, JReady, ChainCache,
                                       PushDone);
      FieldsDone.wait();
      JReady.wait(); // retire the deposit launches' stats publication too
      addWall(FieldTiming, Watch);
    }
  }

  /// Graph-mode steady state: rebinds the step index and simulation time
  /// in the ParamBlock and re-issues the captured DAG — no specs built,
  /// no kernel bodies constructed, no counted launches. sortByCell
  /// between replays is safe: it permutes particle storage in place, so
  /// every captured pointer stays valid.
  void replayStep() {
    StepParams.StepIndex = Steps;
    StepParams.Scalars[0] = double(CurrentTime);
    exec::ExecutionContext Ctx;
    Ctx.Queue = Queue.get();
    Stopwatch Wall;
    Graph->replay(Ctx);
    addWall(GraphTiming, Wall);
    ++GraphReplays;
    finishStep();
  }

  /// The host epilogue every step mode shares (classic, capture,
  /// replay): advances the counters, runs the periodic locality sort,
  /// the open boundary, and the rebalance check. Everything here is
  /// host-side and backend-independent, so each piece either preserves
  /// bits exactly (the sponge damping: identical arithmetic everywhere)
  /// or changes them identically on every backend (the sorts'
  /// permutations).
  void finishStep() {
    CurrentTime += Options.TimeStep;
    ++Steps;
    if (Options.SortEveryNSteps > 0 && Steps % Options.SortEveryNSteps == 0)
      sortByCell(Particles, Indexer);
    if (Absorber) {
      Absorber->apply(Grid);
      // A shrunk ensemble invalidates the captured graph through the
      // GraphN key on the next step().
      AbsorbedTotal += Absorber->removeAbsorbedParticles(Particles, Grid);
    }
    maybeShiftWindow();
    maybeRebalance();
  }

  /// The moving-window trigger: after time t the window owes
  /// floor(Speed * c * t / dx) planes of travel; shift by whatever is
  /// outstanding. A pure function of the accumulated simulation time —
  /// never of timing or scheduling — so every backend shifts on the
  /// same steps by the same plane counts (the rebalancer-trigger
  /// determinism argument).
  void maybeShiftWindow() {
    if (!Options.MovingWindow.Enabled)
      return;
    const Index Due = Index(std::floor(
        double(Options.MovingWindow.Speed) * double(Options.LightVelocity) *
        double(CurrentTime) / double(Grid.step().X)));
    const Index Planes = Due - Grid.window().OriginPlanes;
    if (Planes > 0)
      shiftWindow(Planes);
  }

  /// One window advance by \p Planes x-planes: slide the grid's ring
  /// window (O(Planes * plane), zeroing only the uncovered planes),
  /// retire the particles the trailing edge passed, inject fresh plasma
  /// into the uncovered leading-edge planes, re-base every logical-
  /// coordinate consumer (cell indexer, rebalancer histogram), and bump
  /// the partition epoch so a captured step graph recaptures exactly
  /// once per shift. Shard-stat windows restart so post-shift imbalance
  /// reflects the new plasma, not the retired history.
  void shiftWindow(Index Planes) {
    Grid.shiftWindow(Planes);
    WindowRetiredTotal += retireParticlesBelowX(Particles, Grid.origin().X);
    WindowInjectedTotal += injectLeadingEdge(Planes);
    Indexer = CellIndexer<Real>(Grid);
    if (Rebal)
      Rebal->refreshOrigin(Grid.origin());
    ++PartitionEpoch;
    for (exec::ExecutionBackend *E :
         {Backend.get(), DepositExec.get(), FieldExec.get()})
      E->resetShardStats();
  }

  /// Injects fresh plasma into the \p Planes leading-edge planes the
  /// window just uncovered (logical [Nx - Planes, Nx)), mirroring
  /// appendColdBeam's deterministic placement in *global* plane
  /// coordinates — base origin plus the global plane index — so an
  /// injected record is bit-identical to what a fixed big-domain run
  /// would have seeded at the same plane (gamma recomputed from the
  /// momentum exactly like addParticle; no wrap, the positions are
  /// inside the box by construction). \returns the number injected;
  /// aborts with a one-line error if the ensemble capacity lacks
  /// injection headroom (pushBack's guard is debug-only).
  Index injectLeadingEdge(Index Planes) {
    const MovingWindowOptions<Real> &W = Options.MovingWindow;
    if (W.InjectPerCell <= 0)
      return 0;
    const GridSize Sz = Grid.size();
    const Vector3<Real> O = Grid.baseOrigin();
    const Vector3<Real> D = Grid.step();
    const Real C = Options.LightVelocity;
    const Real Mass = Types[W.InjectType].Mass;
    const Index First = Planes >= Sz.Nx ? Index(0) : Sz.Nx - Planes;
    Index Injected = 0;
    for (Index L = First; L < Sz.Nx; ++L) {
      const Index Global = Grid.window().OriginPlanes + L;
      int PerCell = W.InjectPerCell;
      if (W.DensityProfile) {
        const Real XCenter = O.X + (Real(Global) + Real(0.5)) * D.X;
        PerCell = int(std::lround(double(W.InjectPerCell) *
                                  double(W.DensityProfile(XCenter))));
      }
      if (PerCell <= 0)
        continue;
      const Index Emitted = W.InjectPairType >= 0 ? Index(2) : Index(1);
      const Index PlaneCount = Emitted * Index(PerCell) * Sz.Ny * Sz.Nz;
      if (Particles.size() + PlaneCount > Particles.capacity())
        fatalError("moving-window injection exceeds the particle capacity "
                   "(allocate leading-edge headroom)");
      for (Index J = 0; J < Sz.Ny; ++J)
        for (Index K = 0; K < Sz.Nz; ++K)
          for (int P = 0; P < PerCell; ++P) {
            ParticleT<Real> Part;
            Part.Position = {
                O.X + (Real(Global) + Real(P + 0.5) / Real(PerCell)) * D.X,
                O.Y + (Real(J) + Real(0.5)) * D.Y,
                O.Z + (Real(K) + Real(0.5)) * D.Z};
            const Real V = W.InjectVx;
            const Real Gamma =
                Real(1) / std::sqrt(Real(1) - (V / C) * (V / C));
            Part.Momentum = {Gamma * Mass * V, Real(0), Real(0)};
            Part.Weight = W.InjectWeight;
            Part.Type = W.InjectType;
            Part.Gamma = lorentzGamma(Part.Momentum, Mass, C);
            Particles.pushBack(Part);
            ++Injected;
            if (W.InjectPairType >= 0) {
              Part.Type = W.InjectPairType;
              Part.Gamma = lorentzGamma(Part.Momentum,
                                        Types[W.InjectPairType].Mass, C);
              Particles.pushBack(Part);
              ++Injected;
            }
          }
    }
    return Injected;
  }

  /// The rebalance check (every RebalanceEveryNSteps steps when armed):
  /// measures the occupancy skew and, past the threshold, repartitions —
  /// cell-sort for slab locality (the one bit-visible effect: a
  /// permutation), occupancy-weighted deposit tiles, occupancy-weighted
  /// sharded push blocks, and a partition-epoch bump so graph mode
  /// recaptures exactly once per fire.
  void maybeRebalance() {
    if (!Rebal || Options.RebalanceEveryNSteps <= 0 ||
        Steps % Options.RebalanceEveryNSteps != 0)
      return;
    if (!Rebal->check(Particles))
      return;
    sortByCell(Particles, Indexer);
    Accumulator->retile(
        Rebal->planeBoundaries(Index(Accumulator->tileCount())));
    PushFractions.clear();
    if (Backend->shardCount() > 0)
      PushFractions = Rebal->particleFractions(Index(Backend->shardCount()));
    ++PartitionEpoch;
    // Start a fresh shardStats() window so post-repartition imbalance
    // reflects the new split, not the skewed history.
    for (exec::ExecutionBackend *E :
         {Backend.get(), DepositExec.get(), FieldExec.get()})
      E->resetShardStats();
  }

public:
  /// Advances \p N steps.
  void run(int N) {
    for (int I = 0; I < N; ++I)
      step();
  }

  /// Writes the full simulation state (particles with exact gamma bits,
  /// all nine field lattices in raw physical order, the moving-window
  /// state, step index and simulation time) as a v3 checkpoint, so a
  /// restored run — including a mid-shift moving-window one — continues
  /// bit-identically to an uninterrupted one. \returns false with a
  /// reason in \p Error on I/O failure.
  bool saveState(const std::string &Path, std::string *Error = nullptr) const {
    CheckpointWindow Win;
    Win.OriginPlanes = std::int64_t(Grid.window().OriginPlanes);
    Win.PhysBase = std::int64_t(Grid.window().PhysBase);
    Win.ShiftCount = std::int64_t(Grid.window().ShiftCount);
    std::vector<CheckpointFieldRef<Real>> Fields;
    for (const ScalarLattice<Real> *L : latticesOf(Grid))
      Fields.push_back({L->raw().data(), Index(L->raw().size())});
    return saveSimulationCheckpoint(Particles, std::int64_t(Steps),
                                    double(CurrentTime), Win, Fields, Path,
                                    Error);
  }

  /// Restores a saveState() checkpoint: particles, fields, step index
  /// and simulation time. The grid shape and scalar width must match
  /// the run that saved it. Any captured step graph is discarded (the
  /// next step recaptures); the sort/rebalance schedules continue from
  /// the restored step index, so the resumed run fires them on the same
  /// steps the uninterrupted run would. \returns false with a one-line
  /// reason in \p Error on I/O damage or on a restored state this run
  /// cannot step (see restoredStateError). The file loads into a staging
  /// ensemble and staging lattices that replace the run's own only once
  /// they pass, so a refused restore leaves the run exactly as it was.
  bool restoreState(const std::string &Path, std::string *Error = nullptr) {
    std::int64_t StepIndex = 0;
    double Time = 0;
    CheckpointWindow Win;
    const auto Live = latticesOf(Grid);
    Array Staged(Particles.capacity());
    std::vector<std::vector<Real>> StagedLattices(Live.size());
    std::vector<CheckpointFieldMut<Real>> Fields;
    for (std::size_t F = 0; F < Live.size(); ++F) {
      StagedLattices[F].resize(Live[F]->raw().size());
      Fields.push_back(
          {StagedLattices[F].data(), Index(StagedLattices[F].size())});
    }
    if (!loadSimulationCheckpoint(Staged, StepIndex, Time, Win, Fields, Path,
                                  Error))
      return false;
    if (const std::string Reason = restoredStateError(Staged, Fields, Win);
        !Reason.empty()) {
      if (Error)
        *Error = Path + ": " + Reason;
      return false;
    }
    Particles = std::move(Staged);
    for (std::size_t F = 0; F < Live.size(); ++F)
      std::copy(StagedLattices[F].begin(), StagedLattices[F].end(),
                Live[F]->raw().begin());
    // The captured DAG baked in the pre-restore item counts and block
    // ranges; drop it so the next step() recaptures against the
    // restored ensemble.
    Graph.reset();
    GraphN = Index(-1);
    Steps = int(StepIndex);
    CurrentTime = Real(Time);
    // Re-base the window onto the restored raw lattices (a v2 file's
    // zero window makes this the identity), then refresh every
    // logical-coordinate consumer just like shiftWindow does.
    GridWindow W(Grid.size().Nx);
    W.PhysBase = Index(Win.PhysBase);
    W.OriginPlanes = Index(Win.OriginPlanes);
    W.ShiftCount = Index(Win.ShiftCount);
    Grid.restoreWindow(W);
    Indexer = CellIndexer<Real>(Grid);
    if (Rebal)
      Rebal->refreshOrigin(Grid.origin());
    return true;
  }

  /// Deposits the instantaneous charge density into \p Rho (diagnostics /
  /// continuity tests).
  void depositCharge(ScalarLattice<Real> &Rho) const {
    Rho.fill(Real(0));
    auto View = Particles.view();
    const ParticleTypeInfo<Real> *TypesPtr = Types.data();
    for (Index I = 0, E = View.size(); I < E; ++I) {
      auto P = View[I];
      depositChargeCic(Rho, Grid, P.position(),
                       TypesPtr[P.type()].Charge * P.weight());
    }
  }

  /// Total particle kinetic energy [erg].
  double kineticEnergy() const {
    auto View = Particles.view();
    const ParticleTypeInfo<Real> *TypesPtr = Types.data();
    double Total = 0;
    for (Index I = 0, E = View.size(); I < E; ++I) {
      auto P = View[I];
      const Real C = Options.LightVelocity;
      Total += double(P.weight()) *
               double((P.gamma() - Real(1)) * TypesPtr[P.type()].Mass * C * C);
    }
    return Total;
  }

  /// Field energy [erg] (delegates to the grid).
  double fieldEnergy() const { return Grid.fieldEnergy(); }

  /// The execution backend running the push stage.
  const exec::ExecutionBackend &pushBackend() const { return *Backend; }

  /// The execution backend running the deposit stage.
  const exec::ExecutionBackend &depositBackend() const { return *DepositExec; }

  /// The execution backend running the field-solve stage.
  const exec::ExecutionBackend &fieldBackend() const { return *FieldExec; }

  /// Current tiles the deposit stage scatters into.
  int depositTileCount() const { return Accumulator->tileCount(); }

  /// Tiles of the field-solve stage (x-slabs for FDTD, schedulable
  /// k-space chunks per launch for the spectral solver).
  int fieldTileCount() const { return FieldTileCount; }

  /// Accumulated timing of stage 1 (interpolate + push + wrap) across all
  /// steps so far.
  const RunStats &pushStats() const { return PushTiming; }

  /// Accumulated wall time of the deposit stage (binning + accumulate +
  /// reduce; submission only when an asynchronous field backend overlaps
  /// the tail) across all steps so far.
  const RunStats &depositStats() const { return DepositTiming; }

  /// Accumulated wall time of the field-solve stage across all steps so
  /// far (on asynchronous field backends it includes the overlapped
  /// deposit tail).
  const RunStats &fieldStats() const { return FieldTiming; }

  /// Per-launch ledger of the sharded stage 1's per-shard launches (all
  /// zeros when stage 1 runs as one whole-ensemble launch).
  const RunStats &pushKernelStats() const { return PushKernelTiming; }

  /// Per-launch ledger of the deposit chain (clear + bin + accumulate +
  /// reduce): launches, specs built and submit-overhead nanoseconds.
  const RunStats &depositLaunchStats() const { return DepositLaunchStats; }

  /// Per-launch ledger of the field-solve chain.
  const RunStats &fieldLaunchStats() const { return FieldLaunchStats; }

  /// Wall time of graph-mode steps (the capture step and every replay);
  /// zeros unless PicOptions::UseStepGraph.
  const RunStats &graphStats() const { return GraphTiming; }

  /// True when steps run through the captured step graph.
  bool usesStepGraph() const { return Options.UseStepGraph; }

  /// Times a step graph was captured (>1 means invalidations happened).
  long long graphCaptureCount() const { return GraphCaptures; }

  /// Steps replayed from the captured graph.
  long long graphReplayCount() const { return GraphReplays; }

  /// The captured step graph, or null before the first graph-mode step
  /// (diagnostics and tests).
  const exec::StepGraph *stepGraph() const { return Graph.get(); }

  /// Submit-overhead totals across every per-launch ledger the step
  /// touches (stage-1 push and per-shard push-kernel stats plus the
  /// deposit and field chains): launches submitted, specs constructed,
  /// and wall nanoseconds inside submit() outside kernel bodies. Timing fields
  /// are left zero — this is the launch-bookkeeping view, not a wall
  /// clock.
  RunStats submitOverhead() const {
    RunStats Total;
    for (const RunStats *S :
         {&PushTiming, &PushKernelTiming, &DepositLaunchStats,
          &FieldLaunchStats}) {
      Total.Launches += S->Launches;
      Total.SpecsBuilt += S->SpecsBuilt;
      Total.SubmitNs += S->SubmitNs;
    }
    return Total;
  }

  /// Per-shard occupancy counters aggregated over *every* stage backend
  /// that is sharded (push, deposit and field solve own separate
  /// backend instances; shard i's counters sum element-wise across the
  /// sharded ones, sized to the largest shard count) — so the numbers
  /// describe the whole run, not just one stage. Empty when no stage
  /// runs on the sharded backend. Pair with exec::shardImbalance /
  /// exec::shardOccupancy for the derived diagnostics.
  std::vector<exec::ShardStat> shardStats() const {
    std::vector<exec::ShardStat> Total;
    for (const exec::ExecutionBackend *B :
         {Backend.get(), DepositExec.get(), FieldExec.get()}) {
      const std::vector<exec::ShardStat> Stage = B->shardStats();
      if (Stage.size() > Total.size())
        Total.resize(Stage.size());
      for (std::size_t S = 0; S < Stage.size(); ++S) {
        Total[S].Launches += Stage[S].Launches;
        Total[S].Items += Stage[S].Items;
        Total[S].BusyNs += Stage[S].BusyNs;
      }
    }
    return Total;
  }

  /// Shards of the push backend (0 when it is not sharded).
  int shardCount() const { return Backend->shardCount(); }

  /// Rebalancer counters (all zeros when RebalanceThreshold <= 0).
  RebalanceStats rebalanceStats() const {
    return Rebal ? Rebal->stats() : RebalanceStats{};
  }

  /// Fired repartitions so far (the step-graph key includes this, so in
  /// graph mode captures == 1 + fired repartitions + size changes).
  long long partitionEpoch() const { return PartitionEpoch; }

  /// Particles removed by the open boundary so far (0 without one).
  long long absorbedParticleCount() const { return AbsorbedTotal; }

  /// Window shift events so far (0 for fixed-window runs).
  long long windowShiftCount() const {
    return (long long)(Grid.window().ShiftCount);
  }

  /// Total x-planes the window has advanced (origin() - baseOrigin()
  /// in plane units).
  Index windowOriginPlanes() const { return Grid.window().OriginPlanes; }

  /// Particles retired by the trailing edge so far.
  long long windowRetiredCount() const { return WindowRetiredTotal; }

  /// Particles injected at the leading edge so far.
  long long windowInjectedCount() const { return WindowInjectedTotal; }

  /// The open-boundary sponge, or nullptr when AbsorbingCells == 0.
  const AbsorbingLayer<Real> *absorbingLayer() const {
    return Absorber.get();
  }

  /// Current plane boundaries of the deposit tiles (the rebalance tests
  /// verify a fired repartition actually moved them).
  std::vector<Index> depositTileBoundaries() const {
    return Accumulator->tileBoundaries();
  }

private:
  using ViewT = decltype(std::declval<Array &>().view());

  /// The interpolate+push+wrap kernel of stage 1, the one body every
  /// backend runs — a named body (not a step()-local lambda) so it can
  /// live in the reusable kernel cache across steps and a captured graph can
  /// keep pointing at it; the per-step simulation time flows in through
  /// the ParamBlock. Launch item I is particle Offset + I: 0 for the
  /// whole-ensemble launch, the block start for a per-shard one. The wrap
  /// is a second loop: its libm fmod calls in the push loop cost GCC the
  /// push's SLP vectorization (~6% of the serial stage, langmuir-dense).
  struct FusedPushBody {
    ViewT View;
    YeeInterpolator<Real> Interp;
    Vector3<Real> *OldPos;
    Vector3<Real> *NewPos;
    const YeeGrid<Real> *Grid;
    const ParticleTypeInfo<Real> *Types;
    Real Dt, C;
    const exec::ParamBlock *Params; ///< Scalars[0] = simulation time
    Index Offset;

    void operator()(Index Begin, Index End, int, int) const {
      const Real Time = Real(Params->Scalars[0]);
      const Index First = Offset + Begin, Last = Offset + End;
      for (Index I = First; I < Last; ++I) {
        auto P = View[I];
        const Vector3<Real> Pos = P.position();
        OldPos[I] = Pos;
        const FieldSample<Real> F = Interp(Pos, Time, I);
        BorisPusher::push<Real>(P, F, Types, Dt, C);
      }
      for (Index I = First; I < Last; ++I) {
        auto P = View[I];
        NewPos[I] = P.position();
        P.setPosition(Grid->wrapPosition(NewPos[I]));
      }
    }
  };

  /// Grid.clearCurrent() as a one-item kernel: the J clear is a node
  /// ordered before the deposit reduction, so a replay needs no host
  /// call.
  struct ClearCurrentBody {
    YeeGrid<Real> *Grid;

    void operator()(Index, Index, int, int) const { Grid->clearCurrent(); }
  };

  /// Adds the wall time of \p Watch to \p Stats.
  static void addWall(RunStats &Stats, const Stopwatch &Watch) {
    const double Ns = double(Watch.elapsedNanoseconds());
    Stats.HostNs += Ns;
    Stats.ModeledNs += Ns;
  }

  /// Stage 1 on a sharded backend: the ensemble splits into the
  /// backend's persistent shards (the shared slab partition, so shard s
  /// owns the same particle slice every step), and each shard runs
  /// \p Body over its slice as one launch routed to its lane by
  /// affinity — so shards proceed independently, with no cross-shard
  /// barrier until the final wait. The push is per-particle-independent,
  /// so the result is bit-identical to the serial stage for every shard
  /// count (tests/pic/ShardEquivalenceTest.cpp). Submissions go through
  /// \p Exec so a graph-capturing wrapper can record them.
  /// \returns the per-shard launches' events (already waited; they still
  /// gate the bin and the first field half-step, so a captured graph
  /// keeps the edges).
  std::vector<exec::ExecEvent>
  shardedInterpPush(exec::ExecutionBackend &Exec, FusedPushBody Body,
                    Index N, const exec::ExecutionContext &Ctx) {
    const Index Blocks = exec::clampSlabCount(N, Index(Exec.shardCount()));

    std::vector<exec::ExecEvent> PushEvents;
    PushEvents.reserve(std::size_t(Blocks));

    // After a fired rebalance the even split gives way to the
    // occupancy-weighted one: PushFractions (cumulative occupancy at
    // the weighted plane boundaries) rescaled by the current N. Any
    // index partition is bit-identical — this re-split changes balance,
    // never bits.
    const bool Weighted = PushFractions.size() == std::size_t(Blocks) + 1;
    auto BlockRange = [&](Index S) {
      if (!Weighted)
        return exec::slabRange(N, Blocks, S);
      exec::SlabRange R;
      R.Begin = Index(PushFractions[std::size_t(S)] * double(N));
      R.End = S + 1 == Blocks
                  ? N
                  : Index(PushFractions[std::size_t(S) + 1] * double(N));
      return R;
    };

    Stopwatch Wall;
    for (Index S = 0; S < Blocks; ++S) {
      const exec::SlabRange R = BlockRange(S);
      if (R.empty())
        continue; // a weighted block may own no particles
      Body.Offset = R.Begin;
      PushEvents.push_back(exec::submitCachedLaunch(
          Exec, Ctx, PushKernelTiming, R.size(), /*GrainHint=*/0, Body, {},
          StageCache, /*ShardAffinity=*/int(S)));
    }
    for (const exec::ExecEvent &Ev : PushEvents)
      Ev.wait();

    addWall(PushTiming, Wall); // stage-1 stats stay wall-clock true
    return PushEvents;
  }

  /// The nine field lattices of \p G in checkpoint order (Ex..Bz,
  /// Jx..Jz) — saveState and restoreState must agree on this order.
  template <typename GridT> static auto latticesOf(GridT &G) {
    return std::array{&G.Ex, &G.Ey, &G.Ez, &G.Bx, &G.By,
                      &G.Bz, &G.Jx, &G.Jy, &G.Jz};
  }

  /// Checks a just-loaded checkpoint (particles \p Loaded, the nine
  /// lattices \p Fields, window \p Win) against this run: every particle
  /// type indexes the type table (the push reads it unchecked), every
  /// position and momentum component is finite, every position lies
  /// within one cell of the restored window box (every step leaves
  /// particles inside it; a far-out one is corrupt state), every value
  /// of the nine field lattices is finite (a NaN field spreads to every
  /// particle it touches), and the window block lies in range
  /// (GridWindow's ring addressing assumes it). \returns a one-line
  /// reason, or an empty string when the state is valid.
  std::string
  restoredStateError(const Array &Loaded,
                     const std::vector<CheckpointFieldMut<Real>> &Fields,
                     const CheckpointWindow &Win) const {
    const Index Nx = Grid.size().Nx;
    if (Win.PhysBase < 0 || Win.PhysBase >= Nx)
      return "window PhysBase " + std::to_string(Win.PhysBase) +
             " outside [0, " + std::to_string(Nx) + ")";
    if (Win.OriginPlanes < 0 || Win.ShiftCount < 0)
      return "negative window OriginPlanes or ShiftCount";
    static const char *const FieldNames[] = {"Ex", "Ey", "Ez", "Bx", "By",
                                             "Bz", "Jx", "Jy", "Jz"};
    for (std::size_t F = 0; F < Fields.size(); ++F)
      for (Index I = 0; I < Fields[F].Count; ++I)
        if (!std::isfinite(Fields[F].Data[I]))
          return std::string("field ") + FieldNames[F] +
                 " has a non-finite value at element " + std::to_string(I);
    const Vector3<Real> D = Grid.step();
    Vector3<Real> Lo = Grid.baseOrigin();
    if (Win.OriginPlanes != 0) // GridWindow's live-origin arithmetic
      Lo.X += Real(Win.OriginPlanes) * D.X;
    const Vector3<Real> Hi = Lo + Grid.extent() + D;
    Lo = Lo - D;
    auto View = Loaded.view();
    for (Index I = 0, E = View.size(); I < E; ++I) {
      const ParticleT<Real> P = View[I].load();
      if (P.Type < 0 || P.Type >= Types.count())
        return "particle " + std::to_string(I) + " has type " +
               std::to_string(P.Type) + ", outside the " +
               std::to_string(Types.count()) + "-species table";
      for (Real V : {P.Position.X, P.Position.Y, P.Position.Z, P.Momentum.X,
                     P.Momentum.Y, P.Momentum.Z})
        if (!std::isfinite(V))
          return "particle " + std::to_string(I) +
                 " has a non-finite position or momentum";
      const Vector3<Real> X = P.Position;
      if (X.X < Lo.X || X.Y < Lo.Y || X.Z < Lo.Z || X.X > Hi.X ||
          X.Y > Hi.Y || X.Z > Hi.Z)
        return "particle " + std::to_string(I) +
               " lies more than one cell outside the window box";
    }
    return {};
  }

  /// The tile-count heuristic shared by the deposit and field stages:
  /// the explicit option, or 1 for the serial backend (the classic
  /// whole-grid pass, zero tiling overhead), two tiles per shard for
  /// sharded backends (the shard count is the real parallel width), else
  /// two tiles per worker so dynamic backends can balance uneven work
  /// (the tile partitions additionally clamp to the grid's Nx).
  static int resolveStageTiles(int ExplicitTiles,
                               const exec::ExecutionBackend &Exec,
                               int Threads) {
    if (ExplicitTiles > 0)
      return ExplicitTiles;
    if (std::string(Exec.name()) == "serial")
      return 1;
    if (Exec.shardCount() > 0)
      return 2 * Exec.shardCount();
    const int Workers =
        Threads > 0 ? Threads : int(std::thread::hardware_concurrency());
    return 2 * std::max(1, Workers);
  }

  YeeGrid<Real> Grid;
  Array Particles;
  ParticleTypeTable<Real> Types;
  FdtdSolver<Real> Solver;
  std::unique_ptr<SpectralSolver<Real>> Spectral;
  CellIndexer<Real> Indexer;
  PicOptions<Real> Options;
  std::unique_ptr<exec::ExecutionBackend> Backend;
  std::unique_ptr<exec::ExecutionBackend> DepositExec;
  std::unique_ptr<exec::ExecutionBackend> FieldExec;
  std::unique_ptr<TiledCurrentAccumulator<Real>> Accumulator;
  std::unique_ptr<FdtdSlabPartition<Real>> FieldPartition; ///< FDTD only
  std::unique_ptr<minisycl::queue> Queue;
  std::vector<Vector3<Real>> OldPositions;
  std::vector<Vector3<Real>> NewPositions;
  RunStats PushTiming;
  RunStats DepositTiming;
  RunStats FieldTiming;
  RunStats PushKernelTiming;    ///< per-shard stage-1 launches only
  RunStats DepositLaunchStats;  ///< deposit-chain launch ledger
  RunStats FieldLaunchStats;    ///< field-chain launch ledger
  RunStats GraphTiming;         ///< graph-mode step wall (capture+replay)
  exec::ParamBlock StepParams; ///< per-step rebinding surface
  Stopwatch AsyncStepWatch;    ///< submitStepAsync -> finishStepAsync wall
  exec::KernelCache StageCache; ///< J-clear and stage-1 bodies
  exec::KernelCache ChainCache; ///< deposit + field chain bodies
  std::unique_ptr<exec::StepGraph> Graph;
  Index GraphN = Index(-1); ///< ensemble size the graph was captured at
  long long GraphCaptures = 0;
  long long GraphReplays = 0;
  std::unique_ptr<Rebalancer<Real>> Rebal; ///< armed by RebalanceThreshold
  std::unique_ptr<AbsorbingLayer<Real>> Absorber; ///< armed by AbsorbingCells
  /// Cumulative occupancy fractions at the weighted push-block
  /// boundaries after a fired rebalance; empty = even split.
  std::vector<double> PushFractions;
  long long PartitionEpoch = 0; ///< bumped by every fired repartition
  long long GraphEpoch = -1;    ///< PartitionEpoch the graph captured at
  long long AbsorbedTotal = 0;  ///< particles removed by the open boundary
  long long WindowRetiredTotal = 0;  ///< retired by the trailing edge
  long long WindowInjectedTotal = 0; ///< injected at the leading edge
  int FieldTileCount = 1;
  Real CurrentTime = Real(0);
  int Steps = 0;
};

} // namespace pic
} // namespace hichi

#endif // HICHI_PIC_PICSIMULATION_H
