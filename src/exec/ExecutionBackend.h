//===-- exec/ExecutionBackend.h - Pluggable execution backends -*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution-backend abstraction: the paper's parallelization
/// strategies (Section 4's OpenMP-style static loop, the DPC++ dynamic
/// kernel, and the NUMA-arena variant) as first-class, registrable
/// objects instead of a hard-coded switch.
///
/// A backend executes a type-erased *block kernel* over the cross product
/// of an item range and a fused group of time steps. The type erasure
/// happens at block granularity — one indirect call per contiguous block
/// of items, never per item — so the concrete inner loop is still
/// compiled (and vectorized) at the instantiation site of the templated
/// driver (StepLoop.h), exactly as the old monolithic runner was.
///
/// An *item* is any unit of work that is independent of its peers within
/// one launch. The step loop's items are particles; the PIC deposition's
/// items are current tiles — read-modify-write blocks that each own a
/// disjoint slab of the grid and are themselves loops over many
/// particles (pic/TiledCurrentAccumulator.h). Coarse items like tiles
/// set LaunchSpec::GrainHint = 1 so dynamically scheduled backends treat
/// each item as one schedulable chunk.
///
/// **Submission model.** The primary entry point is the event-based
/// submit(): it enqueues one launch and returns an ExecEvent — an
/// awaitable completion handle. Launches chain through
/// LaunchSpec::DependsOn: a backend must not start a launch before every
/// listed event has completed. Synchronous backends (serial, openmp,
/// dpcpp on CPU queues) run the launch inside submit() and return an
/// already-complete event; asynchronous backends (async-pipeline, dpcpp
/// on non-blocking simulated-GPU queues) return early and execute later.
/// The historic blocking launch() survives as a thin
/// `submit(...).wait()` facade, so call sites that want synchronous
/// semantics keep their exact shape.
///
/// Lifetime contract for asynchronous submission: the kernel's referee
/// and the RunStats object must outlive the launch — keep them alive
/// until the returned event (or a dependent one) has been waited on, and
/// read the stats only after that wait. Dependencies must point to
/// events of launches submitted *earlier* (on any backend or queue);
/// forward or cyclic dependencies are user error and may deadlock.
///
/// Layering: this header is dependency-light (no minisycl/threading
/// includes) so that templated drivers anywhere in the tree can accept an
/// ExecutionBackend&. The concrete backends live in Backends.h/.cpp and
/// AsyncPipeline.h/.cpp, and the string-keyed factory in
/// BackendRegistry.h/.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_EXEC_EXECUTIONBACKEND_H
#define HICHI_EXEC_EXECUTIONBACKEND_H

#include "exec/ExecEvent.h"
#include "support/Config.h"
#include "support/Timer.h"

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace minisycl {
class queue;
} // namespace minisycl

namespace hichi {

namespace gpusim {
struct KernelProfile;
} // namespace gpusim

/// Aggregate timing of a sequence of backend launches (one runSimulation /
/// runStepLoop call).
struct RunStats {
  double HostNs = 0;    ///< wall time spent in kernels on this host
  double ModeledNs = 0; ///< gpusim-modeled time (== HostNs on CPU paths)
  bool Modeled = false; ///< true if ModeledNs came from the device model

  /// Submit-overhead counters (maintained by ExecutionBackend::submit):
  /// how many launches were submitted against this stats object, how
  /// many LaunchSpecs the drivers constructed for them (graph replays
  /// re-issue prebuilt specs, so replayed steps leave SpecsBuilt at 0),
  /// and the wall nanoseconds spent inside submit() *outside* kernel
  /// bodies — the per-launch overhead a compiled step graph exists to
  /// collapse.
  long long Launches = 0;
  long long SpecsBuilt = 0;
  double SubmitNs = 0;
};

namespace exec {

/// Per-backend tuning knobs, fixed at construction time (a backend
/// instance is an immutable strategy + configuration pair).
struct BackendConfig {
  /// Worker threads; 0 means every worker the pool / queue has (for the
  /// async-pipeline backend: its lane count, default 2).
  int Threads = 0;

  /// Dynamic-scheduling chunk size in particles; 0 picks the same
  /// heuristic DPC++'s CPU device uses (threading::defaultGrain). Static
  /// backends ignore it.
  Index Grain = 0;
};

/// Per-launch resources a backend may need: the queue for the
/// minisycl-backed kinds (its device decides CPU vs simulated GPU) and an
/// optional gpusim workload profile so simulated-GPU events carry modeled
/// times.
struct ExecutionContext {
  minisycl::queue *Queue = nullptr;
  const gpusim::KernelProfile *GpuWorkload = nullptr;
};

/// \returns a stable identity for kernel type \p KernelFn without RTTI:
/// the address of a function-template-static is unique per instantiation.
/// Backends hand it to the minisycl JIT-cost model so each distinct
/// step-loop kernel is charged its first-launch cost exactly once.
template <typename KernelFn> const void *kernelIdentity() {
  static const char Tag = 0;
  return &Tag;
}

/// Non-owning type-erased reference to a block kernel
///
///   void operator()(Index Begin, Index End, int StepBegin, int StepEnd)
///
/// which advances particles [Begin, End) through time steps
/// [StepBegin, StepEnd) in step-major order. The referee must outlive the
/// launch: through the submit() call for synchronous backends, until the
/// returned event has been waited on for asynchronous ones (stack
/// lambdas are fine as long as the wait happens in the same scope).
class StepKernel {
public:
  template <typename Fn>
  StepKernel(const Fn &Body, const void *TypeId)
      : Ctx(&Body), TypeId(TypeId),
        Invoke([](const void *C, Index Begin, Index End, int StepBegin,
                  int StepEnd) {
          (*static_cast<const Fn *>(C))(Begin, End, StepBegin, StepEnd);
        }) {}

  void operator()(Index Begin, Index End, int StepBegin, int StepEnd) const {
    Invoke(Ctx, Begin, End, StepBegin, StepEnd);
  }

  /// Identity of the underlying kernel type (see kernelIdentity()).
  const void *typeId() const { return TypeId; }

private:
  const void *Ctx;
  const void *TypeId;
  void (*Invoke)(const void *, Index, Index, int, int);
};

/// One backend launch: every item in [0, Items) through the fused
/// step group [StepBegin, StepEnd).
struct LaunchSpec {
  Index Items = 0;
  int StepBegin = 0;
  int StepEnd = 0;

  /// Preferred items per type-erased kernel call for dynamically
  /// scheduled backends; 0 = backend heuristic. Launches whose items are
  /// coarse read-modify-write blocks (current tiles) rather than single
  /// particles set 1 so every item is one schedulable chunk. An explicit
  /// BackendConfig::Grain still wins; statically scheduled backends
  /// ignore the hint (they always hand each worker one contiguous
  /// block).
  Index GrainHint = 0;

  /// Shard-affinity hint: >= 0 routes the *whole* launch to that shard's
  /// FIFO lane on sharded backends (modulo the shard count), so a driver
  /// that partitioned its data per shard can keep submitting each
  /// shard's work to its owning lane without any cross-shard barrier.
  /// -1 (the default) lets a sharded backend partition [0, Items) across
  /// its shards itself; backends without shards ignore the hint.
  int ShardAffinity = -1;

  /// Events this launch must not start before. Every backend honours the
  /// list (synchronous ones wait inline at submit); each listed event
  /// must belong to a launch submitted earlier, else deadlock. Complete
  /// events (including default-constructed ones) are free.
  std::vector<ExecEvent> DependsOn = {};
};

/// Lifetime counters of one shard, for occupancy/imbalance diagnostics
/// (PicSimulation::shardStats(), pic_langmuir --shards,
/// bench_pic's sharded family).
struct ShardStat {
  long long Launches = 0; ///< block tasks executed (incl. empty blocks)
  long long Items = 0;    ///< items processed across all launches
  double BusyNs = 0;      ///< kernel busy time on this shard's worker
};

/// Max-over-mean processed items across shards: 1.0 = perfectly
/// balanced, 2.0 = the busiest shard carried twice the average. 0 when
/// nothing ran.
inline double shardImbalance(const std::vector<ShardStat> &Stats) {
  long long Total = 0, Max = 0;
  for (const ShardStat &S : Stats) {
    Total += S.Items;
    Max = S.Items > Max ? S.Items : Max;
  }
  if (Total <= 0 || Stats.empty())
    return 0.0;
  return double(Max) * double(Stats.size()) / double(Total);
}

/// Busy-time occupancy of shard \p S relative to the busiest shard
/// (1.0 = as busy as the bottleneck shard).
inline double shardOccupancy(const std::vector<ShardStat> &Stats,
                             std::size_t S) {
  double Max = 0;
  for (const ShardStat &Stat : Stats)
    Max = Stat.BusyNs > Max ? Stat.BusyNs : Max;
  if (S >= Stats.size() || Max <= 0)
    return 0.0;
  return Stats[S].BusyNs / Max;
}

/// An execution strategy for item loops. Implementations must be
/// result-deterministic: any partitioning of [0, Items) is legal because
/// block kernels are order-independent across items, but every
/// item must be visited exactly once per step and steps must be
/// ascending per item — that is what keeps all backends bit-identical
/// (the paper Section 4 equivalence claim, enforced by
/// tests/core/RunnerEquivalenceTest.cpp and tests/exec/ExecEventTest.cpp).
class ExecutionBackend {
public:
  virtual ~ExecutionBackend() = default;

  /// The registry key this backend was created under, e.g. "dpcpp-numa".
  virtual const char *name() const = 0;

  /// True if submit() requires ExecutionContext::Queue.
  virtual bool needsQueue() const { return false; }

  /// True if asynchronous submission is this backend's *intrinsic*
  /// model — submit() returns before the launch executes regardless of
  /// context (async-pipeline). Drivers use it to pick event-chained
  /// submission over mega-kernels (StepLoop.h, FusionMode::Auto). Note:
  /// dpcpp also returns deferred events when the per-launch
  /// ExecutionContext carries a non-blocking queue, but the backend
  /// cannot see the queue at query time, so it reports
  /// false — callers who want chained submission there opt in explicitly
  /// via FusionMode::EventChain (hichi_push --chain).
  virtual bool isAsynchronous() const { return false; }

  /// How many launches this backend can have in flight simultaneously
  /// (1 for synchronous backends; the lane count for async-pipeline).
  /// Pipelined callers size their chunking from it.
  virtual int concurrency() const { return 1; }

  /// Number of persistent shards this backend partitions work into, or
  /// 0 for non-sharded backends. Drivers that can route per-shard work
  /// (LaunchSpec::ShardAffinity) or split reductions into per-shard
  /// chains key off this (pic/PicSimulation.h,
  /// pic/TiledCurrentAccumulator.h).
  virtual int shardCount() const { return 0; }

  /// Snapshot of the shards' lifetime counters, in shard order; empty
  /// for non-sharded backends.
  virtual std::vector<ShardStat> shardStats() const { return {}; }

  /// Zeroes the shards' counters (a windowed-measurement reset); a
  /// no-op for non-sharded backends.
  virtual void resetShardStats() {}

  /// Enqueues \p Kernel over \p Spec (after Spec.DependsOn) and returns
  /// the launch's completion event. Timing accumulates into \p Stats no
  /// later than the returned event completes; read \p Stats only after
  /// waiting. See the file comment for the asynchronous lifetime
  /// contract.
  ///
  /// Non-virtual: wraps the backend's submitImpl() with the
  /// submit-overhead ledger (RunStats::Launches / SubmitNs). Synchronous
  /// backends run kernels *inside* submitImpl; they report that time via
  /// noteInlineKernelNs() so SubmitNs measures bookkeeping only, and a
  /// thread-local depth counter keeps decorator backends (graph capture)
  /// from double-counting the launches they forward.
  ExecEvent submit(const LaunchSpec &Spec, const StepKernel &Kernel,
                   const ExecutionContext &Ctx, RunStats &Stats) {
    ThreadSubmitState &TS = threadSubmitState();
    const bool Outermost = TS.Depth == 0;
    ++TS.Depth;
    const double InlineBefore = TS.InlineKernelNs;
    Stopwatch Watch;
    ExecEvent Ev = submitImpl(Spec, Kernel, Ctx, Stats);
    const double WallNs = double(Watch.elapsedNanoseconds());
    --TS.Depth;
    if (Outermost) {
      const double InlineNs = TS.InlineKernelNs - InlineBefore;
      Stats.Launches += 1;
      Stats.SubmitNs += WallNs > InlineNs ? WallNs - InlineNs : 0.0;
    }
    return Ev;
  }

  /// The historic blocking API: executes \p Kernel over \p Spec and
  /// returns once the work (and its stats accumulation) is complete. A
  /// thin facade over submit().
  void launch(const LaunchSpec &Spec, const StepKernel &Kernel,
              const ExecutionContext &Ctx, RunStats &Stats) {
    submit(Spec, Kernel, Ctx, Stats).wait();
  }

protected:
  /// Backend-specific submission; called only through submit().
  virtual ExecEvent submitImpl(const LaunchSpec &Spec,
                               const StepKernel &Kernel,
                               const ExecutionContext &Ctx,
                               RunStats &Stats) = 0;

  /// Helper for synchronous implementations: blocks until every
  /// dependency of \p Spec has completed.
  static void waitForDependencies(const LaunchSpec &Spec) {
    for (const ExecEvent &Dep : Spec.DependsOn)
      Dep.wait();
  }

  /// Synchronous submitImpl implementations report the wall time they
  /// spent executing (or blocked on) kernel bodies, so the submit()
  /// wrapper can subtract it from the measured overhead. Asynchronous
  /// backends, whose kernels run on lane/pool threads, report nothing —
  /// their whole submit wall *is* overhead.
  static void noteInlineKernelNs(double Ns) {
    threadSubmitState().InlineKernelNs += Ns;
  }

private:
  /// Graph replay re-issues captured nodes through submitImpl directly
  /// (one graph issue, not N counted launches) and reuses the
  /// inline-kernel ledger for its own overhead accounting (StepGraph.h).
  friend class StepGraph;

  struct ThreadSubmitState {
    int Depth = 0;           ///< nesting of decorator submits on this thread
    double InlineKernelNs = 0; ///< monotonic inline-kernel-time ledger
  };
  static ThreadSubmitState &threadSubmitState() {
    thread_local ThreadSubmitState TS;
    return TS;
  }
};

/// Owning storage for kernel bodies submitted asynchronously: StepKernel
/// is non-owning, so a driver that submits a chain of launches and waits
/// only at the end parks each body here until that wait. Chain helpers
/// (TiledCurrentAccumulator::submitDeposit, FdtdSolver::submitStep,
/// SpectralSolver::submitStep) take one by reference so a whole
/// deposit→field chain shares a single lifetime scope; one-shot callers
/// use a local cache. A driver that submits the same kernel sequence
/// every step calls rewind() at the top of the step and emplace()s each
/// body in submission order; a slot whose previous occupant has the
/// same closure type is rebuilt *in place* (destroy + copy-construct
/// into the existing heap allocation), so the steady
/// state allocates nothing and kernel storage addresses stay stable —
/// which is also what lets a captured step graph keep referencing the
/// bodies across replays. A type mismatch at the cursor (the driver took
/// a different path this step) truncates the stale tail and falls back
/// to fresh allocation.
///
/// Lifetime contract: rewinding and re-emplacing is only legal once
/// every launch still referencing the cached bodies has been waited on —
/// the same per-step wait the asynchronous submit contract already
/// requires.
class KernelCache {
public:
  /// Resets the cursor so the next emplace() reuses the first slot.
  void rewind() { Cursor = 0; }

  /// Drops every slot (use on shape/config changes that alter the kernel
  /// sequence).
  void clear() {
    Slots.clear();
    Cursor = 0;
  }

  std::size_t size() const { return Slots.size(); }

  /// Stores \p Block and \returns a reference valid until the slot is
  /// re-emplaced or the cache cleared.
  template <typename BlockFn> const BlockFn &emplace(BlockFn Block) {
    const void *Id = kernelIdentity<BlockFn>();
    if (Cursor < Slots.size() && Slots[Cursor].TypeId == Id) {
      BlockFn *Stored = static_cast<BlockFn *>(Slots[Cursor].Body.get());
      Stored->~BlockFn();
      new (Stored) BlockFn(std::move(Block));
      ++Cursor;
      return *Stored;
    }
    Slots.resize(Cursor); // different kernel sequence: drop the stale tail
    auto Body = std::make_shared<BlockFn>(std::move(Block));
    Slots.push_back({Body, Id});
    ++Cursor;
    return *Body;
  }

private:
  struct Slot {
    std::shared_ptr<void> Body; ///< owns the BlockFn (deleter knows the type)
    const void *TypeId;         ///< kernelIdentity of the stored closure
  };
  std::vector<Slot> Slots;
  std::size_t Cursor = 0;
};

/// Submits \p Block as one single-step launch over \p Items items, with
/// the body parked in \p Cache so it outlives an asynchronous execution
/// (the lifetime contract above). The shared submission shape of every
/// event-chained tile/elementwise driver (tiled deposition, FDTD slabs,
/// spectral passes, the PIC step's own launches): only Items, GrainHint
/// and the dependency list vary.
template <typename BlockFn>
ExecEvent submitCachedLaunch(ExecutionBackend &Backend,
                             const ExecutionContext &Ctx, RunStats &Stats,
                             Index Items, Index GrainHint, BlockFn Block,
                             const std::vector<ExecEvent> &DependsOn,
                             KernelCache &Cache, int ShardAffinity = -1) {
  const BlockFn &Body = Cache.emplace(std::move(Block));
  LaunchSpec Spec;
  Spec.Items = Items;
  Spec.StepBegin = 0;
  Spec.StepEnd = 1;
  Spec.GrainHint = GrainHint;
  Spec.ShardAffinity = ShardAffinity;
  Spec.DependsOn = DependsOn;
  Stats.SpecsBuilt += 1;
  return Backend.submit(Spec, StepKernel(Body, kernelIdentity<BlockFn>()),
                        Ctx, Stats);
}

/// Submits an empty ordering-only launch that depends on every event in
/// \p DependsOn and \returns its completion event — a join handle that
/// completes once all listed events have. Drivers that fan a stage out
/// into per-shard chains use it to hand one event to downstream
/// consumers (the deposit's per-shard reduce chains hand the field solve
/// a single JReady this way).
inline ExecEvent submitJoin(ExecutionBackend &Backend,
                            const ExecutionContext &Ctx, RunStats &Stats,
                            const std::vector<ExecEvent> &DependsOn,
                            KernelCache &Cache) {
  return submitCachedLaunch(Backend, Ctx, Stats, /*Items=*/0, /*GrainHint=*/0,
                            [](Index, Index, int, int) {}, DependsOn, Cache);
}

} // namespace exec
} // namespace hichi

#endif // HICHI_EXEC_EXECUTIONBACKEND_H
