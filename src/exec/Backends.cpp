//===-- exec/Backends.cpp - The built-in execution backends ---------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "exec/Backends.h"

#include "minisycl/minisycl.h"
#include "support/Logging.h"
#include "support/Timer.h"
#include "threading/ParallelFor.h"
#include "threading/TaskScheduler.h"

#include <algorithm>
#include <functional>

using namespace hichi;
using namespace hichi::exec;

namespace {

/// Saves a queue's CPU scheduling configuration and restores it on scope
/// exit. Backends used to mutate set_thread_count/set_cpu_places and
/// leave the changes behind, so a dpcpp run silently inherited a previous
/// dpcpp-numa configuration of the same queue; every minisycl-backed
/// launch now goes through this guard. (Non-blocking queues snapshot the
/// configuration at submit, so restoring before the device thread runs
/// the kernel is safe.)
class QueueConfigGuard {
public:
  explicit QueueConfigGuard(minisycl::queue &Q)
      : Q(Q), Places(Q.get_cpu_places()), Width(Q.thread_count()) {}
  ~QueueConfigGuard() {
    Q.set_cpu_places(Places);
    Q.set_thread_count(Width);
  }

  QueueConfigGuard(const QueueConfigGuard &) = delete;
  QueueConfigGuard &operator=(const QueueConfigGuard &) = delete;

private:
  minisycl::queue &Q;
  minisycl::cpu_places Places;
  int Width;
};

} // namespace

ExecEvent SerialBackend::submitImpl(const LaunchSpec &Spec,
                                const StepKernel &Kernel,
                                const ExecutionContext &, RunStats &Stats) {
  waitForDependencies(Spec);
  Stopwatch Watch;
  if (Spec.Items > 0 && Spec.StepEnd > Spec.StepBegin)
    Kernel(0, Spec.Items, Spec.StepBegin, Spec.StepEnd);
  const double Ns = double(Watch.elapsedNanoseconds());
  Stats.HostNs += Ns;
  Stats.ModeledNs += Ns;
  noteInlineKernelNs(Ns); // kernel ran inline: not submit overhead
  return ExecEvent();
}

ExecEvent StaticPoolBackend::submitImpl(const LaunchSpec &Spec,
                                    const StepKernel &Kernel,
                                    const ExecutionContext &,
                                    RunStats &Stats) {
  waitForDependencies(Spec);
  threading::ThreadPool &Pool = threading::ThreadPool::global();
  int Width = Config.Threads > 0 ? std::min(Config.Threads, Pool.maxWidth())
                                 : Pool.maxWidth();
  const Index N = Spec.Items;
  Stopwatch Watch;
  if (N > 0 && Spec.StepEnd > Spec.StepBegin) {
    if (Width <= 1 || N == 1) {
      Kernel(0, N, Spec.StepBegin, Spec.StepEnd);
    } else {
      std::function<void(int)> Task = [&](int Worker) {
        threading::IndexRange Block =
            threading::staticBlock({0, N}, Worker, Width);
        if (!Block.empty())
          Kernel(Block.Begin, Block.End, Spec.StepBegin, Spec.StepEnd);
      };
      Pool.run(Width, Task);
    }
  }
  const double Ns = double(Watch.elapsedNanoseconds());
  Stats.HostNs += Ns;
  Stats.ModeledNs += Ns;
  noteInlineKernelNs(Ns); // the parallel region ran inside submit
  return ExecEvent();
}

ExecEvent DpcppBackend::submitImpl(const LaunchSpec &Spec,
                               const StepKernel &Kernel,
                               const ExecutionContext &Ctx, RunStats &Stats) {
  if (!Ctx.Queue)
    fatalError("dpcpp execution backends require a minisycl::queue");
  minisycl::queue &Q = *Ctx.Queue;

  QueueConfigGuard Guard(Q);
  Q.set_cpu_places(NumaArenas ? minisycl::cpu_places::numa_domains
                              : minisycl::cpu_places::flat);
  if (Config.Threads > 0)
    Q.set_thread_count(Config.Threads);

  const Index N = Spec.Items;
  const int StepBegin = Spec.StepBegin, StepEnd = Spec.StepEnd;
  if (N <= 0 || StepEnd <= StepBegin) {
    waitForDependencies(Spec); // even an empty launch orders after its deps
    return ExecEvent();
  }

  // Work items are chunks of the item range, not single items: the
  // type-erased indirect call happens once per chunk while the scheduler
  // distributes chunks dynamically — the same effective grain the old
  // per-particle kernel shape reached through the handler's dispatch.
  // Precedence: explicit user grain, then the launch's own hint (coarse
  // items like current tiles ask for chunk == item), then the heuristic.
  const Index Grain = Config.Grain > 0 ? Config.Grain
                      : Spec.GrainHint > 0
                          ? Spec.GrainHint
                          : threading::defaultGrain(N, Q.thread_count());
  const Index NumChunks = (N + Grain - 1) / Grain;
  const StepKernel Body = Kernel; // by-copy capture, SYCL kernel semantics

  auto Group = [&](minisycl::handler &H) {
    if (Ctx.GpuWorkload)
      H.set_workload_hint(*Ctx.GpuWorkload);
    // A local size of 1 makes each chunk one schedulable unit.
    H.parallel_for(minisycl::nd_range<1>(minisycl::range<1>(std::size_t(NumChunks)),
                                         minisycl::range<1>(1)),
                   [=](minisycl::item<1> Chunk) {
                     const Index Begin =
                         Index(Chunk.get_linear_id()) * Grain;
                     const Index End = std::min(Begin + Grain, N);
                     Body(Begin, End, StepBegin, StepEnd);
                   });
    // The launcher lambda above has one C++ type for every kernel routed
    // through this backend; identify the launch by the *step-loop* kernel
    // instead so the JIT model charges each distinct kernel once, and
    // report the logical work (particles x fused steps) for the GPU
    // model rather than the chunk count.
    H.set_kernel_identity(Body.typeId());
    H.set_modeled_work_items(N * Index(StepEnd - StepBegin));
  };

  if (!Q.async_submit()) {
    // Eager queue: classic synchronous semantics.
    waitForDependencies(Spec);
    // An eager queue runs the kernel inside submit(); report the
    // kernel's own wall so the submit-overhead ledger keeps only the
    // enqueue.
    minisycl::event Event = Q.submit(Group);
    Event.wait_and_throw();
    noteInlineKernelNs(double(Event.host_duration_ns()));
    Stats.HostNs += double(Event.host_duration_ns());
    Stats.ModeledNs += double(Event.duration_ns());
    Stats.Modeled = Stats.Modeled || Event.is_modeled();
    return ExecEvent();
  }

  // Non-blocking queue (simulated GPU): enqueue with the exec-level
  // dependencies bridged through depends_on_host (ExecEvent and
  // minisycl::event are distinct types; the device thread runs the wait
  // before the kernel, and the events point at earlier submissions, so
  // this cannot deadlock), and hand back a deferred event whose
  // finalizer waits the device thread and publishes the profiling
  // numbers into Stats.
  std::vector<ExecEvent> Deps = Spec.DependsOn;
  minisycl::event Event = Q.submit([&](minisycl::handler &H) {
    if (!Deps.empty())
      H.depends_on_host([Deps] {
        for (const ExecEvent &Dep : Deps)
          Dep.wait();
      });
    Group(H);
  });
  RunStats *StatsPtr = &Stats;
  return ExecEvent::deferred([this, Event, StatsPtr]() {
    Event.wait_and_throw();
    std::lock_guard<std::mutex> Lock(StatsMutex);
    StatsPtr->HostNs += double(Event.host_duration_ns());
    StatsPtr->ModeledNs += double(Event.duration_ns());
    StatsPtr->Modeled = StatsPtr->Modeled || Event.is_modeled();
  });
}
