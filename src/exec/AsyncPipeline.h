//===-- exec/AsyncPipeline.h - Asynchronous pipeline backend ---*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "async-pipeline" execution backend: a genuinely asynchronous
/// strategy whose submit() returns before the launch executes. Launches
/// are queued in submission order and executed by a small set of *lanes*
/// (dedicated worker threads, BackendConfig::Threads, default 2); each
/// launch runs serially on one lane, after waiting its
/// LaunchSpec::DependsOn events.
///
/// The parallelism model is therefore *pipelining across launches*, not
/// splitting within one: two dependency-free launches overlap on two
/// lanes, which is what event-chained step submission amortizes
/// (StepLoop.h). Since every launch replays its items in ascending order
/// on one thread, results are bit-identical to the serial backend by
/// construction.
///
/// Progress guarantee: lanes pop launches in FIFO order (the
/// threading::InOrderWorkQueue contract), so as long as every dependency
/// points at an *earlier submitted* launch (the exec layer's documented
/// contract), the earliest unfinished launch always has completed
/// dependencies and the pipeline cannot deadlock — with any lane count,
/// including 1.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_EXEC_ASYNCPIPELINE_H
#define HICHI_EXEC_ASYNCPIPELINE_H

#include "exec/ExecutionBackend.h"
#include "threading/WorkQueue.h"

#include <mutex>

namespace hichi {
namespace exec {

/// Lane-based asynchronous backend ("async-pipeline" in the registry).
class AsyncPipelineBackend final : public ExecutionBackend {
public:
  /// \p Config.Threads is the lane count (0 = the default of 2; more
  /// lanes let more independent launches overlap).
  explicit AsyncPipelineBackend(const BackendConfig &Config);

  const char *name() const override { return "async-pipeline"; }
  bool isAsynchronous() const override { return true; }
  int concurrency() const override { return Lanes.workerCount(); }

  /// Blocks until every launch submitted so far has completed (the
  /// destructor drains implicitly).
  void drain() { Lanes.drain(); }

protected:
  ExecEvent submitImpl(const LaunchSpec &Spec, const StepKernel &Kernel,
                       const ExecutionContext &Ctx, RunStats &Stats) override;

private:
  struct Task {
    StepKernel Kernel;
    LaunchSpec Spec; ///< owns copies of the dependency events
    RunStats *Stats = nullptr;
    ExecEvent Done;
  };

  void runTask(Task &T);

  threading::InOrderWorkQueue<Task> Lanes;

  /// Serializes RunStats accumulation: several lanes may retire launches
  /// that share one Stats object (one pipeline stage's accumulator).
  std::mutex StatsMutex;
};

} // namespace exec
} // namespace hichi

#endif // HICHI_EXEC_ASYNCPIPELINE_H
