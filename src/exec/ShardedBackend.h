//===-- exec/ShardedBackend.h - Persistent-shard backend -------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "sharded" execution backend: the item space is partitioned once
/// into K *persistent shards*, each owning
///
///   * a pinned worker — one dedicated thread (best-effort core-bound,
///     like the thread pool's workers) draining
///   * a FIFO lane — a single-worker threading::InOrderWorkQueue, so
///     everything routed to one shard executes in submission order
///     without any cross-shard synchronization.
///
/// This is the paper's data-locality thesis (Section 4.3) taken one
/// step further than the per-launch NUMA split of dpcpp-numa: work does
/// not merely *run* inside a domain for one launch — the same shard
/// processes the same item slice every step, so the pages its worker
/// first touched stay local to it. It is also the stepping stone to
/// multi-process/multi-node execution: a shard's lane is exactly the
/// seam a process boundary would cut along.
///
/// Submission model (genuinely asynchronous — submit() returns before
/// execution):
///
///   * LaunchSpec::ShardAffinity >= 0 routes the whole launch to that
///     shard's lane (modulo K). Affinity-routed chains on one shard
///     need no events at all — the lane's FIFO order *is* the chain —
///     though dependencies are honoured anyway.
///   * Without affinity, [0, Items) is split into contiguous blocks by
///     the shared slab partition (exec/SlabPartition.h — the same split
///     the deposit tiles and FDTD slabs use, so shard s always receives
///     the same tiles/planes/particles every step) and one block task is
///     pushed per shard; the returned event completes when the last
///     block retires.
///
/// Determinism: a block kernel is order-independent across items
/// (the ExecutionBackend contract), every item is visited exactly once
/// with steps ascending, and each block replays its items in ascending
/// order on one thread — so results are bit-identical to the serial
/// backend by construction, for every shard count. Cross-shard
/// reductions built on top (the deposit's per-shard accumulate→reduce
/// chains) stay bit-identical by the same disjoint-ownership argument
/// as TiledCurrentAccumulator.
///
/// Progress guarantee: lanes pop FIFO and dependencies point at earlier
/// submissions (the exec layer's contract), so the earliest unfinished
/// launch always has its blocks at the head of their lanes with all
/// dependencies complete — no deadlock for any shard count, affinity
/// pattern or dependency chain.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_EXEC_SHARDEDBACKEND_H
#define HICHI_EXEC_SHARDEDBACKEND_H

#include "exec/ExecutionBackend.h"
#include "threading/WorkQueue.h"

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace hichi {
namespace exec {

/// Persistent-shard execution backend ("sharded" in the registry).
class ShardedBackend final : public ExecutionBackend {
public:
  /// \p Config.Threads is the shard count (0 = the default of 4; capped
  /// at 64). Lane threads are created lazily on first use, so idle
  /// sharded backends (e.g. a PIC stage configured but never launched)
  /// cost nothing.
  explicit ShardedBackend(const BackendConfig &Config);
  ~ShardedBackend() override;

  ShardedBackend(const ShardedBackend &) = delete;
  ShardedBackend &operator=(const ShardedBackend &) = delete;

  const char *name() const override { return "sharded"; }
  bool isAsynchronous() const override { return true; }
  int concurrency() const override { return int(Shards.size()); }
  int shardCount() const override { return int(Shards.size()); }

  /// Blocks until every launch submitted so far has completed on every
  /// shard. Host-side only (the destructor drains implicitly).
  void drain();

  /// Snapshot of every shard's lifetime counters, in shard order.
  std::vector<ShardStat> shardStats() const override;

  /// Zeroes every shard's counters, turning shardStats() into a
  /// windowed measurement: a rebalancer (or bench) resets after a
  /// repartition so the next snapshot reflects only the new split.
  /// Safe to call while launches are in flight (counters are guarded),
  /// though a mid-flight reset splits one launch's counts across
  /// windows — call between steps for crisp windows.
  void resetShardStats() override;

  /// Zeroes the counters of shards [\p Begin, \p End) only — the
  /// slice-local reset a pool-lane lease needs (resetting a whole shared
  /// pool would clobber other tenants' windows).
  void resetShardStats(int Begin, int End);

  /// Submits \p Spec confined to the lane slice [\p LaneBegin,
  /// \p LaneBegin + \p LaneCount): affinities resolve modulo the slice
  /// (LaneBegin + A % LaneCount), no-affinity launches partition across
  /// the slice's lanes only, and empty launches ride the slice's first
  /// lane — so a launch routed through a slice can never land on a lane
  /// outside it. This is the serve layer's multi-tenant seam: each
  /// pool-client backend (serve/BackendPool.h) forwards its whole
  /// submission stream through its leased slice, keeping concurrent
  /// jobs' kernels, ordering chains and latency isolated per lane set
  /// while sharing the pool's persistent workers.
  /// submitImpl() is exactly the full-width slice [0, shardCount()).
  ExecEvent submitSlice(const LaunchSpec &Spec, const StepKernel &Kernel,
                        RunStats &Stats, int LaneBegin, int LaneCount);

protected:
  ExecEvent submitImpl(const LaunchSpec &Spec, const StepKernel &Kernel,
                       const ExecutionContext &Ctx, RunStats &Stats) override;

private:
  /// One unit of lane work: the pre-bound task body, the launch's
  /// completion event and, for partitioned launches, the shared
  /// count-down of blocks still outstanding (the last block signals).
  struct Task {
    std::function<void()> Run;
    ExecEvent Done;
    std::shared_ptr<std::atomic<int>> Remaining; ///< null = sole block
  };

  struct Shard {
    std::unique_ptr<threading::InOrderWorkQueue<Task>> Lane;
    ShardStat Stats;          ///< guarded by StatsMutex
    bool WorkerBound = false; ///< lane-thread-local pin flag
  };

  /// Enqueues one block [Begin, End) of \p Spec on shard \p S.
  void pushBlock(int S, const LaunchSpec &Spec, const StepKernel &Kernel,
                 Index Begin, Index End, RunStats &Stats, ExecEvent Done,
                 std::shared_ptr<std::atomic<int>> Remaining);

  void runWorkerTask(int S, Task &T);

  std::vector<Shard> Shards;

  /// Serializes RunStats and ShardStat accumulation: several shards may
  /// retire blocks of launches that share one Stats object.
  mutable std::mutex StatsMutex;
};

} // namespace exec
} // namespace hichi

#endif // HICHI_EXEC_SHARDEDBACKEND_H
