//===-- tests/exec/ShardedBackendTest.cpp - Sharded backend units --------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit coverage of the sharded execution backend and the shared slab
/// partition helper it (and the deposit tiles and FDTD slabs) split
/// with: degenerate clamp cases, exact launch coverage across shard
/// counts, shard-affinity routing (one lane executes the whole launch;
/// equal affinities share a lane), cross-shard dependency ordering and
/// per-shard statistics.
///
//===----------------------------------------------------------------------===//

#include "exec/BackendRegistry.h"
#include "exec/ShardedBackend.h"
#include "exec/SlabPartition.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

using namespace hichi;
using namespace hichi::exec;

namespace {

//===----------------------------------------------------------------------===//
// The shared slab partition helper
//===----------------------------------------------------------------------===//

TEST(SlabPartitionTest, DegenerateRequestsCollapseToOneSlab) {
  EXPECT_EQ(clampSlabCount(8, 0), 1);   // the "0 = auto" spelling
  EXPECT_EQ(clampSlabCount(8, -3), 1);  // negative requests
  EXPECT_EQ(clampSlabCount(1, 100), 1); // a single plane cannot split
  EXPECT_EQ(clampSlabCount(0, 4), 1);   // empty ranges still partition
  EXPECT_EQ(clampSlabCount(-2, 4), 1);  // ...and so do negative ones
}

TEST(SlabPartitionTest, RequestsClampToItemCount) {
  EXPECT_EQ(clampSlabCount(8, 100), 8);
  EXPECT_EQ(clampSlabCount(8, 8), 8);
  EXPECT_EQ(clampSlabCount(8, 3), 3);
}

TEST(SlabPartitionTest, RangesTileTheItemSpaceContiguously) {
  for (Index Items : {Index(0), Index(1), Index(7), Index(64)})
    for (Index Requested : {Index(-1), Index(0), Index(1), Index(3),
                            Index(13), Index(100)}) {
      const Index Count = clampSlabCount(Items, Requested);
      ASSERT_GE(Count, 1);
      Index Covered = 0;
      for (Index S = 0; S < Count; ++S) {
        const SlabRange R = slabRange(Items, Count, S);
        EXPECT_EQ(R.Begin, Covered)
            << "Items=" << Items << " Count=" << Count << " Slab=" << S;
        EXPECT_GE(R.size(), 0);
        Covered = R.End;
      }
      EXPECT_EQ(Covered, Items > 0 ? Items : 0);
    }
}

TEST(SlabPartitionTest, FirstSlabsTakeTheExtraItems) {
  // 7 items in 3 slabs: 3 + 2 + 2 (the OpenMP schedule(static) split
  // every consumer — tiles, FDTD slabs, shards — must agree on).
  EXPECT_EQ(slabRange(7, 3, 0).size(), 3);
  EXPECT_EQ(slabRange(7, 3, 1).size(), 2);
  EXPECT_EQ(slabRange(7, 3, 2).size(), 2);
}

//===----------------------------------------------------------------------===//
// Sharded backend: coverage, routing, dependencies, stats
//===----------------------------------------------------------------------===//

TEST(ShardedBackendTest, RegisteredWithShardCountFromThreads) {
  auto Backend = createBackend("sharded", {/*Threads=*/5, /*Grain=*/0});
  ASSERT_NE(Backend, nullptr);
  EXPECT_EQ(std::string(Backend->name()), "sharded");
  EXPECT_TRUE(Backend->isAsynchronous());
  EXPECT_FALSE(Backend->needsQueue());
  EXPECT_EQ(Backend->shardCount(), 5);
  EXPECT_EQ(Backend->concurrency(), 5);
  // The shard counters are reachable through the base interface.
  EXPECT_EQ(Backend->shardStats().size(), std::size_t(5));
  // Non-sharded backends report no shards and no counters.
  EXPECT_EQ(createBackend("serial")->shardCount(), 0);
  EXPECT_EQ(createBackend("openmp")->shardCount(), 0);
  EXPECT_TRUE(createBackend("serial")->shardStats().empty());
}

TEST(ShardedBackendTest, EveryItemVisitedExactlyOncePerStep) {
  for (int Shards : {1, 2, 5, 13}) {
    auto Backend = createBackend("sharded", {Shards, 0});
    ASSERT_NE(Backend, nullptr);
    const Index N = 4099; // prime: ragged blocks
    const int Steps = 3;
    const std::size_t Slots = static_cast<std::size_t>(N);
    std::vector<std::atomic<int>> Visits(Slots);
    auto Body = [&](Index Begin, Index End, int StepBegin, int StepEnd) {
      for (int S = StepBegin; S < StepEnd; ++S)
        for (Index I = Begin; I < End; ++I)
          ++Visits[std::size_t(I)];
    };
    StepKernel Kernel(Body, kernelIdentity<decltype(Body)>());
    RunStats Stats;
    Backend->launch({N, 0, Steps}, Kernel, {}, Stats);
    for (Index I = 0; I < N; ++I)
      ASSERT_EQ(Visits[std::size_t(I)].load(), Steps)
          << "shards=" << Shards << " item " << I;
    EXPECT_GE(Stats.HostNs, 0.0);
  }
}

TEST(ShardedBackendTest, AffinityRoutesWholeLaunchToOneLane) {
  ShardedBackend Backend({/*Threads=*/4, /*Grain=*/0});
  std::mutex Mutex;
  std::map<int, std::set<std::thread::id>> ThreadsOfLaunch;

  RunStats Stats;
  std::vector<ExecEvent> Events;
  // Kernel bodies must outlive their launches (waited below).
  using BodyFn = std::function<void(Index, Index, int, int)>;
  std::vector<std::unique_ptr<BodyFn>> Bodies;
  for (int L = 0; L < 12; ++L) {
    Bodies.push_back(std::make_unique<BodyFn>([&, L](Index, Index, int, int) {
      std::lock_guard<std::mutex> Lock(Mutex);
      ThreadsOfLaunch[L].insert(std::this_thread::get_id());
    }));
    LaunchSpec Spec;
    Spec.Items = 64;
    Spec.StepBegin = 0;
    Spec.StepEnd = 1;
    Spec.ShardAffinity = L; // routes to shard L % 4
    Events.push_back(Backend.submit(
        Spec, StepKernel(*Bodies.back(), kernelIdentity<BodyFn>()), {},
        Stats));
  }
  for (const ExecEvent &Ev : Events)
    Ev.wait();
  Backend.drain();

  // Every affinity-routed launch ran entirely on one thread, and
  // launches with equal affinity modulo the shard count share it.
  for (const auto &[L, Threads] : ThreadsOfLaunch)
    EXPECT_EQ(Threads.size(), 1u) << "launch " << L;
  for (int L = 0; L < 12; ++L)
    EXPECT_EQ(*ThreadsOfLaunch[L].begin(),
              *ThreadsOfLaunch[L % 4].begin())
        << "launch " << L << " should share shard " << L % 4 << "'s lane";
  // Four distinct lanes total.
  std::set<std::thread::id> Lanes;
  for (const auto &[L, Threads] : ThreadsOfLaunch)
    Lanes.insert(*Threads.begin());
  EXPECT_EQ(Lanes.size(), 4u);
}

TEST(ShardedBackendTest, DependenciesOrderAcrossShards) {
  ShardedBackend Backend({/*Threads=*/3, /*Grain=*/0});
  std::atomic<bool> FirstDone{false};
  std::atomic<int> OrderViolations{0};

  auto First = [&](Index, Index, int, int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    FirstDone = true;
  };
  auto Second = [&](Index, Index, int, int) {
    if (!FirstDone.load())
      ++OrderViolations;
  };
  RunStats Stats;
  LaunchSpec FirstSpec;
  FirstSpec.Items = 1;
  FirstSpec.StepBegin = 0;
  FirstSpec.StepEnd = 1;
  FirstSpec.ShardAffinity = 1; // pinned to shard 1's lane only
  const ExecEvent FirstEv = Backend.submit(
      FirstSpec, StepKernel(First, kernelIdentity<decltype(First)>()), {},
      Stats);

  LaunchSpec SecondSpec; // partitioned across all three shards
  SecondSpec.Items = 30;
  SecondSpec.StepBegin = 0;
  SecondSpec.StepEnd = 1;
  SecondSpec.DependsOn.push_back(FirstEv);
  const ExecEvent SecondEv = Backend.submit(
      SecondSpec, StepKernel(Second, kernelIdentity<decltype(Second)>()), {},
      Stats);
  SecondEv.wait();
  EXPECT_EQ(OrderViolations.load(), 0)
      << "a dependent block ran before its dependency completed";

  // An empty ordering-only launch (the submitJoin shape) still orders
  // after its dependencies and completes.
  KernelCache Keep;
  RunStats JoinStats;
  const ExecEvent Join =
      submitJoin(Backend, {}, JoinStats, {FirstEv, SecondEv}, Keep);
  Join.wait();
  EXPECT_TRUE(Join.isComplete());
}

TEST(ShardedBackendTest, ShardStatsCountItemsAndLaunches) {
  ShardedBackend Backend({/*Threads=*/4, /*Grain=*/0});
  auto Body = [](Index, Index, int, int) {};
  StepKernel Kernel(Body, kernelIdentity<decltype(Body)>());
  RunStats Stats;
  Backend.launch({100, 0, 1}, Kernel, {}, Stats); // partitioned: 25 each
  LaunchSpec Pinned;
  Pinned.Items = 10;
  Pinned.StepBegin = 0;
  Pinned.StepEnd = 1;
  Pinned.ShardAffinity = 2;
  Backend.submit(Pinned, Kernel, {}, Stats).wait();

  const std::vector<ShardStat> ShardStats = Backend.shardStats();
  ASSERT_EQ(ShardStats.size(), 4u);
  long long TotalItems = 0, TotalLaunches = 0;
  for (const ShardStat &S : ShardStats) {
    TotalItems += S.Items;
    TotalLaunches += S.Launches;
  }
  EXPECT_EQ(TotalItems, 110);
  EXPECT_EQ(TotalLaunches, 5); // 4 partitioned blocks + 1 pinned launch
  EXPECT_EQ(ShardStats[0].Items, 25);
  EXPECT_EQ(ShardStats[2].Items, 35); // its block plus the pinned launch
  EXPECT_GT(shardImbalance(ShardStats), 1.0);
  EXPECT_LE(shardOccupancy(ShardStats, 0), 1.0);
}

TEST(ShardedBackendTest, AffinityChainsNeedNoEventsOnOneLane) {
  // The per-shard submission pattern the PIC stages use: a chain of
  // launches with the same affinity executes in submission order by the
  // lane's FIFO guarantee alone.
  ShardedBackend Backend({/*Threads=*/3, /*Grain=*/0});
  std::vector<int> Order; // written only by shard 1's lane
  RunStats Stats;
  std::vector<ExecEvent> Events;
  std::vector<std::unique_ptr<std::function<void(Index, Index, int, int)>>>
      Bodies;
  for (int L = 0; L < 8; ++L) {
    Bodies.push_back(
        std::make_unique<std::function<void(Index, Index, int, int)>>(
            [&Order, L](Index, Index, int, int) { Order.push_back(L); }));
    LaunchSpec Spec;
    Spec.Items = 1;
    Spec.StepBegin = 0;
    Spec.StepEnd = 1;
    Spec.ShardAffinity = 1;
    Events.push_back(Backend.submit(
        Spec,
        StepKernel(*Bodies.back(),
                   kernelIdentity<std::function<void(Index, Index, int, int)>>()),
        {}, Stats));
  }
  for (const ExecEvent &Ev : Events)
    Ev.wait();
  ASSERT_EQ(Order.size(), 8u);
  for (int L = 0; L < 8; ++L)
    EXPECT_EQ(Order[std::size_t(L)], L);
}

} // namespace
