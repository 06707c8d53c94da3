//===-- tests/exec/ExecEventTest.cpp - Event-based launch API ------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the event-based asynchronous launch API: ExecEvent semantics
/// (safe double-wait, pending/signal, deferred finalizers), dependency
/// chaining through LaunchSpec::DependsOn (linear chains, diamond
/// graphs, cross-backend edges), submit + late wait on the asynchronous
/// pipeline backend, fused-vs-chained step-loop equivalence across every
/// registered backend x layout, and the minisycl event completion-state
/// fixes (wait on an already-completed event and double-wait are safe
/// no-ops; non-blocking GPU submits order through depends_on).
///
//===----------------------------------------------------------------------===//

#include "core/Core.h"
#include "exec/AsyncPipeline.h"
#include "exec/BackendRegistry.h"
#include "exec/StepLoop.h"
#include "fields/DipoleWave.h"
#include "minisycl/minisycl.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace hichi;
using namespace hichi::exec;

namespace {

//===----------------------------------------------------------------------===//
// ExecEvent semantics
//===----------------------------------------------------------------------===//

TEST(ExecEventTest, DefaultEventIsCompleteAndWaitIsANoOp) {
  ExecEvent E;
  EXPECT_TRUE(E.isComplete());
  E.wait();
  E.wait(); // double-wait: still a no-op
  E.signal(); // signaling a complete event: no-op
  EXPECT_TRUE(E.isComplete());
}

TEST(ExecEventTest, PendingEventCompletesOnSignalAndToleratesDoubleWait) {
  ExecEvent E = ExecEvent::pending();
  EXPECT_FALSE(E.isComplete());

  std::thread Signaler([E] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    E.signal();
  });
  E.wait();
  EXPECT_TRUE(E.isComplete());
  E.wait(); // wait after completion: safe no-op
  E.wait();
  Signaler.join();
}

TEST(ExecEventTest, DeferredFinalizerRunsExactlyOnceAcrossManyWaiters) {
  std::atomic<int> Finalized{0};
  ExecEvent E = ExecEvent::deferred([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ++Finalized;
  });
  EXPECT_FALSE(E.isComplete());

  std::vector<std::thread> Waiters;
  for (int I = 0; I < 4; ++I)
    Waiters.emplace_back([E] { E.wait(); });
  E.wait();
  for (std::thread &T : Waiters)
    T.join();
  EXPECT_EQ(Finalized.load(), 1);
  EXPECT_TRUE(E.isComplete());
  E.wait(); // and again: no second finalize
  EXPECT_EQ(Finalized.load(), 1);
}

//===----------------------------------------------------------------------===//
// Dependency chaining on the asynchronous pipeline backend
//===----------------------------------------------------------------------===//

TEST(ExecEventTest, ChainedDependenciesExecuteInOrder) {
  AsyncPipelineBackend Backend({/*Threads=*/2, /*Grain=*/0});
  RunStats Stats;
  std::mutex OrderMutex;
  std::vector<int> Order;
  auto Record = [&](int Id) {
    return [&, Id](Index, Index, int, int) {
      std::lock_guard<std::mutex> Lock(OrderMutex);
      Order.push_back(Id);
    };
  };
  auto A = Record(0), B = Record(1), C = Record(2);
  StepKernel KA(A, kernelIdentity<decltype(A)>());
  StepKernel KB(B, kernelIdentity<decltype(B)>());
  StepKernel KC(C, kernelIdentity<decltype(C)>());

  LaunchSpec SpecA;
  SpecA.Items = 1;
  SpecA.StepEnd = 1;
  ExecEvent EA = Backend.submit(SpecA, KA, {}, Stats);

  LaunchSpec SpecB = SpecA;
  SpecB.DependsOn.push_back(EA);
  ExecEvent EB = Backend.submit(SpecB, KB, {}, Stats);

  LaunchSpec SpecC = SpecA;
  SpecC.DependsOn.push_back(EB);
  ExecEvent EC = Backend.submit(SpecC, KC, {}, Stats);

  EC.wait(); // the chain is linear: waiting the tail implies the rest
  EXPECT_TRUE(EA.isComplete());
  EXPECT_TRUE(EB.isComplete());
  ASSERT_EQ(Order.size(), 3u);
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2}));
  EXPECT_GE(Stats.HostNs, 0.0);
}

TEST(ExecEventTest, DiamondDependencyGraphExecutesInTopologicalOrder) {
  // A; B and C depend on A; D depends on B and C. With two lanes, B and
  // C may overlap — only the partial order is guaranteed.
  AsyncPipelineBackend Backend({/*Threads=*/2, /*Grain=*/0});
  RunStats Stats;
  std::atomic<int> Clock{0};
  std::atomic<int> TimeA{-1}, TimeB{-1}, TimeC{-1}, TimeD{-1};
  auto Stamp = [&Clock](std::atomic<int> *Slot) {
    return [&Clock, Slot](Index, Index, int, int) { *Slot = Clock++; };
  };
  auto A = Stamp(&TimeA), B = Stamp(&TimeB), C = Stamp(&TimeC),
       D = Stamp(&TimeD);
  StepKernel KA(A, kernelIdentity<decltype(A)>());
  StepKernel KB(B, kernelIdentity<decltype(B)>());
  StepKernel KC(C, kernelIdentity<decltype(C)>());
  StepKernel KD(D, kernelIdentity<decltype(D)>());

  LaunchSpec Root;
  Root.Items = 1;
  Root.StepEnd = 1;
  ExecEvent EA = Backend.submit(Root, KA, {}, Stats);

  LaunchSpec Left = Root, Right = Root;
  Left.DependsOn.push_back(EA);
  Right.DependsOn.push_back(EA);
  ExecEvent EB = Backend.submit(Left, KB, {}, Stats);
  ExecEvent EC = Backend.submit(Right, KC, {}, Stats);

  LaunchSpec Join = Root;
  Join.DependsOn.push_back(EB);
  Join.DependsOn.push_back(EC);
  ExecEvent ED = Backend.submit(Join, KD, {}, Stats);

  ED.wait();
  EB.wait();
  EC.wait();
  ASSERT_GE(TimeA.load(), 0);
  EXPECT_LT(TimeA.load(), TimeB.load());
  EXPECT_LT(TimeA.load(), TimeC.load());
  EXPECT_GT(TimeD.load(), TimeB.load());
  EXPECT_GT(TimeD.load(), TimeC.load());
}

TEST(ExecEventTest, SubmitReturnsBeforeExecutionAndLateWaitSynchronizes) {
  AsyncPipelineBackend Backend({/*Threads=*/1, /*Grain=*/0});
  RunStats Stats;
  std::atomic<bool> Ran{false};
  auto Slow = [&](Index, Index, int, int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    Ran = true;
  };
  StepKernel K(Slow, kernelIdentity<decltype(Slow)>());
  LaunchSpec Spec;
  Spec.Items = 1;
  Spec.StepEnd = 1;
  ExecEvent E = Backend.submit(Spec, K, {}, Stats);
  // submit() must not have blocked for the kernel's 30 ms.
  EXPECT_FALSE(Ran.load());

  // ... unrelated host work happens here ...
  E.wait(); // late wait: synchronizes and publishes the stats
  EXPECT_TRUE(Ran.load());
  EXPECT_TRUE(E.isComplete());
  EXPECT_GT(Stats.HostNs, 0.0);
}

TEST(ExecEventTest, BlockingLaunchFacadeIsSynchronousOnAsyncBackends) {
  AsyncPipelineBackend Backend({/*Threads=*/2, /*Grain=*/0});
  RunStats Stats;
  std::atomic<bool> Ran{false};
  auto Body = [&](Index, Index, int, int) { Ran = true; };
  StepKernel K(Body, kernelIdentity<decltype(Body)>());
  Backend.launch({1, 0, 1}, K, {}, Stats);
  EXPECT_TRUE(Ran.load()); // launch() == submit().wait()
}

TEST(ExecEventTest, SynchronousBackendsWaitTheirDependencies) {
  // A dependency produced by the async backend must be honoured by a
  // synchronous backend's submit (cross-backend edge).
  AsyncPipelineBackend Async({/*Threads=*/1, /*Grain=*/0});
  auto Serial = createBackend("serial");
  ASSERT_NE(Serial, nullptr);
  RunStats Stats;
  std::atomic<int> Value{0};

  auto SlowWrite = [&](Index, Index, int, int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Value = 42;
  };
  StepKernel KW(SlowWrite, kernelIdentity<decltype(SlowWrite)>());
  LaunchSpec WriteSpec;
  WriteSpec.Items = 1;
  WriteSpec.StepEnd = 1;
  ExecEvent Write = Async.submit(WriteSpec, KW, {}, Stats);

  int Seen = -1;
  auto Read = [&](Index, Index, int, int) { Seen = Value.load(); };
  StepKernel KR(Read, kernelIdentity<decltype(Read)>());
  LaunchSpec ReadSpec;
  ReadSpec.Items = 1;
  ReadSpec.StepEnd = 1;
  ReadSpec.DependsOn.push_back(Write);
  Serial->submit(ReadSpec, KR, {}, Stats).wait();
  EXPECT_EQ(Seen, 42);
}

TEST(ExecEventTest, InlineKernelTimeIsNotBookedAsSubmitOverhead) {
  // Synchronous backends run the kernel inside submit(); the ledger must
  // subtract it, so a 20 ms kernel leaves only the enqueue in SubmitNs.
  minisycl::queue Q{minisycl::cpu_device()};
  ExecutionContext Ctx;
  Ctx.Queue = &Q;
  auto Sleep = [](Index, Index, int, int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  StepKernel Kernel(Sleep, kernelIdentity<decltype(Sleep)>());
  LaunchSpec Spec;
  Spec.Items = 1;
  Spec.StepEnd = 1;
  for (const char *Name : {"serial", "openmp", "dpcpp", "dpcpp-numa"}) {
    auto Backend = createBackend(Name);
    ASSERT_NE(Backend, nullptr) << Name;
    RunStats Stats;
    Backend->submit(Spec, Kernel, Ctx, Stats).wait();
    EXPECT_GE(Stats.HostNs, 20e6) << Name;
    EXPECT_LT(Stats.SubmitNs, 5e6) << Name;
  }
}

TEST(ExecEventTest, AsyncPipelineAdvertisesItsShape) {
  auto Backend = createBackend("async-pipeline", {/*Threads=*/3});
  ASSERT_NE(Backend, nullptr);
  EXPECT_TRUE(Backend->isAsynchronous());
  EXPECT_EQ(Backend->concurrency(), 3);
  EXPECT_FALSE(Backend->needsQueue());
  for (const char *Sync : {"serial", "openmp", "dpcpp", "dpcpp-numa"}) {
    auto B = createBackend(Sync);
    ASSERT_NE(B, nullptr) << Sync;
    EXPECT_FALSE(B->isAsynchronous()) << Sync;
    EXPECT_EQ(B->concurrency(), 1) << Sync;
  }
}

//===----------------------------------------------------------------------===//
// Fused vs chained step-loop equivalence
//===----------------------------------------------------------------------===//

constexpr Index N = 400;
constexpr int Steps = 18;

template <typename Array>
std::vector<ParticleT<double>> runStepLoopWith(const std::string &Backend,
                                               FusionMode Mode,
                                               int FuseSteps) {
  Array Particles(N);
  initializeBallAtRest(Particles, N, Vector3<double>::zero(), 1.0,
                       PS_Electron, /*Seed=*/1717);
  auto Types = ParticleTypeTable<double>::natural();
  auto Wave = DipoleWaveSource<double>::fromPower(1.0, 1.0, 1.0);

  auto BackendPtr = createBackend(Backend);
  EXPECT_NE(BackendPtr, nullptr) << Backend;
  minisycl::queue Q{minisycl::cpu_device()};
  ExecutionContext Ctx;
  Ctx.Queue = &Q;
  StepLoopOptions<double> Opts;
  Opts.LightVelocity = 1.0;
  Opts.FuseSteps = FuseSteps;
  Opts.Fusion = Mode;
  runStepLoop(*BackendPtr, Ctx, Particles, Wave, Types, /*Dt=*/0.05, Steps,
              Opts);

  std::vector<ParticleT<double>> Out;
  for (Index I = 0; I < N; ++I)
    Out.push_back(Particles[I].load());
  return Out;
}

void expectBitwiseEqual(const std::vector<ParticleT<double>> &A,
                        const std::vector<ParticleT<double>> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (std::size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Position, B[I].Position) << "particle " << I;
    EXPECT_EQ(A[I].Momentum, B[I].Momentum) << "particle " << I;
    EXPECT_EQ(A[I].Gamma, B[I].Gamma) << "particle " << I;
  }
}

/// The API-redesign equivalence matrix: for every registered backend and
/// both layouts, the event-chained submission shape is bit-identical to
/// the mega-kernel shape (and to the serial unfused reference).
TEST(ExecEventTest, FusedAndChainedSubmissionAreBitIdenticalEverywhere) {
  auto Reference = runStepLoopWith<ParticleArrayAoS<double>>(
      "serial", FusionMode::MegaKernel, 1);
  for (const std::string &Backend :
       BackendRegistry::instance().names()) {
    if (Backend == "echo")
      continue; // another test's throwaway registration
    expectBitwiseEqual(Reference,
                       runStepLoopWith<ParticleArrayAoS<double>>(
                           Backend, FusionMode::MegaKernel, 4));
    expectBitwiseEqual(Reference,
                       runStepLoopWith<ParticleArrayAoS<double>>(
                           Backend, FusionMode::EventChain, 4));
    expectBitwiseEqual(Reference,
                       runStepLoopWith<ParticleArraySoA<double>>(
                           Backend, FusionMode::MegaKernel, 4));
    expectBitwiseEqual(Reference,
                       runStepLoopWith<ParticleArraySoA<double>>(
                           Backend, FusionMode::EventChain, 4));
  }
}

/// FusionMode::Auto picks the chained shape on asynchronous backends —
/// and the result is still the same bits.
TEST(ExecEventTest, AutoModeOnAsyncBackendMatchesSerial) {
  auto Reference = runStepLoopWith<ParticleArrayAoS<double>>(
      "serial", FusionMode::MegaKernel, 1);
  expectBitwiseEqual(Reference, runStepLoopWith<ParticleArrayAoS<double>>(
                                    "async-pipeline", FusionMode::Auto, 1));
}

//===----------------------------------------------------------------------===//
// minisycl completion-state fixes (the queue-level half of the redesign)
//===----------------------------------------------------------------------===//

TEST(MinisyclEventTest, WaitOnCompletedEventAndDoubleWaitAreSafeNoOps) {
  minisycl::queue Q{minisycl::cpu_device()};
  int *Data = minisycl::malloc_shared<int>(16, Q);
  minisycl::event E = Q.parallel_for(minisycl::range<1>(16),
                                     [=](minisycl::id<1> I) { Data[I] = 1; });
  // Eager CPU queue: the event is born complete...
  EXPECT_TRUE(E.is_complete());
  E.wait();     // ...wait on an already-completed event
  E.wait();     // ...and double-wait are both safe no-ops
  E.wait_and_throw();
  EXPECT_EQ(Data[7], 1);

  minisycl::event Default; // default events are complete too
  Default.wait();
  Default.wait();
  EXPECT_TRUE(Default.is_complete());
  minisycl::free(Data);
}

TEST(MinisyclEventTest, NonBlockingGpuSubmitCompletesThroughWait) {
  minisycl::queue Q{minisycl::gpu_device_p630()};
  ASSERT_TRUE(Q.async_submit()) << "simulated GPUs default to non-blocking";
  int *Data = minisycl::malloc_shared<int>(1024, Q);
  std::fill(Data, Data + 1024, 0);
  minisycl::event E = Q.parallel_for(
      minisycl::range<1>(1024), [=](minisycl::id<1> I) { Data[I] = 2; });
  E.wait();
  E.wait(); // double-wait across the async path
  EXPECT_TRUE(E.is_complete());
  EXPECT_EQ(Data[1023], 2);
  Q.wait(); // queue-level drain after per-event waits: no-op, no hang
  minisycl::free(Data);
}

TEST(MinisyclEventTest, DependsOnOrdersAcrossQueues) {
  // Producer on a non-blocking GPU queue, consumer on a second one that
  // declares the dependency: the consumer must observe the producer's
  // writes even though both submissions return immediately.
  minisycl::queue Producer{minisycl::gpu_device_p630()};
  minisycl::queue Consumer{minisycl::gpu_device_iris_xe_max()};
  int *Data = minisycl::malloc_shared<int>(256, Producer);
  int *Sum = minisycl::malloc_shared<int>(1, Consumer);
  std::fill(Data, Data + 256, 0);
  *Sum = -1;

  minisycl::event Write = Producer.submit([&](minisycl::handler &H) {
    H.parallel_for(minisycl::range<1>(256),
                   [=](minisycl::id<1> I) { Data[I] = 3; });
  });
  minisycl::event Read = Consumer.submit([&](minisycl::handler &H) {
    H.depends_on(Write);
    H.single_task([=] {
      int S = 0;
      for (int I = 0; I < 256; ++I)
        S += Data[I];
      *Sum = S;
    });
  });
  Read.wait();
  EXPECT_EQ(*Sum, 3 * 256);
  minisycl::free(Data);
  minisycl::free(Sum);
}

TEST(MinisyclEventTest, QueueWaitDrainsAllPendingSubmissions) {
  minisycl::queue Q{minisycl::cpu_device()};
  Q.set_async_submit(true); // CPU queues can opt in too
  int *Data = minisycl::malloc_shared<int>(64, Q);
  std::fill(Data, Data + 64, 0);
  for (int Round = 0; Round < 8; ++Round)
    Q.parallel_for(minisycl::range<1>(64),
                   [=](minisycl::id<1> I) { Data[I] += 1; });
  Q.wait(); // in-order drain: all eight rounds retired
  EXPECT_EQ(Data[0], 8);
  EXPECT_EQ(Data[63], 8);
  Q.set_async_submit(false); // drains again; queue back to eager
  minisycl::event E = Q.parallel_for(minisycl::range<1>(64),
                                     [=](minisycl::id<1> I) { Data[I] += 1; });
  EXPECT_TRUE(E.is_complete());
  EXPECT_EQ(Data[0], 9);
  minisycl::free(Data);
}

} // namespace
