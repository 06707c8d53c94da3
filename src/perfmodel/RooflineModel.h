//===-- perfmodel/RooflineModel.h - CPU NSPS predictions -------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Roofline prediction of the paper's NSPS metric on the Table-1 CPU node,
/// for every cell of Table 2 and every point of the Fig. 1 scaling curves.
/// The pusher "is memory bound" (Section 5.3), so the model is
///
///   NSPS = max(MemoryNs, ComputeNs) * SchedulingFactor
///
/// where MemoryNs comes from streamed bytes over the NUMA-aware effective
/// bandwidth, ComputeNs from effective flops over the (layout-dependent)
/// sustained vector throughput, and SchedulingFactor carries the runtime
/// overhead the paper quotes as "~10% on average" for DPC++.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_PERFMODEL_ROOFLINEMODEL_H
#define HICHI_PERFMODEL_ROOFLINEMODEL_H

#include "perfmodel/MachineModel.h"
#include "perfmodel/WorkloadModel.h"

namespace hichi {
namespace perfmodel {

/// One modeled point, with the two roofline legs exposed for inspection.
struct CpuPrediction {
  double MemoryNs = 0;       ///< DRAM leg [ns/particle/step].
  double ComputeNs = 0;      ///< Vector-compute leg [ns/particle/step].
  double RemoteFraction = 0; ///< NUMA traffic crossing sockets.
  double SchedulingFactor = 1;
  double Nsps = 0;           ///< The headline number (Table 2 cell).

  bool memoryBound() const { return MemoryNs >= ComputeNs; }
};

/// Predicts the NSPS of one Table-2 configuration on \p Machine with
/// \p Threads threads (threads fill socket 0 first, matching the bound
/// thread placement of the Fig. 1 experiment).
CpuPrediction predictCpuNsps(const CpuMachine &Machine, Scenario S, Layout L,
                             Precision P, Parallelization Par, int Threads);

/// Fig. 1 ordinate: speedup of \p Threads threads over one thread of the
/// same implementation.
double predictSpeedup(const CpuMachine &Machine, Scenario S, Layout L,
                      Precision P, Parallelization Par, int Threads);

/// Models the paper's first-iteration effect (Section 5.3): the factor by
/// which iteration 0 exceeds a steady-state iteration, combining the JIT
/// cost (DPC++ only) and the cold-memory first touch.
double predictFirstIterationFactor(Parallelization Par, double IterationNs,
                                   double JitNs);

/// One modeled PIC-stage point on an arbitrary (possibly measured)
/// machine: ns per work item at the given thread count.
struct StagePrediction {
  double MemoryNs = 0;  ///< streamed-bytes leg [ns/item]
  double ComputeNs = 0; ///< vector-compute leg [ns/item]
  double NsPerItem = 0; ///< max of the two legs

  bool memoryBound() const { return MemoryNs >= ComputeNs; }
};

/// Roofline of one PIC stage (WorkloadModel.h StageWorkload) on
/// \p Machine with \p Threads threads, compact socket fill. Unlike
/// predictCpuNsps this carries no NUMA remote fraction: the tuned
/// placements it compares (static pools, persistent shard lanes) keep
/// traffic local by construction. The autotuner seeds its knob
/// choices from this and hill-climbs from measured stats afterwards.
StagePrediction predictStageNs(const CpuMachine &Machine,
                               const StageWorkload &Workload, int Threads,
                               Precision P = Precision::Double);

} // namespace perfmodel
} // namespace hichi

#endif // HICHI_PERFMODEL_ROOFLINEMODEL_H
