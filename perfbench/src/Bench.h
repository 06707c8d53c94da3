//===-- perfbench/src/Bench.h - Run modes -----------------------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Report.h"

#include <cstdint>
#include <ctime>
#include <string>

namespace perfbench {

struct BenchArgs {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory for checkpoints and trace files.
  std::string WorkDir = ".bench_build/perfbench/work";
  /// Worker threads of the PIC stage backends (the host's core count).
  int Threads = 1;
};

/// CPU time the process has used so far, summed over all its threads
/// (those that have exited too), in nanoseconds. With paravirtual steal
/// accounting, the guest kernel leaves out the time the hypervisor gave
/// this vCPU's host core to another guest. So unlike wall time, it does
/// not grow when neighbours on a shared host take the CPU.
inline double processCpuNs() {
  timespec Ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return double(Ts.tv_sec) * 1e9 + double(Ts.tv_nsec);
}

/// The traced run (--trace 1): every per-layer metric, spans written as a
/// Chrome trace under WorkDir.
void runTraced(const BenchArgs &Args, RunResult &Result);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
