//===-- perfbench/src/selftest.cpp - Tests of the benchmark's helpers -----===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks the benchmark's own helpers: the percentile rule, metric and
/// workload names, span self time, and seeded input generation (one seed
/// gives identical inputs and the identical final picStateHash; two seeds
/// give different inputs of the same size). Exit code 0 when every check
/// passes. Run by test_bench.py.
///
//===----------------------------------------------------------------------===//

#include "Report.h"
#include "Stats.h"
#include "Trace.h"
#include "Workloads.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <thread>

using namespace hichi;
using namespace perfbench;

namespace {

struct Fnv {
  std::uint64_t H = 1469598103934665603ULL;
  void bytes(const void *Ptr, std::size_t Len) {
    const unsigned char *B = static_cast<const unsigned char *>(Ptr);
    for (std::size_t I = 0; I < Len; ++I) {
      H ^= B[I];
      H *= 1099511628211ULL;
    }
  }
  template <typename T> void value(const T &V) { bytes(&V, sizeof(T)); }
  void text(const std::string &S) { bytes(S.data(), S.size()); }
};

/// FNV-1a digest of generated PIC inputs (particle records, seeded
/// fields, stage configuration).
std::uint64_t inputDigest(const PicInputs &In) {
  Fnv F;
  F.text(In.Workload);
  F.text(In.Backend);
  F.value(In.Threads);
  F.value(In.Capacity);
  for (const ParticleT<Real> &P : In.Particles) {
    for (Real V : {P.Position.X, P.Position.Y, P.Position.Z, P.Momentum.X,
                   P.Momentum.Y, P.Momentum.Z, P.Weight})
      F.value(V);
    F.value(P.Type);
  }
  if (In.SeedFields) {
    pic::YeeGrid<Real> G(In.Grid, In.Origin, In.Step);
    In.SeedFields(G);
    for (const pic::ScalarLattice<Real> *L : {&G.Ey, &G.Bz})
      F.bytes(L->raw().data(), L->raw().size() * sizeof(Real));
  }
  return F.H;
}

/// Digest of a job list (every field the scheduler reads).
std::uint64_t jobsDigest(const std::vector<serve::JobSpec> &Jobs) {
  Fnv F;
  for (const serve::JobSpec &J : Jobs) {
    F.text(J.Name);
    F.text(J.Tenant);
    F.text(J.Solver);
    for (int V : {J.Nx, J.Ny, J.Nz, J.PerCell, J.Steps, J.SortEvery})
      F.value(V);
    F.value(J.Amplitude);
    F.value(J.UseGraph);
  }
  return F.H;
}

/// True when \p Name is a valid metric or workload name: 1-64 characters
/// of [A-Za-z0-9_.-], starting with a letter or digit.
bool validName(const std::string &Name) {
  if (Name.empty() || Name.size() > 64 || !std::isalnum((unsigned char)Name[0]))
    return false;
  for (char Ch : Name)
    if (!std::isalnum((unsigned char)Ch) && Ch != '_' && Ch != '.' &&
        Ch != '-')
      return false;
  return true;
}

int Failures = 0;

void check(bool Ok, const char *What) {
  std::printf("%s  %s\n", Ok ? "ok  " : "FAIL", What);
  Failures += !Ok;
}

void testPercentileRule() {
  check(samplesBeyond(200, 0.95) == 10 && supportsPercentile(200, 0.95),
        "200 samples: 10 beyond p95, p95 supported");
  check(samplesBeyond(199, 0.95) == 9 && !supportsPercentile(199, 0.95),
        "199 samples: 9 beyond p95, p95 not supported");
  check(samplesForPercentile(0.95) == 200 && samplesForPercentile(0.90) == 100,
        "p95 needs 200 samples, p90 needs 100");
  check(highestSupportedPercentile(1000) == 0.99,
        "1000 samples: highest supported percentile is p99");
  check(highestSupportedPercentile(250) == 0.95,
        "250 samples: highest supported percentile is p95");
  check(highestSupportedPercentile(100) == 0.90,
        "100 samples: highest supported percentile is p90");
  check(highestSupportedPercentile(19) == 0, "19 samples support no tail");
  std::vector<double> V;
  for (int I = 200; I >= 1; --I)
    V.push_back(I);
  check(percentileOf(V, 0.95) == 190 && percentileOf(V, 0.5) == 100,
        "nearest-rank p95 of 1..200 is 190, p50 is 100");
  check(medianOf({4, 1, 3, 2}) == 2.5 && medianOf({3, 1, 2}) == 2,
        "median of even and odd samples");
}

void testNames() {
  bool AllValid = true;
  for (const MetricDef &M : metricTable())
    AllValid = AllValid && validName(M.Name);
  for (const std::string &W : workloadNames())
    AllValid = AllValid && validName(W);
  check(AllValid, "every metric and workload name matches [A-Za-z0-9_.-]+");
  check(!validName("") && !validName("a b") && !validName(".lead") &&
            !validName("x/y") && !validName(std::string(65, 'a')) &&
            validName("pic.step.unattributed_ns") && validName("window-sparse"),
        "name rule rejects empty, spaces, leading dots, slashes, length 65");
  bool Unique = true;
  for (const MetricDef &A : metricTable())
    Unique = Unique && std::count_if(metricTable().begin(), metricTable().end(),
                                     [&](const MetricDef &B) {
                                       return std::string(A.Name) == B.Name;
                                     }) == 1;
  check(Unique, "metric names are unique");
}

void testSelfTime() {
  Tracer T;
  const int Parent = T.record("parent", -1, 0, 100);
  T.record("a", Parent, 10, 40);
  T.record("b", Parent, 30, 60); // overlaps a: union covers 10..60
  T.record("c", Parent, 90, 120); // clipped to the parent's end
  check(T.selfNs(Parent) == 100 - 50 - 10,
        "self time subtracts the union of child intervals, clipped");
  const int Outer = T.begin("outer");
  const int Inner = T.begin("inner");
  T.end(Inner);
  T.end(Outer);
  check(T.spans()[std::size_t(Inner)].Parent == Outer,
        "a span opened inside another gets it as parent");
}

void testSeededPic(const char *Name,
                   PicInputs (*Make)(std::uint64_t, int), int Threads) {
  const PicInputs A = Make(11, Threads), B = Make(11, Threads),
                  C = Make(12, Threads);
  check(inputDigest(A) == inputDigest(B),
        (std::string(Name) + ": one seed gives identical inputs").c_str());
  check(inputDigest(A) != inputDigest(C) &&
            A.Particles.size() == C.Particles.size(),
        (std::string(Name) + ": two seeds give different inputs of one size")
            .c_str());
  std::unique_ptr<Simulation> SimA = buildSimulation(A);
  std::unique_ptr<Simulation> SimB = buildSimulation(B);
  SimA->run(4);
  SimB->run(4);
  check(stateHash(*SimA) == stateHash(*SimB),
        (std::string(Name) + ": one seed gives the same final picStateHash")
            .c_str());
}

void testSeededServe() {
  const auto A = makeServeJobs(serveBatchSeed(5, 0), 100, "b0");
  const auto B = makeServeJobs(serveBatchSeed(5, 0), 100, "b0");
  const auto C = makeServeJobs(serveBatchSeed(6, 0), 100, "b0");
  check(jobsDigest(A) == jobsDigest(B),
        "serve batch: one seed gives identical jobs");
  check(jobsDigest(A) != jobsDigest(C) && A.size() == C.size(),
        "serve batch: two seeds give different jobs of one count");
  bool InRange = true;
  for (const auto &J : A)
    InRange = InRange && (J.Nx == 16 || J.Nx == 24 || J.Nx == 32) &&
              J.PerCell >= 2 && J.PerCell <= 4 && J.Steps >= 24 &&
              J.Steps <= 48;
  check(InRange, "serve batch: job sizes within the stated ranges");
  const std::vector<hichi::serve::JobSpec> Few(A.begin(), A.begin() + 3);
  bool Same = true;
  for (const auto &J : Few)
    Same = Same && hichi::serve::runStandalone(J) ==
                       hichi::serve::runStandalone(J);
  check(Same, "serve batch: one job spec gives the same final picStateHash");
}

} // namespace

int main() {
  const int Threads = int(std::max(1u, std::thread::hardware_concurrency()));
  testPercentileRule();
  testNames();
  testSelfTime();
  testSeededPic("langmuir-dense", makeLangmuirDense, Threads);
  testSeededPic("window-sparse", makeWindowSparse, Threads);
  testSeededServe();
  std::printf("%d failure(s)\n", Failures);
  return Failures == 0 ? 0 : 1;
}
