//===-- tests/perfmodel/CalibrationTest.cpp - Measured machine profiles ---===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `hichi-machine-v1` contract: profile JSON round-trips every field
/// bit-identically (the %.17g promise), tier lookup picks the right
/// working-set point, CpuMachine::fromProfile maps the measured figures
/// onto the roofline descriptor, and a bounded real measurement produces
/// a sane profile.
///
//===----------------------------------------------------------------------===//

#include "perfmodel/Calibration.h"
#include "perfmodel/RooflineModel.h"
#include "perfmodel/WorkloadModel.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace hichi;
using namespace hichi::perfmodel;

namespace {

/// A synthetic two-socket-looking profile with deliberately awkward
/// doubles (non-terminating binary fractions, accumulated rounding) —
/// exactly the values a lossy writer would corrupt.
MachineProfile syntheticProfile() {
  MachineProfile P;
  P.Host = "synthetic-host";
  P.Threads = 8;
  P.NumaDomains = 2;
  P.FmaFlopsPerCore = 1.0e9 / 3.0;
  P.FmaFlopsSaturated = (0.1 + 0.2) * 1e10;
  P.Tiers = {
      {16.0 * 1024, 200.0e9 / 3.0, 61.3e9, 1000.0e9 / 7.0, 135.0e9},
      {4.0 * 1024 * 1024, 30.000000000000004e9, 28.1e9, 90.1e9, 85.3e9},
      {64.0 * 1024 * 1024, 12.0e9, 11.0e9, 40.0e9, 38.5e9},
  };
  P.Submit = {{"serial", 120.5, 300.25}, {"openmp", 1.0 / 3.0 * 1e4, 4000.0}};
  return P;
}

TEST(CalibrationTest, JsonRoundTripIsBitIdentical) {
  const MachineProfile P = syntheticProfile();
  const std::string Doc = Calibration::toJson(P);

  json::Value Parsed;
  std::string Error;
  ASSERT_TRUE(json::parse(Doc, Parsed, &Error)) << Error;
  EXPECT_EQ(Parsed.stringOr("schema", ""), "hichi-machine-v1");

  MachineProfile Back;
  ASSERT_TRUE(Calibration::fromJson(Parsed, Back, &Error)) << Error;
  EXPECT_TRUE(Back == P); // operator== compares every double exactly
}

TEST(CalibrationTest, SaveLoadRoundTripsThroughAFile) {
  const MachineProfile P = syntheticProfile();
  const std::string Path = ::testing::TempDir() + "hichi_profile_test.json";
  std::string Error;
  ASSERT_TRUE(Calibration::save(P, Path, &Error)) << Error;

  MachineProfile Back;
  ASSERT_TRUE(Calibration::load(Path, Back, &Error)) << Error;
  EXPECT_TRUE(Back == P);
  std::remove(Path.c_str());
}

TEST(CalibrationTest, FromJsonRejectsWrongSchema) {
  json::Value Doc;
  std::string Error;
  ASSERT_TRUE(json::parse(R"({"schema": "hichi-bench-v1"})", Doc, &Error));
  MachineProfile Out;
  EXPECT_FALSE(Calibration::fromJson(Doc, Out, &Error));
}

TEST(CalibrationTest, TierLookupPicksFirstLargeEnoughTier) {
  const MachineProfile P = syntheticProfile();
  // Below / at the smallest tier: the L1-ish point.
  EXPECT_DOUBLE_EQ(P.perCoreBandwidthAt(1024), P.Tiers[0].PerCoreBandwidth);
  EXPECT_DOUBLE_EQ(P.perCoreBandwidthAt(16.0 * 1024),
                   P.Tiers[0].PerCoreBandwidth);
  // Between tiers: the first tier that fits the working set.
  EXPECT_DOUBLE_EQ(P.perCoreBandwidthAt(1.0 * 1024 * 1024),
                   P.Tiers[1].PerCoreBandwidth);
  // Beyond the last tier: DRAM figures.
  EXPECT_DOUBLE_EQ(P.perCoreBandwidthAt(1e12), P.Tiers[2].PerCoreBandwidth);
  EXPECT_DOUBLE_EQ(P.dramPerCoreBandwidth(), P.Tiers[2].PerCoreBandwidth);
  EXPECT_DOUBLE_EQ(P.dramSaturatedBandwidth(),
                   P.Tiers[2].SaturatedBandwidth);
  // Empty profile: all lookups are 0.
  MachineProfile Empty;
  EXPECT_DOUBLE_EQ(Empty.perCoreBandwidthAt(1024), 0.0);
  EXPECT_DOUBLE_EQ(Empty.dramSaturatedBandwidth(), 0.0);
}

TEST(CalibrationTest, BandwidthTiersDescendTowardDram) {
  // The cache hierarchy's defining monotonicity, pinned on the synthetic
  // profile the other tests use: per-core bandwidth must not increase
  // with working-set size.
  const MachineProfile P = syntheticProfile();
  for (std::size_t I = 1; I < P.Tiers.size(); ++I) {
    EXPECT_LE(P.Tiers[I].PerCoreBandwidth, P.Tiers[I - 1].PerCoreBandwidth);
    EXPECT_LE(P.Tiers[I].SaturatedBandwidth,
              P.Tiers[I - 1].SaturatedBandwidth);
  }
}

TEST(CalibrationTest, SubmitOverheadLookup) {
  const MachineProfile P = syntheticProfile();
  EXPECT_DOUBLE_EQ(P.submitOverheadNs("serial", -1.0), 120.5);
  EXPECT_DOUBLE_EQ(P.submitOverheadNs("openmp", -1.0), 1.0 / 3.0 * 1e4);
  EXPECT_DOUBLE_EQ(P.submitOverheadNs("unmeasured", 42.0), 42.0);
}

TEST(CalibrationTest, FromProfileMapsOntoTheRooflineMachine) {
  const MachineProfile P = syntheticProfile();
  const CpuMachine M = CpuMachine::fromProfile(P);

  EXPECT_EQ(M.Sockets, P.NumaDomains);
  EXPECT_EQ(M.coreCount(), P.Threads);
  // The compute product encodes the measured FMA rate: peak double
  // flops of the whole node = FmaFlopsPerCore x cores, so single
  // (twice the lanes) is twice that.
  EXPECT_NEAR(M.peakFlopsSingle(), 2.0 * P.FmaFlopsPerCore * P.Threads,
              1e-3 * M.peakFlopsSingle());
  // The DRAM tier splits across sockets; per-core is the measured
  // single-core DRAM stream.
  EXPECT_NEAR(M.LocalBandwidthPerSocket * M.Sockets,
              P.dramSaturatedBandwidth(), 1.0);
  EXPECT_DOUBLE_EQ(M.PerCoreBandwidth, P.dramPerCoreBandwidth());
}

TEST(CalibrationTest, StagePredictionsScaleUntilBandwidthSaturates) {
  const CpuMachine M = CpuMachine::fromProfile(syntheticProfile());
  const StageWorkload W = pushStageWorkload(Precision::Double);

  const StagePrediction One = predictStageNs(M, W, 1);
  const StagePrediction Four = predictStageNs(M, W, 4);
  const StagePrediction All = predictStageNs(M, W, M.coreCount());
  // More threads never predict slower...
  EXPECT_LE(Four.NsPerItem, One.NsPerItem);
  EXPECT_LE(All.NsPerItem, Four.NsPerItem);
  // ...and the memory leg is capped by the socket ceiling: 4 cores of
  // 12 GB/s would be 48 GB/s, but the synthetic socket delivers 20.
  const double SocketBw = M.LocalBandwidthPerSocket;
  const double FourCoreBw = 4.0 * M.PerCoreBandwidth;
  if (FourCoreBw > SocketBw) {
    EXPECT_GT(Four.MemoryNs, One.MemoryNs / 4.0);
  }
}

TEST(CalibrationTest, BoundedMeasurementProducesASaneProfile) {
  // An ultra-small real measurement: sanity of the machinery, not of
  // the numbers (CI hosts are noisy; the profile only has to be
  // positive and well-formed).
  CalibrationConfig Config;
  Config.Threads = 1;
  Config.Repeats = 1;
  Config.BytesPerRepeat = 256.0 * 1024;
  Config.FmaIterations = 10 * 1000;
  Config.WorkingSets = {64.0 * 1024};
  const MachineProfile P = Calibration::measure(Config);

  EXPECT_FALSE(P.Host.empty());
  EXPECT_EQ(P.Threads, 1);
  EXPECT_GE(P.NumaDomains, 1);
  EXPECT_GT(P.FmaFlopsPerCore, 0.0);
  EXPECT_GT(P.FmaFlopsSaturated, 0.0);
  ASSERT_EQ(P.Tiers.size(), 1u);
  EXPECT_DOUBLE_EQ(P.Tiers[0].WorkingSetBytes, 64.0 * 1024);
  EXPECT_GT(P.Tiers[0].PerCoreBandwidth, 0.0);
  EXPECT_GT(P.Tiers[0].SaturatedBandwidth, 0.0);
  // The slow-tail (p95-of-time) bandwidth can never beat the median.
  EXPECT_LE(P.Tiers[0].PerCoreP95Bandwidth,
            P.Tiers[0].PerCoreBandwidth + 1e-9);
  EXPECT_TRUE(P.Submit.empty()); // measure() leaves submit to the bench

  // And the measured profile round-trips like the synthetic one.
  json::Value Doc;
  std::string Error;
  ASSERT_TRUE(json::parse(Calibration::toJson(P), Doc, &Error)) << Error;
  MachineProfile Back;
  ASSERT_TRUE(Calibration::fromJson(Doc, Back, &Error)) << Error;
  EXPECT_TRUE(Back == P);
}

} // namespace
