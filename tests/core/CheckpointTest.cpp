//===-- tests/core/CheckpointTest.cpp - Checkpoint format tests ----------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The checkpoint contracts: layout-independent round trips (an AoS
// ensemble restores bitwise into an SoA one and back), full-state (v2)
// round trips preserving step index / time / field bits, and damage
// rejection — truncated files, foreign magic, wrong scalar width,
// version confusion, and well-formed files whose particles or window a
// PIC run cannot step all fail with a one-line reason instead of
// crashing, hanging or silently mis-restoring.
//
//===----------------------------------------------------------------------===//

#include "core/Checkpoint.h"
#include "pic/Diagnostics.h"
#include "pic/PicSimulation.h"

#include "gtest/gtest.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>

using namespace hichi;

namespace {

std::string tempPath(const char *Name) {
  return testing::TempDir() + Name;
}

/// Particles whose every scalar has a full irrational mantissa — a
/// round trip that drops or recomputes any bit cannot pass.
template <typename Array> void seedAwkwardParticles(Array &Particles, int N) {
  using Real = typename Array::Scalar;
  for (int I = 0; I < N; ++I) {
    ParticleT<Real> P;
    P.Position = {Real(std::sqrt(2.0) * (I + 1)),
                  Real(std::sqrt(3.0) * (I + 1)),
                  Real(-std::sqrt(5.0) * (I + 1))};
    P.Momentum = {Real(0.1 * I - 0.5), Real(std::cbrt(7.0) * I),
                  Real(1.0 / (I + 3))};
    P.Weight = Real(1e-3 * (I + 1));
    // Deliberately NOT the gamma the momentum implies: the restore must
    // preserve the stored bits verbatim, not recompute them.
    P.Gamma = Real(1.0 + 1e-7 * I);
    P.Type = short(I % 2 == 0 ? PS_Electron : PS_Proton);
    Particles.pushBack(P);
  }
}

template <typename A, typename B>
void expectBitwiseEqual(const A &Lhs, const B &Rhs) {
  using Real = typename A::Scalar;
  ASSERT_EQ(Lhs.size(), Rhs.size());
  for (Index I = 0; I < Lhs.size(); ++I) {
    const ParticleT<Real> P = Lhs.view()[I].load();
    const ParticleT<Real> Q = Rhs.view()[I].load();
    const Real Ps[8] = {P.Position.X, P.Position.Y, P.Position.Z,
                        P.Momentum.X, P.Momentum.Y, P.Momentum.Z,
                        P.Weight,     P.Gamma};
    const Real Qs[8] = {Q.Position.X, Q.Position.Y, Q.Position.Z,
                        Q.Momentum.X, Q.Momentum.Y, Q.Momentum.Z,
                        Q.Weight,     Q.Gamma};
    EXPECT_EQ(0, std::memcmp(Ps, Qs, sizeof(Ps))) << "particle " << I;
    EXPECT_EQ(P.Type, Q.Type) << "particle " << I;
  }
}

TEST(CheckpointTest, AosToSoaBitwiseRoundTrip) {
  const std::string Path = tempPath("ckpt_aos_soa.ckpt");
  ParticleArrayAoS<double> Saved(32);
  seedAwkwardParticles(Saved, 17);

  std::string Error;
  ASSERT_TRUE(saveCheckpoint(Saved, Path, &Error)) << Error;

  ParticleArraySoA<double> Restored(32);
  ASSERT_TRUE(loadCheckpoint(Restored, Path, &Error)) << Error;
  expectBitwiseEqual(Saved, Restored);
  std::remove(Path.c_str());
}

TEST(CheckpointTest, SoaToAosBitwiseRoundTrip) {
  const std::string Path = tempPath("ckpt_soa_aos.ckpt");
  ParticleArraySoA<double> Saved(32);
  seedAwkwardParticles(Saved, 17);

  std::string Error;
  ASSERT_TRUE(saveCheckpoint(Saved, Path, &Error)) << Error;

  ParticleArrayAoS<double> Restored(32);
  ASSERT_TRUE(loadCheckpoint(Restored, Path, &Error)) << Error;
  expectBitwiseEqual(Saved, Restored);
  std::remove(Path.c_str());
}

TEST(CheckpointTest, ScalarWidthMismatchRejected) {
  const std::string Path = tempPath("ckpt_width.ckpt");
  ParticleArrayAoS<double> Saved(8);
  seedAwkwardParticles(Saved, 4);
  ASSERT_TRUE(saveCheckpoint(Saved, Path));

  ParticleArrayAoS<float> Restored(8);
  std::string Error;
  EXPECT_FALSE(loadCheckpoint(Restored, Path, &Error));
  EXPECT_NE(Error.find("scalar width mismatch"), std::string::npos) << Error;
  EXPECT_NE(Error.find("8-byte"), std::string::npos) << Error;
  EXPECT_NE(Error.find("4-byte"), std::string::npos) << Error;
  std::remove(Path.c_str());
}

TEST(CheckpointTest, TruncatedFileRejected) {
  const std::string Path = tempPath("ckpt_trunc.ckpt");
  ParticleArrayAoS<double> Saved(8);
  seedAwkwardParticles(Saved, 8);
  ASSERT_TRUE(saveCheckpoint(Saved, Path));

  // Rewrite the file keeping the header and only part of the records.
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(File, nullptr);
  char Buffer[128];
  const std::size_t Kept = std::fread(Buffer, 1, sizeof(Buffer), File);
  std::fclose(File);
  File = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(File, nullptr);
  ASSERT_EQ(std::fwrite(Buffer, 1, Kept, File), Kept);
  std::fclose(File);

  ParticleArrayAoS<double> Restored(8);
  std::string Error;
  EXPECT_FALSE(loadCheckpoint(Restored, Path, &Error));
  EXPECT_NE(Error.find("truncated checkpoint"), std::string::npos) << Error;

  // Header alone truncated: a file shorter than 32 bytes.
  File = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(File, nullptr);
  ASSERT_EQ(std::fwrite(Buffer, 1, 10, File), std::size_t(10));
  std::fclose(File);
  EXPECT_FALSE(loadCheckpoint(Restored, Path, &Error));
  EXPECT_NE(Error.find("header incomplete"), std::string::npos) << Error;
  std::remove(Path.c_str());
}

TEST(CheckpointTest, CorruptMagicRejected) {
  const std::string Path = tempPath("ckpt_magic.ckpt");
  ParticleArrayAoS<double> Saved(8);
  seedAwkwardParticles(Saved, 4);
  ASSERT_TRUE(saveCheckpoint(Saved, Path));

  std::FILE *File = std::fopen(Path.c_str(), "rb+");
  ASSERT_NE(File, nullptr);
  const std::uint32_t Junk = 0xDEADBEEF;
  ASSERT_EQ(std::fwrite(&Junk, sizeof(Junk), 1, File), std::size_t(1));
  std::fclose(File);

  ParticleArrayAoS<double> Restored(8);
  std::string Error;
  EXPECT_FALSE(loadCheckpoint(Restored, Path, &Error));
  EXPECT_NE(Error.find("not a hichi checkpoint"), std::string::npos) << Error;
  std::remove(Path.c_str());
}

TEST(CheckpointTest, CapacityOverflowRejected) {
  const std::string Path = tempPath("ckpt_capacity.ckpt");
  ParticleArrayAoS<double> Saved(8);
  seedAwkwardParticles(Saved, 8);
  ASSERT_TRUE(saveCheckpoint(Saved, Path));

  ParticleArrayAoS<double> TooSmall(4);
  std::string Error;
  EXPECT_FALSE(loadCheckpoint(TooSmall, Path, &Error));
  EXPECT_NE(Error.find("exceed array capacity"), std::string::npos) << Error;
  std::remove(Path.c_str());
}

TEST(CheckpointTest, FullStateRoundTripAndVersionGuard) {
  const std::string Path = tempPath("ckpt_state.ckpt");
  ParticleArrayAoS<double> Saved(16);
  seedAwkwardParticles(Saved, 11);
  std::vector<double> FieldA = {std::sqrt(2.0), -std::sqrt(3.0), 0.25};
  std::vector<double> FieldB = {1e-9, -1e9};

  std::string Error;
  ASSERT_TRUE(saveSimulationCheckpoint(
      Saved, /*StepIndex=*/123, /*Time=*/61.5,
      {{FieldA.data(), Index(FieldA.size())},
       {FieldB.data(), Index(FieldB.size())}},
      Path, &Error))
      << Error;

  // The v1 loader must refuse the v2 file and point at the right API.
  ParticleArrayAoS<double> WrongLoader(16);
  EXPECT_FALSE(loadCheckpoint(WrongLoader, Path, &Error));
  EXPECT_NE(Error.find("use loadSimulationCheckpoint"), std::string::npos)
      << Error;

  std::vector<double> OutA(FieldA.size(), 0.0), OutB(FieldB.size(), 0.0);
  ParticleArraySoA<double> Restored(16);
  std::int64_t StepIndex = 0;
  double Time = 0;
  ASSERT_TRUE(loadSimulationCheckpoint(
      Restored, StepIndex, Time,
      {{OutA.data(), Index(OutA.size())}, {OutB.data(), Index(OutB.size())}},
      Path, &Error))
      << Error;
  EXPECT_EQ(StepIndex, 123);
  EXPECT_EQ(Time, 61.5);
  EXPECT_EQ(0, std::memcmp(FieldA.data(), OutA.data(),
                           FieldA.size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(FieldB.data(), OutB.data(),
                           FieldB.size() * sizeof(double)));
  expectBitwiseEqual(Saved, Restored);

  // Field-list mismatches are rejected with the offending index.
  EXPECT_FALSE(loadSimulationCheckpoint(
      Restored, StepIndex, Time, {{OutA.data(), Index(OutA.size())}}, Path,
      &Error));
  EXPECT_NE(Error.find("field count mismatch"), std::string::npos) << Error;
  EXPECT_FALSE(loadSimulationCheckpoint(
      Restored, StepIndex, Time,
      {{OutA.data(), Index(OutA.size())}, {OutB.data(), Index(1)}}, Path,
      &Error));
  EXPECT_NE(Error.find("field 1 size mismatch"), std::string::npos) << Error;
  std::remove(Path.c_str());
}

TEST(CheckpointTest, WindowBlockRoundTripV3) {
  const std::string Path = tempPath("ckpt_window.ckpt");
  ParticleArrayAoS<double> Saved(16);
  seedAwkwardParticles(Saved, 9);
  std::vector<double> Field = {std::sqrt(7.0), -0.5};

  CheckpointWindow Window;
  Window.OriginPlanes = 23;
  Window.PhysBase = 23 % 16; // ring base after 23 single-plane shifts
  Window.ShiftCount = 23;
  std::string Error;
  ASSERT_TRUE(saveSimulationCheckpoint(
      Saved, /*StepIndex=*/77, /*Time=*/3.25, Window,
      {{Field.data(), Index(Field.size())}}, Path, &Error))
      << Error;

  std::vector<double> Out(Field.size(), 0.0);
  ParticleArraySoA<double> Restored(16);
  std::int64_t StepIndex = 0;
  double Time = 0;
  CheckpointWindow Loaded;
  ASSERT_TRUE(loadSimulationCheckpoint(Restored, StepIndex, Time, Loaded,
                                       {{Out.data(), Index(Out.size())}},
                                       Path, &Error))
      << Error;
  EXPECT_EQ(Loaded.OriginPlanes, 23);
  EXPECT_EQ(Loaded.PhysBase, 7);
  EXPECT_EQ(Loaded.ShiftCount, 23);
  EXPECT_EQ(StepIndex, 77);
  EXPECT_EQ(Time, 3.25);
  expectBitwiseEqual(Saved, Restored);

  // The window-less convenience loader still reads the v3 file (it just
  // discards the window), so fixed-window callers keep working.
  ASSERT_TRUE(loadSimulationCheckpoint(Restored, StepIndex, Time,
                                       {{Out.data(), Index(Out.size())}},
                                       Path, &Error))
      << Error;
  expectBitwiseEqual(Saved, Restored);

  // A v3 file cut right after the state header fails with the window
  // named, not a garbage read.
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(File, nullptr);
  char Buffer[56]; // 32-byte header + 24-byte state header
  ASSERT_EQ(std::fread(Buffer, 1, sizeof(Buffer), File), sizeof(Buffer));
  std::fclose(File);
  File = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(File, nullptr);
  ASSERT_EQ(std::fwrite(Buffer, 1, sizeof(Buffer), File), sizeof(Buffer));
  std::fclose(File);
  EXPECT_FALSE(loadSimulationCheckpoint(Restored, StepIndex, Time, Loaded,
                                        {{Out.data(), Index(Out.size())}},
                                        Path, &Error));
  EXPECT_NE(Error.find("window block missing"), std::string::npos) << Error;
  std::remove(Path.c_str());
}

TEST(CheckpointTest, LegacyV2FileLoadsWithWindowAtRest) {
  // Hand-write a genuine v2 file (header + state header + particles +
  // fields, no window block): pre-window checkpoints must keep loading,
  // reporting an at-rest window.
  const std::string Path = tempPath("ckpt_v2_legacy.ckpt");
  ParticleArrayAoS<double> Saved(8);
  seedAwkwardParticles(Saved, 5);
  std::vector<double> Field = {1.5, -2.5, 42.0};

  {
    using namespace checkpoint_detail;
    std::FILE *File = std::fopen(Path.c_str(), "wb");
    ASSERT_NE(File, nullptr);
    Header Head;
    Head.Version = StateVersionV2;
    Head.ScalarBytes = sizeof(double);
    Head.Count = Saved.size();
    StateHeader State;
    State.StepIndex = 9;
    State.Time = 1.125;
    State.FieldCount = 1;
    ASSERT_EQ(std::fwrite(&Head, sizeof(Head), 1, File), std::size_t(1));
    ASSERT_EQ(std::fwrite(&State, sizeof(State), 1, File), std::size_t(1));
    ASSERT_TRUE(writeParticles(File, Saved));
    const std::int64_t Count = std::int64_t(Field.size());
    ASSERT_EQ(std::fwrite(&Count, sizeof(Count), 1, File), std::size_t(1));
    ASSERT_EQ(std::fwrite(Field.data(), sizeof(double), Field.size(), File),
              Field.size());
    std::fclose(File);
  }

  std::vector<double> Out(Field.size(), 0.0);
  ParticleArrayAoS<double> Restored(8);
  std::int64_t StepIndex = 0;
  double Time = 0;
  CheckpointWindow Window;
  Window.OriginPlanes = 99; // must be overwritten, not left stale
  std::string Error;
  ASSERT_TRUE(loadSimulationCheckpoint(Restored, StepIndex, Time, Window,
                                       {{Out.data(), Index(Out.size())}},
                                       Path, &Error))
      << Error;
  EXPECT_EQ(Window.OriginPlanes, 0);
  EXPECT_EQ(Window.PhysBase, 0);
  EXPECT_EQ(Window.ShiftCount, 0);
  EXPECT_EQ(StepIndex, 9);
  EXPECT_EQ(Time, 1.125);
  EXPECT_EQ(0, std::memcmp(Field.data(), Out.data(),
                           Field.size() * sizeof(double)));
  expectBitwiseEqual(Saved, Restored);
  std::remove(Path.c_str());
}

/// A small fixed-window PIC run (8x4x4 grid, 16 electrons).
std::unique_ptr<pic::PicSimulation<double>> makeSmallSimulation() {
  pic::PicOptions<double> Options;
  Options.LightVelocity = 1.0;
  auto Sim = std::make_unique<pic::PicSimulation<double>>(
      GridSize{8, 4, 4}, Vector3<double>{0, 0, 0},
      Vector3<double>{0.5, 0.5, 0.5}, 16,
      ParticleTypeTable<double>::natural(), Options);
  for (int I = 0; I < 16; ++I) {
    ParticleT<double> P;
    P.Position = {0.1 + 0.2 * I, 0.3, 0.7};
    P.Momentum = {0.01, -0.02, 0.005};
    P.Weight = 0.05;
    P.Type = PS_Electron;
    Sim->addParticle(P);
  }
  Sim->run(3);
  return Sim;
}

/// Byte offsets into a v3 double-precision checkpoint: the window block
/// follows the two headers, particle records (8 scalars + int16 type)
/// follow the window block, and the nine field lattices (an int64
/// count, then the scalars, in Ex..Bz, Jx..Jz order) follow the 16
/// records of makeSmallSimulation.
constexpr long WindowOffset = long(sizeof(checkpoint_detail::Header) +
                                   sizeof(checkpoint_detail::StateHeader));
constexpr long ParticleRecordBytes =
    long(8 * sizeof(double) + sizeof(std::int16_t));
constexpr long FirstParticleOffset =
    WindowOffset + long(sizeof(checkpoint_detail::WindowBlock));
constexpr long SecondParticleOffset = FirstParticleOffset + ParticleRecordBytes;
constexpr long FieldsOffset = FirstParticleOffset + 16 * ParticleRecordBytes;

/// Saves a small run to \p Path and overwrites the bytes at \p Offset
/// with \p Value.
template <typename T>
void savePatchedCheckpoint(const std::string &Path, long Offset, T Value) {
  std::string Error;
  ASSERT_TRUE(makeSmallSimulation()->saveState(Path, &Error)) << Error;
  std::FILE *File = std::fopen(Path.c_str(), "r+b");
  ASSERT_NE(File, nullptr);
  ASSERT_EQ(std::fseek(File, Offset, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&Value, sizeof(T), 1, File), std::size_t(1));
  std::fclose(File);
}

std::uint64_t hashOf(const pic::PicSimulation<double> &Sim) {
  return pic::picStateHash(Sim.particles(), Sim.grid());
}

/// Saves a small run, overwrites the bytes at \p Offset with \p Value,
/// and expects restoreState() to refuse the file with a one-line reason
/// containing \p Expected. The refused run must keep its own state and
/// still step.
template <typename T>
void expectPatchedRestoreRejected(const char *Name, long Offset, T Value,
                                  const char *Expected) {
  const std::string Path = tempPath(Name);
  savePatchedCheckpoint(Path, Offset, Value);

  auto Sim = makeSmallSimulation();
  const std::uint64_t Before = hashOf(*Sim);
  std::string Error;
  EXPECT_FALSE(Sim->restoreState(Path, &Error));
  EXPECT_NE(Error.find(Expected), std::string::npos) << Error;
  EXPECT_EQ(Error.find('\n'), std::string::npos) << Error;
  EXPECT_EQ(hashOf(*Sim), Before);
  Sim->run(2);
  std::remove(Path.c_str());
}

TEST(CheckpointTest, RestoreRejectsParticleTypeOutsideTable) {
  expectPatchedRestoreRejected("ckpt_bad_type.ckpt",
                               SecondParticleOffset + 8 * sizeof(double),
                               std::int16_t(30000), "has type 30000");
  expectPatchedRestoreRejected("ckpt_negative_type.ckpt",
                               SecondParticleOffset + 8 * sizeof(double),
                               std::int16_t(-1), "has type -1");
}

TEST(CheckpointTest, RestoreRejectsNonFinitePositionOrMomentum) {
  expectPatchedRestoreRejected("ckpt_nan_position.ckpt", SecondParticleOffset,
                               std::numeric_limits<double>::quiet_NaN(),
                               "non-finite position or momentum");
  expectPatchedRestoreRejected("ckpt_inf_momentum.ckpt",
                               SecondParticleOffset + 4 * sizeof(double),
                               std::numeric_limits<double>::infinity(),
                               "non-finite position or momentum");
}

/// Byte offset of element \p Element of field lattice \p Field (0 = Ex,
/// ..., 8 = Jz) in a makeSmallSimulation checkpoint.
long fieldElementOffset(int Field, long Element) {
  const long Lattice = long(makeSmallSimulation()->grid().Ex.raw().size());
  const long FieldBytes =
      long(sizeof(std::int64_t)) + Lattice * long(sizeof(double));
  return FieldsOffset + long(Field) * FieldBytes +
         long(sizeof(std::int64_t)) + Element * long(sizeof(double));
}

TEST(CheckpointTest, RestoreRejectsNanElectricField) {
  expectPatchedRestoreRejected("ckpt_nan_ey.ckpt", fieldElementOffset(1, 5),
                               std::numeric_limits<double>::quiet_NaN(),
                               "field Ey has a non-finite value");
}

/// A refused restore must change nothing: the run that tried it keeps
/// its particles, fields, step index and time, and steps on exactly
/// like a run that never tried.
TEST(CheckpointTest, RefusedRestoreLeavesStateUnchanged) {
  const std::string Path = tempPath("ckpt_refused_unchanged.ckpt");
  savePatchedCheckpoint(Path, fieldElementOffset(1, 5),
                        std::numeric_limits<double>::quiet_NaN());

  auto Sim = makeSmallSimulation();
  Sim->run(2); // the live state now differs from the file's
  const std::uint64_t Hash = hashOf(*Sim);
  const double Energy = Sim->fieldEnergy();
  const Index Count = Sim->particles().size();
  std::string Error;
  EXPECT_FALSE(Sim->restoreState(Path, &Error));
  EXPECT_NE(Error.find("field Ey has a non-finite value"), std::string::npos)
      << Error;
  EXPECT_EQ(hashOf(*Sim), Hash);
  EXPECT_EQ(Sim->fieldEnergy(), Energy);
  EXPECT_EQ(Sim->particles().size(), Count);
  EXPECT_EQ(Sim->stepCount(), 5);

  auto Untouched = makeSmallSimulation();
  Untouched->run(2);
  Sim->run(3);
  Untouched->run(3);
  EXPECT_EQ(hashOf(*Sim), hashOf(*Untouched));
  std::remove(Path.c_str());
}

TEST(CheckpointTest, RestoreRejectsNanMagneticField) {
  expectPatchedRestoreRejected("ckpt_nan_bz.ckpt", fieldElementOffset(5, 127),
                               std::numeric_limits<double>::quiet_NaN(),
                               "field Bz has a non-finite value");
}

TEST(CheckpointTest, RestoreRejectsPositionFarOutsideWindow) {
  // Finite but 1e12 cells (dx = 0.5) off the box along x, and two cells
  // below it along z; the record's scalars start with X, Y, Z.
  expectPatchedRestoreRejected("ckpt_far_position.ckpt", SecondParticleOffset,
                               1e12 * 0.5, "outside the window box");
  expectPatchedRestoreRejected("ckpt_below_box.ckpt",
                               SecondParticleOffset + 2 * sizeof(double),
                               -1.0, "outside the window box");
}

TEST(CheckpointTest, RestoreRejectsWindowOutOfRange) {
  // Block order: OriginPlanes, PhysBase, ShiftCount.
  expectPatchedRestoreRejected("ckpt_bad_physbase.ckpt", WindowOffset + 8,
                               std::int64_t(8), "PhysBase 8 outside [0, 8)");
  expectPatchedRestoreRejected("ckpt_negative_physbase.ckpt",
                               WindowOffset + 8, std::int64_t(-1),
                               "PhysBase -1 outside [0, 8)");
  expectPatchedRestoreRejected("ckpt_negative_origin.ckpt", WindowOffset,
                               std::int64_t(-4), "negative window");
  expectPatchedRestoreRejected("ckpt_negative_shifts.ckpt", WindowOffset + 16,
                               std::int64_t(-1), "negative window");
}

} // namespace
